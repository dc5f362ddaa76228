import random
from fractions import Fraction

import pytest
from hypothesis import strategies as st

from formaldisk.jets import JetAutomorphism, JetSeries
from formaldisk.vertex import TruncationPolicy, VAState, enumerate_basis


@pytest.fixture
def rng():
    return random.Random(20260809)


@pytest.fixture
def policy():
    return TruncationPolicy(12, 10)


def monomial_states(n, policy, max_weight, max_c0):
    return [VAState(n, policy, {m: Fraction(1)})
            for m in enumerate_basis(n, max_weight, max_c0)]


def random_state(rng, n, policy, max_weight=3, max_c0=2, terms=1):
    basis = enumerate_basis(n, max_weight, max_c0)
    data = {}
    for _ in range(terms):
        data[rng.choice(basis)] = rng.randint(-3, 3) or 1
    return VAState(n, policy, data)


def random_unipotent(rng, n, order, max_degree=2, extra_terms=3):
    comps = []
    for i in range(1, n + 1):
        f = JetSeries.variable(n, order, i)
        for _ in range(extra_terms):
            e = [0] * n
            for _ in range(rng.randint(2, max_degree)):
                e[rng.randrange(n)] += 1
            f = f + JetSeries.monomial(n, order, tuple(e),
                                       Fraction(rng.randint(-2, 2)))
        comps.append(f)
    return JetAutomorphism(n, order, comps)


# jets in (s, u) at order 2, the coefficients of the van Est derivative, at
# one rank and order so that they add and multiply; the exponents are those
# of 1, s, u, s^2, s*u, u^2
SU_EXPS = [(0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2)]
SU_JETS = st.builds(lambda *cs: JetSeries(2, 2, dict(zip(SU_EXPS, cs))),
                    *[st.integers(-2, 2)] * len(SU_EXPS))
