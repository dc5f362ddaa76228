"""Mode calculus: vacuum, translation, products, composition identity."""

import random
import sys
import threading
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from formaldisk import vertex
from formaldisk.errors import ShapeError, TruncationOverflowError
from formaldisk.grammar import format_state, parse_state, parse_vector_field
from formaldisk.hc import msv_defect, tau_w
from formaldisk.jets import basis_monomial_fields, vf_bracket
from formaldisk.vertex import (KIND_B, KIND_C, TruncationPolicy, VAState,
                               borcherds_check, clear_mode_cache,
                               enumerate_basis, enumerate_weight_monomials,
                               mode_apply, translate, vacuum)
from tests import recursion
from tests.conftest import monomial_states, random_state

POL = TruncationPolicy(12, 10)


def gen(n, kind, j, m):
    return VAState.generator(n, POL, kind, j, m)


class TestVacuum:
    def test_vacuum_is_unit(self):
        c0 = gen(1, KIND_C, 1, 0)
        assert mode_apply(vacuum(1, POL), -1, c0) == c0
        assert mode_apply(vacuum(1, POL), 0, gen(1, KIND_B, 1, -1)).is_zero()

    def test_creation_against_vacuum(self):
        b = gen(1, KIND_B, 1, -1)
        assert mode_apply(b, -1, vacuum(1, POL)) == b
        for m in (0, 1, 2):
            assert mode_apply(b, m, vacuum(1, POL)).is_zero()

    def test_vacuum_axiom_sampled(self, rng):
        for _ in range(30):
            n = rng.choice([1, 2])
            v = random_state(rng, n, POL, terms=2)
            assert mode_apply(v, -1, vacuum(n, POL)) == v
            assert mode_apply(v, rng.randint(0, 3), vacuum(n, POL)).is_zero()


class TestTranslate:
    def test_generator_images(self):
        assert translate(gen(1, KIND_C, 1, 0)) == gen(1, KIND_C, 1, -1)
        assert translate(gen(1, KIND_B, 1, -1)) == gen(1, KIND_B, 1, -2)
        assert translate(vacuum(1, POL)).is_zero()
        # T c_{-1} = 2 c_{-2}
        assert translate(gen(1, KIND_C, 1, -1)) == \
            gen(1, KIND_C, 1, -2).scale(2)

    def test_derivation(self, rng):
        for _ in range(20):
            n = rng.choice([1, 2])
            a = random_state(rng, n, POL)
            b = random_state(rng, n, POL)
            assert translate(a * b) == translate(a) * b + a * translate(b)

    def test_commutator_with_modes(self, rng):
        for _ in range(30):
            n = rng.choice([1, 2])
            a = random_state(rng, n, POL)
            v = random_state(rng, n, POL)
            m = rng.randint(-3, 3)
            lhs = translate(mode_apply(a, m, v)) - \
                mode_apply(a, m, translate(v))
            assert lhs == mode_apply(a, m - 1, v).scale(-m)


class TestGeneratorModes:
    def test_annihilation(self):
        b, c0 = gen(1, KIND_B, 1, -1), gen(1, KIND_C, 1, 0)
        assert mode_apply(b, 0, c0) == vacuum(1, POL)
        assert mode_apply(c0, 0, b) == vacuum(1, POL).scale(-1)
        assert mode_apply(b, -2, vacuum(1, POL)) == gen(1, KIND_B, 1, -2)
        assert recursion.generator_mode(KIND_B, 1, 0)(c0) == vacuum(1, POL)
        assert recursion.generator_mode(KIND_C, 1, 0)(b) == \
            vacuum(1, POL).scale(-1)

    def test_number_operator(self):
        # (c0 b_{-1})_(0) f = p f on degree-p polynomials in the c-symbols;
        # on mixed monomials the eigenvalue is (#c - #b), matching the Euler
        # field acting by -1 on tangent directions.
        b, c0 = gen(1, KIND_B, 1, -1), gen(1, KIND_C, 1, 0)
        cm2 = gen(1, KIND_C, 1, -2)
        number = c0 * b
        for state, p in [(c0, 1), (c0 * c0, 2), (c0 * cm2, 2),
                         (vacuum(1, POL), 0)]:
            assert mode_apply(number, 0, state) == state.scale(p)
        assert mode_apply(number, 0, b) == b.scale(-1)
        assert mode_apply(number, 0, b * c0 * c0) == (b * c0 * c0).scale(1)

    def test_translated_argument_identity(self):
        # (c0^p b)_(0) (T^m c0) = T^m (c0^p)
        c0, b = gen(1, KIND_C, 1, 0), gen(1, KIND_B, 1, -1)
        a = c0 * c0 * b
        target = translate(translate(c0))
        assert mode_apply(a, 0, target) == translate(translate(c0 * c0))

    def test_l0_eigenvalue_example(self):
        b, cm1 = gen(1, KIND_B, 1, -1), gen(1, KIND_C, 1, -1)
        assert mode_apply(b * cm1, 1, cm1) == cm1


class TestWeights:
    def test_weights_of_generators(self):
        assert gen(1, KIND_C, 1, 0).weight() == 0
        assert gen(1, KIND_B, 1, -1).weight() == 1
        assert (gen(1, KIND_B, 1, -2) * gen(1, KIND_C, 1, -1)).weight() == 3

    def test_weight_decomposition(self):
        mixed = gen(1, KIND_C, 1, 0) + gen(1, KIND_B, 1, -1)
        parts = mixed.weight_decomposition()
        assert sorted(parts) == [0, 1]
        with pytest.raises(ShapeError):
            mixed.weight()

    def test_weight_bookkeeping(self, rng):
        for _ in range(40):
            n = rng.choice([1, 2])
            a = random_state(rng, n, POL)
            v = random_state(rng, n, POL)
            m = rng.randint(-3, 3)
            res = mode_apply(a, m, v)
            if not res.is_zero():
                assert res.weight() == a.weight() + v.weight() - m - 1

    def test_annihilation_bound(self, rng):
        for _ in range(30):
            n = rng.choice([1, 2])
            a = random_state(rng, n, POL)
            v = random_state(rng, n, POL)
            k = a.max_weight() + v.max_weight()
            assert mode_apply(a, k, v).is_zero()
            assert mode_apply(a, k + 2, v).is_zero()


class TestFiltration:
    def test_degree_examples(self):
        c0 = gen(1, KIND_C, 1, 0)
        assert (c0 * c0 * c0).filtration_degree() == 0
        b1, b2 = gen(1, KIND_B, 1, -1), gen(1, KIND_B, 1, -2)
        assert (b1 * b2 * c0).filtration_degree() == 2
        assert vacuum(1, POL).filtration_degree() == 0

    def test_classical_limit_bound(self, rng):
        for _ in range(60):
            n = rng.choice([1, 2])
            a = random_state(rng, n, POL)
            v = random_state(rng, n, POL)
            m = rng.randint(-2, 3)
            res = mode_apply(a, m, v)
            if res.is_zero():
                continue
            p, q = a.filtration_degree(), v.filtration_degree()
            assert res.filtration_degree() <= p + q
            if m >= 0:
                # commutativity of the associated graded
                assert res.filtration_degree() <= max(p + q - 1, 0)


class TestBorcherds:
    def test_spec_instances(self):
        b, c0 = gen(1, KIND_B, 1, -1), gen(1, KIND_C, 1, 0)
        ok, lhs, rhs = borcherds_check(b, c0, vacuum(1, POL), 0, -1)
        assert ok and lhs == rhs
        ok, _, _ = borcherds_check(b, b, c0 * c0, 0, 0)
        assert ok
        ok, _, _ = borcherds_check(c0, c0, b, -1, 0)
        assert ok

    def test_random_instances(self, rng):
        for _ in range(60):
            n = rng.choice([1, 2])
            a = random_state(rng, n, POL)
            b = random_state(rng, n, POL)
            c = random_state(rng, n, POL)
            l, m = rng.randint(-3, 3), rng.randint(-3, 3)
            ok, lhs, rhs = borcherds_check(a, b, c, l, m)
            assert ok, (a, b, c, l, m, lhs, rhs)


class TestPolicy:
    def test_strict_overflow_raises(self):
        tight = TruncationPolicy(1, 1)
        b = VAState.generator(1, tight, KIND_B, 1, -1)
        with pytest.raises(TruncationOverflowError):
            VAState.generator(1, tight, KIND_B, 1, -2)
        with pytest.raises(TruncationOverflowError):
            b * b
        with pytest.raises(TruncationOverflowError):
            mode_apply(b, -2, b)

    def test_c0_bound_trips_in_mode_products(self):
        # c_0 times a monomial of c0-degree k: one c_0 above a bound of k
        for k in (1, 2, 3):
            pol = TruncationPolicy(4, k)
            c0 = VAState.generator(1, pol, KIND_C, 1, 0)
            v = VAState(1, pol, {((KIND_C, 1, 0),) * k: 1})
            with pytest.raises(TruncationOverflowError):
                mode_apply(c0, -1, v)

    def test_policies_are_interned(self):
        assert TruncationPolicy(4, 4) is TruncationPolicy(4, 4)
        assert TruncationPolicy(4, 4) != TruncationPolicy(4, 5)
        with pytest.raises(ShapeError, match="non-negative"):
            TruncationPolicy(-1, 4)
        # equal policies are one policy, so their states combine
        a = VAState.generator(1, TruncationPolicy(4, 4), KIND_B, 1, -1)
        b = VAState.generator(1, TruncationPolicy(4, 4), KIND_B, 1, -1)
        assert (a + b).terms == {next(iter(a.terms)): 2}

    def test_policy_mismatch(self):
        a = VAState.generator(1, TruncationPolicy(4, 4), KIND_B, 1, -1)
        b = VAState.generator(1, TruncationPolicy(5, 4), KIND_B, 1, -1)
        with pytest.raises(ShapeError):
            mode_apply(a, 0, b)


class TestCoefficients:
    """Integral coefficients are stored as int, others as Fraction."""

    def test_integral_rationals_stored_as_int(self):
        from formaldisk.grammar import parse_state
        c1 = ((KIND_C, 1, 0),)
        states = [
            VAState(2, POL, {c1: F(4, 2)}),
            VAState.generator(2, POL, KIND_C, 1, 0, coeff=F(3)),
            VAState.generator(2, POL, KIND_C, 1, 0, coeff="6/2"),
            VAState(2, POL, {c1: F(1, 2)}).scale(F(2)),
            # two spellings of one monomial, summed by the constructor
            VAState(2, POL, {((KIND_C, 1, 0), (KIND_C, 2, 0)): F(1, 2),
                             ((KIND_C, 2, 0), (KIND_C, 1, 0)): F(1, 2)}),
            parse_state("2*c[1,0]", 2, POL),
            # sums of non-integral coefficients
            VAState(2, POL, {c1: F(1, 2)}) + VAState(2, POL, {c1: F(1, 2)}),
            VAState(2, POL, {c1: F(5, 2)}) - VAState(2, POL, {c1: F(1, 2)}),
            parse_state("1/2*c[1,0] + 1/2*c[1,0]", 2, POL),
        ]
        for v in states:
            (c,) = v.terms.values()
            assert type(c) is int, v

    def test_mode_products_of_fractions_stored_as_int(self):
        half_c = VAState.generator(2, POL, KIND_C, 1, -1, F(1, 2))
        two_b = VAState.generator(2, POL, KIND_B, 1, -1, 2)
        thirds = VAState(2, POL, {((KIND_B, 1, -1),): F(1, 3),
                                  ((KIND_B, 2, -1),): F(2, 3)})
        c3 = VAState(2, POL, {((KIND_C, 1, 0), (KIND_C, 2, 0)): 3})
        for a, m, v in ((half_c, -1, two_b), (two_b, -1, half_c),
                        (thirds, 0, c3)):
            res = mode_apply(a, m, v)
            assert res.terms
            for c in res.terms.values():
                assert type(c) is int, res

    def test_non_integral_rationals_stay_fractions(self):
        from formaldisk.grammar import parse_state
        c1 = ((KIND_C, 1, 0),)
        states = [
            VAState(2, POL, {c1: F(3, 2)}),
            VAState.generator(2, POL, KIND_C, 1, 0, coeff="1/3"),
            VAState(2, POL, {c1: 3}).scale(F(1, 2)),
            parse_state("2/3*c[1,0]", 2, POL),
            VAState(2, POL, {c1: 1}) + VAState(2, POL, {c1: F(1, 2)}),
        ]
        for v in states:
            (c,) = v.terms.values()
            assert type(c) is F and c.denominator != 1, v

    def test_rank_must_be_positive(self):
        for make in (lambda: VAState(0, POL, {(): 1}),
                     lambda: VAState.vacuum(0, POL),
                     lambda: VAState.zero(0, POL),
                     lambda: vacuum(-1, POL)):
            with pytest.raises(ShapeError, match="rank must be >= 1"):
                make()


# random states for the recursion oracle: up to three monomials with
# rational coefficients
RATIONALS = st.builds(F, st.integers(-4, 4).filter(bool), st.integers(1, 3))


def _cut(draw, n, policy, monos):
    """A state of up to three of ``monos`` with rational coefficients,
    built loose, then cut to the terms the drawn policy holds."""
    terms = draw(st.dictionaries(st.sampled_from(monos), RATIONALS,
                                 min_size=1, max_size=3))
    loose = VAState(n, TruncationPolicy(12, 10), terms)
    keep = {k: c for k, c in loose.terms.items()
            if vertex._WEIGHT[k] <= policy.max_weight
            and vertex._C0[k] <= policy.max_c0}
    return VAState(n, policy, keep or {vertex._EMPTY: 1}, _clean=True)


@st.composite
def basis_cases(draw):
    """Basis monomials of weight <= 3 and c0-degree <= 2, under small
    policies."""
    n = draw(st.integers(1, 3))
    policy = TruncationPolicy(draw(st.integers(3, 8)), draw(st.integers(1, 4)))
    basis = enumerate_basis(n, 3, 2)
    a, v = _cut(draw, n, policy, basis), _cut(draw, n, policy, basis)
    return a, draw(st.integers(-2, 3)), v


@st.composite
def creating_cases(draw):
    """Criterion 1's regime, policy (20, 10) and states of weight <= 4 and
    c0-degree <= 2, at modes -6..-3, where a's monomials carry three or
    four equal factors (and maybe one more of their field), such as
    b[1,-1]^3 or c[1,-2]^2*c[1,-1], which mostly create."""
    n = draw(st.integers(1, 2))
    policy = TruncationPolicy(20, 10)
    monos = []
    for _ in range(draw(st.integers(1, 2))):
        kind = draw(st.sampled_from((KIND_B, KIND_C)))
        j = draw(st.integers(1, n))
        modes = st.integers(-2, -1 if kind == KIND_B else 0)
        mono = ((kind, j, draw(modes)),) * draw(st.integers(3, 4))
        monos.append(mono + tuple(draw(st.lists(
            modes.map(lambda m, kind=kind, j=j: (kind, j, m)), max_size=1))))
    a = _cut(draw, n, policy, monos)
    v = _cut(draw, n, policy, enumerate_basis(n, 4, 2))
    return a, draw(st.integers(-6, -3)), v


product_cases = st.one_of(basis_cases(), creating_cases())


@st.composite
def factored_cases(draw):
    """Products whose Wick miss factors through several sets of b-factors:
    a's monomials carry b[j,-2] and a second b-factor of field j, and v's
    carry up to four c_0 symbols."""
    n = draw(st.integers(1, 2))
    j = draw(st.integers(1, n))
    policy = TruncationPolicy(draw(st.integers(6, 12)), draw(st.integers(2, 8)))
    # c_0 twice, so that a takes a c_0 symbol as often as one of each other
    extras = [(kind, i, mode) for i in range(1, n + 1)
              for kind, mode in ((KIND_C, 0), (KIND_C, 0), (KIND_C, -1),
                                 (KIND_B, -1))]
    monos = []
    for _ in range(draw(st.integers(1, 3))):
        second = (KIND_B, j, draw(st.integers(-3, -1)))
        more = draw(st.lists(st.sampled_from(extras), max_size=3))
        monos.append(((KIND_B, j, -2), second, *more))
    a = _cut(draw, n, policy, monos)
    v = _cut(draw, n, policy, enumerate_basis(n, 2, 4))
    return a, draw(st.integers(-3, 3)), v


def _outcome(apply):
    """A product's terms with their coefficient types, or its error."""
    try:
        res = apply()
    except TruncationOverflowError as exc:
        return str(exc)
    return {k: (c, type(c)) for k, c in res.terms.items()}


def _check_wick(a, m, v):
    """mode_apply equals the recursion oracle, and the product's c0-degree
    is at most the largest of a's plus the largest of v's."""
    got = _outcome(lambda: mode_apply(a, m, v))
    assert got == _outcome(lambda: recursion.mode_apply(a, m, v)), (a, m, v)
    if isinstance(got, dict):
        top = max(vertex._C0[k] for k in a.terms) + \
            max(vertex._C0[k] for k in v.terms)
        assert all(vertex._C0[k] <= top for k in got), (a, m, v)


class TestWick:
    """Wick's theorem against the recursion: mode_apply(a, m, v) equals
    the oracle's, coefficient types and diagnostics included."""

    def test_zero_modes_of_fields_on_criterion_2_space(self):
        pol = TruncationPolicy(8, 14)
        states = monomial_states(2, pol, 3, 4)
        for x in basis_monomial_fields(2, 8, 3):
            a = tau_w(x, pol)
            for v in states:
                _check_wick(a, 0, v)
        # each product is cached with no container of its own
        assert vertex._MODE_CACHE
        assert all(type(key) is int and type(run) is int
                   for key, run in vertex._MODE_CACHE.items())
        assert all(type(x) is int for x in vertex._WICK_RUNS)

    @settings(max_examples=400, deadline=None)
    @given(product_cases)
    def test_equals_recursion(self, case):
        _check_wick(*case)

    @settings(max_examples=300, deadline=None)
    @given(factored_cases())
    def test_equals_recursion_when_b_factors_take_c0(self, case):
        _check_wick(*case)


class TestEnumeration:
    def test_weight_monomial_counts(self):
        # rank 1, weight 1: b_{-1}, c_{-1}
        assert len(enumerate_weight_monomials(1, 1)) == 2
        # weight 2: b_{-2}, c_{-2}, b_{-1}^2, b_{-1}c_{-1}, c_{-1}^2
        assert len(enumerate_weight_monomials(1, 2)) == 5
        assert enumerate_weight_monomials(2, 0) == [()]

    def test_basis_is_deduplicated(self):
        basis = enumerate_basis(2, 2, 2)
        assert len(basis) == len(set(basis))


class _PeakDict(dict):
    """A cache stand-in that records its largest size and its clears."""

    def __init__(self):
        super().__init__()
        self.peak = 0
        self.clears = 0

    def __setitem__(self, key, value):
        super().__setitem__(key, value)
        self.peak = max(self.peak, len(self))

    def clear(self):
        self.clears += 1
        super().clear()


class _WickDict(_PeakDict):
    """A mode cache stand-in that also checks, after every store, that
    ``_WICK_RUNS`` holds exactly the runs of the stored entries, and counts
    the clears made while a factored miss (one on a monomial with c_0
    symbols) is under way."""

    def __init__(self):
        super().__init__()
        self.factoring = 0
        self.clears_inside = 0

    def __setitem__(self, key, value):
        super().__setitem__(key, value)
        assert len(vertex._WICK_RUNS) == sum(
            (run & 0xFFFFFFFF) - (run >> 32) for run in self.values())

    def clear(self):
        self.clears_inside += self.factoring > 0
        super().clear()


class TestInterning:
    """States hold monomial ids from a table that no cache clear touches
    and that gives one id per monomial, also under threads; the mode cache
    is bounded, and gives the same products to threads that empty it under
    each other; printing does not depend on ids."""

    X = "t1*t2 d1 + t2^2 d2"
    Y = "t1^2 d2 - t2 d1"

    def test_ids_outlive_cache_clear(self, rng):
        x = parse_vector_field(self.X, 2, 6)
        y = parse_vector_field(self.Y, 2, 6)
        cases = [(random_state(rng, 2, POL, terms=3), rng.randint(-3, 3),
                  random_state(rng, 2, POL, terms=3)) for _ in range(20)]
        before = [format_state(mode_apply(a, m, v)) for a, m, v in cases]
        defect = format_state(msv_defect(x, y, cases[0][2]))
        clear_mode_cache()
        for (a, m, v), text in zip(cases, before):
            fresh_a = VAState(2, POL, a.mono_terms())
            fresh_v = VAState(2, POL, v.mono_terms())
            product = mode_apply(a, m, v)
            assert product == mode_apply(fresh_a, m, fresh_v)
            assert format_state(product) == text
        fresh_v = VAState(2, POL, cases[0][2].mono_terms())
        assert msv_defect(x, y, cases[0][2]) == msv_defect(x, y, fresh_v)
        assert format_state(msv_defect(x, y, fresh_v)) == defect

    @staticmethod
    def _recursive_defect(x, y, v):
        """msv_defect with every zero mode taken by the recursion."""
        def act(f, u):
            return recursion.mode_apply(tau_w(f, u.policy), 0, u)
        return act(x, act(y, v)) - act(y, act(x, v)) - \
            act(vf_bracket(x, y), v)

    def test_bounded_wick_cache_evicts_without_changing_results(
            self, monkeypatch):
        x = parse_vector_field(self.X, 2, 6)
        y = parse_vector_field(self.Y, 2, 6)
        pol = TruncationPolicy(8, 14)
        states = monomial_states(2, pol, 2, 2)
        clear_mode_cache()
        unbounded = [self._recursive_defect(x, y, v) for v in states]
        assert [msv_defect(x, y, v) for v in states] == unbounded
        assert vertex._MODE_CACHE and vertex._WICK_RUNS and vertex._SYM_CACHE
        clear_mode_cache()
        assert not (vertex._MODE_CACHE or vertex._WICK_RUNS
                    or vertex._SYM_CACHE)
        wick_cache = _WickDict()
        monkeypatch.setattr(vertex, "MODE_CACHE_SIZE", 16)
        monkeypatch.setattr(vertex, "_MODE_CACHE", wick_cache)
        factored = vertex._wick_factored

        def counted(*args):
            wick_cache.factoring += 1
            try:
                return factored(*args)
            finally:
                wick_cache.factoring -= 1

        monkeypatch.setattr(vertex, "_wick_factored", counted)
        assert [msv_defect(x, y, v) for v in states] == unbounded
        assert wick_cache.clears > 0 and 0 < wick_cache.peak <= 16
        assert wick_cache.clears_inside > 0
        clear_mode_cache()
        assert not wick_cache and not vertex._WICK_RUNS

    def test_concurrent_wick_products_with_evictions(self, monkeypatch):
        # a bound small enough that threads empty the mode cache, and its
        # runs, under each other's reads
        pol = TruncationPolicy(8, 14)
        states = monomial_states(2, pol, 2, 3)
        fields = [tau_w(x, pol) for x in basis_monomial_fields(2, 8, 3)]
        expected = [[recursion.mode_apply(a, 0, v) for v in states]
                    for a in fields]
        monkeypatch.setattr(vertex, "MODE_CACHE_SIZE", 16)
        clear_mode_cache()
        got = {}
        start = threading.Barrier(8, timeout=60)

        def work(seed):
            order = list(range(len(fields)))
            random.Random(seed).shuffle(order)
            start.wait()
            got[seed] = {i: [mode_apply(fields[i], 0, v) for v in states]
                         for i in order}

        threads = [threading.Thread(target=work, args=(seed,))
                   for seed in range(8)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert len(got) == 8
        for products in got.values():
            assert [products[i] for i in range(len(fields))] == expected

    def test_format_parse_round_trip(self, rng):
        for _ in range(60):
            n = rng.choice([1, 2, 3])
            v = random_state(rng, n, POL, max_weight=4, terms=4)
            text = format_state(v)
            assert format_state(parse_state(text, n, POL)) == text
            reordered = VAState(n, POL,
                                dict(reversed(list(v.mono_terms().items()))))
            assert format_state(reordered) == text

    def test_print_order_is_canonical_not_id_order(self):
        # built in reverse canonical order, so new ids run against it
        state = VAState.zero(3, POL)
        for k in (3, 2, 1):
            state = state + parse_state(f"b[3,-{k}]*c[3,-{12 - k}]", 3, POL)
        assert format_state(state) == ("b[3,-1]*c[3,-11] + b[3,-2]*c[3,-10]"
                                       " + b[3,-3]*c[3,-9]")

    def test_concurrent_interning_gives_one_id_per_monomial(self):
        # monomials of rank 8, which no other test builds, so most are new
        monos = enumerate_weight_monomials(8, 4)
        pol = TruncationPolicy(4, 0)
        built = {}
        start = threading.Barrier(8, timeout=60)

        def build(seed):
            order = list(monos)
            random.Random(seed).shuffle(order)
            start.wait()
            built[seed] = {m: VAState(8, pol, {m: 1}).terms for m in order}

        threads = [threading.Thread(target=build, args=(seed,))
                   for seed in range(8)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert len(built) == 8
        assert all(b == built[0] for b in built.values())
        assert len(vertex._IDS) == len(vertex._MONO)
        assert all(vertex._IDS[m] == i for i, m in enumerate(vertex._MONO))
        # every row's columns are those of its monomial
        assert len(vertex._WEIGHT) == len(vertex._C0) == len(vertex._MONO)
        for i, m in enumerate(vertex._MONO):
            assert vertex._WEIGHT[i] == -sum(s[2] for s in m)
            assert vertex._C0[i] == sum(1 for s in m
                                        if s[0] == KIND_C and s[2] == 0)
