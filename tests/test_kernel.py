"""The kernels: the integer product against the schoolbook product, and
the compiled and pure kernels interchangeable."""

import random
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings, strategies as st

from formaldisk._kernel import BACKEND, _pure
from formaldisk.scalars import NilpotentPair

try:
    from formaldisk._kernel import _core
except ImportError:
    _core = None


def _rand_sym(rng, n):
    kind = rng.choice([0, 1])
    return (kind, rng.randint(1, n), rng.randint(-3, -1 if kind == 0 else 0))


def _rand_mono(rng, n):
    syms = [_rand_sym(rng, n) for _ in range(rng.randint(0, 4))]
    return tuple(sorted(syms, key=lambda s: (s[0], s[1], -s[2])))


@pytest.mark.skipif(_core is None, reason="compiled kernel not built")
class TestBackendsAgree:
    def test_poly_ops(self):
        rng = random.Random(3)
        for _ in range(150):
            n = rng.choice([1, 2, 3])

            def rand_poly():
                return {tuple(rng.randint(0, 3) for _ in range(n)):
                        F(rng.randint(-5, 5) or 1, rng.randint(1, 4))
                        for _ in range(rng.randint(1, 6))}

            a, b = rand_poly(), rand_poly()
            order = rng.randint(0, 6)
            assert _core.poly_mul(dict(a), dict(b), order) == \
                _pure.poly_mul(dict(a), dict(b), order)
            acc1, acc2 = dict(a), dict(a)
            _core.poly_axpy(acc1, b, F(2, 3))
            _pure.poly_axpy(acc2, b, F(2, 3))
            assert acc1 == acc2

    def test_state_ops(self):
        rng = random.Random(4)
        for _ in range(150):
            n = rng.choice([1, 2])
            data = {_rand_mono(rng, n): F(rng.randint(-4, 4) or 1)
                    for _ in range(rng.randint(1, 5))}
            sym = _rand_sym(rng, n)
            assert _core.state_mul_sym(data, sym) == \
                _pure.state_mul_sym(data, sym)
            for sign in (1, -1):
                assert _core.state_deriv_sym(data, sym, sign) == \
                    _pure.state_deriv_sym(data, sym, sign)
            acc1, acc2 = dict(data), dict(data)
            _core.state_axpy(acc1, data, F(3))
            _pure.state_axpy(acc2, data, F(3))
            assert acc1 == acc2


def test_backend_reported():
    assert BACKEND in ("compiled", "pure")


def test_mul_sym_keeps_canonical_order():
    data = {((0, 1, -1), (1, 1, 0)): F(1)}
    out = _pure.state_mul_sym(data, (0, 1, -2))
    (mono,) = out
    keys = [(s[0], s[1], -s[2]) for s in mono]
    assert keys == sorted(keys)


RATIONALS = st.one_of(
    st.integers(-3, 3),
    st.integers(-3, 3).map(F),
    st.fractions(min_value=-3, max_value=3, max_denominator=6))
SQUARE_ZERO = st.builds(NilpotentPair, *[st.integers(-2, 2)] * 4)


@st.composite
def operand_pairs(draw):
    """Two exponent-dict polynomials of one rank and an order.

    Exponents may exceed the order; coefficients are ints, integral and
    non-integral Fractions, mixed within an operand, or (in some draws)
    square-zero pairs mixed with rationals.  The second operand is often
    the first with some signs flipped, so that products cancel.
    """
    n = draw(st.integers(1, 3))
    order = draw(st.integers(0, 6))
    coef = RATIONALS if draw(st.booleans()) else \
        st.one_of(RATIONALS, SQUARE_ZERO)
    exps = st.tuples(*[st.integers(0, order + 1)] * n)
    poly = st.dictionaries(exps, coef, max_size=8)
    a = draw(poly)
    if a and draw(st.booleans()):
        flips = draw(st.lists(st.booleans(), min_size=len(a),
                              max_size=len(a)))
        b = {e: -c if flip else c for (e, c), flip in zip(a.items(), flips)}
    else:
        b = draw(poly)
    return a, b, order


@settings(max_examples=400, deadline=None)
@given(operand_pairs())
@example(({(1, 0): 1, (0, 1): F(1, 2)}, {(1, 0): 1, (0, 1): F(-1, 2)}, 2))
@example(({(0,): NilpotentPair.S, (1,): NilpotentPair.S},
          {(0,): NilpotentPair.S, (2,): NilpotentPair.U}, 3))
@example(({(3, 0): 2, (0, 1): 1}, {(0, 0): 1, (1, 1): -1}, 2))
@example(({}, {(0, 0): 1}, 2))
def test_poly_mul_matches_schoolbook(case):
    a, b, order = case
    a0, b0 = dict(a), dict(b)
    out = _pure.poly_mul(a, b, order)
    assert (a, b) == (a0, b0)
    assert out == _pure._poly_mul_generic(a0, b0, order)
    assert all(v for v in out.values())
    assert not any(isinstance(v, float) for v in out.values())
    if all(isinstance(c, (int, F)) for c in [*a.values(), *b.values()]):
        # exact rationals come back as int whenever they are integral
        assert all(type(v) is int or (type(v) is F and v.denominator != 1)
                   for v in out.values())

