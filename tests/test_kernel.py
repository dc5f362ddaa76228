"""The kernels: their bindings, the integer product and the sums of
products against the schoolbook product, the monomial tables, and the
canonical symbol order of state monomials."""

from fractions import Fraction as F
from unittest import mock

from hypothesis import example, given, settings, strategies as st

import formaldisk
from formaldisk import _kernel
from formaldisk._kernel import _pure
from formaldisk.jets import JetSeries
from tests.conftest import SU_JETS


def test_backend_reported():
    assert formaldisk.kernel_backend == "pure"
    for name in _kernel.__all__:
        assert getattr(_kernel, name) is getattr(_pure, name)
    # a profiler counts each by identity, so the two sums stay distinct
    assert _kernel.poly_axpy is not _kernel.state_axpy


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
S, U = JetSeries.variable(2, 2, 1), JetSeries.variable(2, 2, 2)


@st.composite
def operand_pairs(draw):
    """Two exponent-dict polynomials of one rank and an order.

    Exponents may exceed the order; coefficients are ints, integral and
    non-integral Fractions, mixed within an operand, or (in some draws)
    jets in (s, u) mixed with rationals.  The second operand is often
    the first with some signs flipped, so that products cancel.
    """
    n = draw(st.integers(1, 3))
    order = draw(st.integers(0, 6))
    coef = RATIONALS if draw(st.booleans()) else \
        st.one_of(RATIONALS, SU_JETS)
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
# nilpotent coefficients: s * s*u = 0 in (s, u)-jets at order 2
@example(({(0,): S, (1,): S}, {(0,): S * U, (2,): U}, 3))
@example(({(3, 0): 2, (0, 1): 1}, {(0, 0): 1, (1, 1): -1}, 2))
@example(({}, {(0, 0): 1}, 2))
def test_poly_mul_matches_schoolbook(case):
    _check_product(*case)


def _check_product(a, b, order):
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
    else:
        assert all(type(v) in (int, F, JetSeries) for v in out.values())


# (0, 3) lies above order 2, and in base 3 its key is the key of (1, 0)
COLLIDING = [({(1, 0): 1, (0, 3): 1}, {(0, 0): 1, (0, 1): 1}, 2)]


@settings(max_examples=100, deadline=None)
@given(st.lists(operand_pairs(), min_size=2, max_size=6))
@example(COLLIDING)
def test_tables_across_ranks_and_orders(batch):
    """Products of several ranks and orders in turn, in one process, so that
    each meets tables that earlier products (with exponents above their
    order among the operands) have filled; then the same products again."""
    for case in batch + batch:
        _check_product(*case)


@settings(max_examples=60, deadline=None)
@given(st.lists(operand_pairs(), min_size=2, max_size=6))
@example(COLLIDING)
def test_table_eviction(batch):
    """With a bound of eight entries the tables empty again and again; the
    products stay equal and no table grows past the bound."""
    with mock.patch.object(_pure, "MONO_TABLE_SIZE", 8), \
            mock.patch.object(_pure, "_TABLES", {}):
        for case in batch + batch:
            _check_product(*case)
            assert all(len(table) <= 8 for tables in _pure._TABLES.values()
                       for table in tables)


@st.composite
def dot_batches(draw):
    """Rows of operand pairs drawn from one pool of dicts, so that a dict
    meets itself, sits on both sides and recurs across rows.

    The pool holds rationals with mixed denominators or, in some draws,
    (s, u)-jets among them; it may hold an empty dict, and it holds the
    negation of its first dict, so that a row can cancel to zero.
    """
    n = draw(st.integers(1, 3))
    order = draw(st.integers(0, 5))
    coef = RATIONALS if draw(st.booleans()) else \
        st.one_of(RATIONALS, SU_JETS)
    exps = st.tuples(*[st.integers(0, order + 1)] * n)
    pool = draw(st.lists(st.dictionaries(exps, coef, max_size=6),
                         min_size=1, max_size=5))
    pool.append({e: -c for e, c in pool[0].items()})
    index = st.integers(0, len(pool) - 1)
    rows = draw(st.lists(st.lists(st.tuples(index, index), max_size=4),
                         max_size=5))
    if draw(st.booleans()):  # a row that cancels: a*b - a*b
        j = draw(index)
        rows.append([(0, j), (len(pool) - 1, j)])
    return [[(pool[i], pool[j]) for i, j in row] for row in rows], order


@settings(max_examples=300, deadline=None)
@given(dot_batches())
@example(([], 2))
@example(([[]], 2))
@example(([[({}, {(0, 0): 1})], [({(1, 0): F(1, 2)}, {})]], 2))
# mixed denominators in one row, summing to an integer
@example(([[({(1,): F(1, 2)}, {(1,): 1}), ({(1,): F(1, 3)}, {(1,): 3}),
            ({(0,): F(1, 6)}, {(2,): 3})]], 3))
# a rational row beside a jet row, sharing a dict
@example(([[({(1,): 2}, {(0,): F(1, 3), (1,): 1})],
           [({(1,): 2}, {(0,): S, (1,): 1})]], 2))
# jet products that cancel beside a rational one: the sum stores the
# rational 1 where the schoolbook sum keeps the constant jet 1
@example(([[({(1,): 1}, {(1,): U * U}), ({(1,): U * U}, {(1,): -1}),
            ({(1,): 1}, {(1,): 1})]], 2))
def test_poly_dots_matches_schoolbook_sums(batch):
    rows, order = batch
    before = [[(dict(a), dict(b)) for a, b in row] for row in rows]
    out = _pure.poly_dots(rows, order)
    assert [[(a, b) for a, b in row] for row in rows] == before
    assert len(out) == len(rows)
    for row, got in zip(rows, out):
        ref = {}
        for a, b in row:
            for e, c in _pure._poly_mul_generic(a, b, order).items():
                ref[e] = ref.get(e, 0) + c
        assert got == {e: c for e, c in ref.items() if c}
        assert all(got.values())
        # integral rationals are stored as int, on both paths
        assert all(type(v) in (int, JetSeries) or
                   (type(v) is F and v.denominator != 1)
                   for v in got.values())
