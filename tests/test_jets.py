"""Formal-geometry layer: ring, calculus, jets of automorphisms."""

import random
from fractions import Fraction as F
from itertools import combinations, permutations

import pytest
from hypothesis import given, settings, strategies as st

from formaldisk.errors import ClosednessError, InvertibilityError, ShapeError
from formaldisk.jets import (FormalForm, FormalVectorField, FormMatrix,
                             JetAutomorphism, JetMatrix, JetSeries,
                             basis_monomial_fields, contract, de_rham,
                             integrate_var, jacobian, jet_compose, jet_invert,
                             lie_derivative, matrix_products,
                             poincare_homotopy, pullback_form, pullback_jet,
                             staircase_primitive, trace_products, wedge)
from formaldisk.jets import Substitution, _matrix_inverse
from formaldisk.scalars import one_of
from tests.conftest import SU_JETS

T1 = JetSeries.variable(2, 3, 1)
T2 = JetSeries.variable(2, 3, 2)
ONE2 = JetSeries.one(2, 3)


def jets_strategy(n, order, max_terms=4):
    exps = st.tuples(*[st.integers(0, order) for _ in range(n)])
    coef = st.fractions(min_value=-4, max_value=4, max_denominator=6)
    return st.dictionaries(exps, coef, max_size=max_terms).map(
        lambda d: JetSeries(n, order, d))


class TestJetSeries:
    def test_difference_of_squares(self):
        assert (ONE2 + T1) * (ONE2 - T1) == ONE2 - T1 * T1

    def test_truncation_kills_top_degree(self):
        t = JetSeries.variable(1, 1, 1)
        assert (t * t).is_zero()

    def test_binomial_square(self):
        assert (T1 + T2) ** 2 == T1 * T1 + (T1 * T2).scale(2) + T2 * T2

    def test_shape_errors(self):
        with pytest.raises(ShapeError):
            T1 * JetSeries.variable(2, 4, 1)
        with pytest.raises(ShapeError):
            T1 * JetSeries.variable(1, 3, 1)

    def test_partial_examples(self):
        assert (T1 * T1 * T2).partial(1) == (T1 * T2).scale(2)
        assert T1.partial(2).is_zero()
        t = JetSeries.variable(1, 3, 1)
        assert (t ** 3).partial(1) == (t * t).scale(3)
        with pytest.raises(ShapeError):
            T1.partial(3)

    @settings(max_examples=60, deadline=None)
    @given(jets_strategy(2, 4), jets_strategy(2, 4), jets_strategy(2, 4))
    def test_ring_axioms(self, a, b, c):
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c

    @settings(max_examples=40, deadline=None)
    @given(jets_strategy(2, 4), jets_strategy(2, 4))
    def test_leibniz(self, a, b):
        for i in (1, 2):
            lhs = (a * b).partial(i)
            rhs = a.partial(i) * b + a * b.partial(i)
            # the product rule loses the top order of the product
            assert lhs.with_order(3) == rhs.with_order(3)

    @settings(max_examples=100, deadline=None)
    @given(jets_strategy(2, 4), jets_strategy(2, 4))
    def test_difference_is_sum_with_negation(self, a, b):
        before = dict(a.coeffs), dict(b.coeffs)
        diff, ref = a - b, a + (-b)
        assert diff.coeffs == ref.coeffs
        assert {e: type(c) for e, c in diff.coeffs.items()} == \
            {e: type(c) for e, c in ref.coeffs.items()}
        assert (a.coeffs, b.coeffs) == before
        assert (a - a).coeffs == {}
        assert a - F(1, 2) == a + F(-1, 2)

    @given(SU_JETS, SU_JETS, SU_JETS)
    def test_difference_with_jet_coefficients(self, x, y, z):
        a = JetSeries(1, 3, {(1,): x, (2,): y})
        b = JetSeries(1, 3, {(1,): z, (0,): y})
        assert (a - b).coeffs == (a + (-b)).coeffs

    def test_integrate_var_inverts_partial(self):
        f = T1 * T2 + T2 ** 2
        g = integrate_var(f, 1)
        assert g.partial(1).with_order(3) == f

    def test_no_zero_coefficients_stored(self):
        f = T1 - T1
        assert f.coeffs == {}
        g = JetSeries(2, 3, {(1, 0): F(0), (0, 1): F(2)})
        assert (1, 0) not in g.coeffs

    def test_constructor_stores_integral_coefficients_as_int(self):
        f = JetSeries.monomial(2, 3, (1, 1), F(2))
        assert type(f.coeffs[(1, 1)]) is int
        g = JetSeries(2, 3, {(0, 0): F(6, 3), (0, 1): F(1, 2), (1, 0): "4/2"})
        assert [type(g.coeffs[e]) for e in ((0, 0), (0, 1), (1, 0))] == \
            [int, F, int]

    def test_scale_stores_integral_coefficients_as_int(self):
        f = JetSeries.variable(1, 2, 1).scale(F(1, 2)).scale(2)
        assert f.coeffs == {(1,): 1} and type(f.coeffs[(1,)]) is int
        g = JetSeries(2, 3, {(0, 0): F(2, 3), (0, 1): F(1, 3)}).scale(F(3, 2))
        assert [type(g.coeffs[e]) for e in ((0, 0), (0, 1))] == [int, F]

    def test_every_operation_stores_integral_coefficients_as_int(self):
        half = JetSeries(1, 3, {(1,): F(1, 2)})
        t = JetSeries.variable(1, 3, 1)
        w = FormalForm(2, 3, 2, {(1, 2): JetSeries(2, 3, {(1, 0): 2})})
        cases = {
            "sum": (half + half, {(1,): 1}),
            "partial": (JetSeries(1, 3, {(2,): F(1, 2)}).partial(1),
                        {(1,): 1}),
            "integral": (integrate_var(JetSeries(1, 3, {(1,): 2}), 1),
                         {(2,): 1}),
            "staircase": (staircase_primitive(w).component((2,)),
                          {(2, 0): 1}),
            "substitution": (half.subs((t.scale(2),)), {(1,): 1}),
        }
        for name, (f, coeffs) in cases.items():
            assert f.coeffs == coeffs, name
            assert all(type(c) is int for c in f.coeffs.values()), name


class TestForms:
    def test_de_rham_examples(self):
        w = FormalForm(2, 3, 1, {(1,): T1 * T2})  # t1 t2 dt1
        assert de_rham(w) == FormalForm(2, 3, 2, {(1, 2): -T1})
        f = FormalForm.from_jet(T1 * T1)
        assert de_rham(f) == FormalForm(2, 3, 1, {(1,): T1.scale(2)})
        const2 = wedge(FormalForm.dt(2, 3, 1), FormalForm.dt(2, 3, 2))
        assert de_rham(const2).is_zero()

    def test_wedge_examples(self):
        dt1, dt2 = FormalForm.dt(2, 3, 1), FormalForm.dt(2, 3, 2)
        assert wedge(dt1, dt1).is_zero()
        assert wedge(dt1, dt2) == FormalForm(2, 3, 2, {(1, 2): ONE2})
        a = dt2.scale_jet(T1)
        b = dt1.scale_jet(T2)
        assert wedge(a, b) == FormalForm(2, 3, 2, {(1, 2): -(T1 * T2)})

    def test_wedge_index_against_permutation_parity(self):
        """Every pair of increasing index tuples up to rank 5: None when
        they share an index, else the merged tuple and the sign of the
        permutation sorting their concatenation, counted by its cycles."""
        from formaldisk.jets import _wedge_index
        tuples = [c for k in range(6) for c in combinations(range(1, 6), k)]
        for i in tuples:
            for j in tuples:
                cat = i + j
                if len(set(cat)) < len(cat):
                    assert _wedge_index(i, j) is None
                    continue
                perm = sorted(range(len(cat)), key=cat.__getitem__)
                seen, cycles = set(), 0
                for start in range(len(perm)):
                    if start in seen:
                        continue
                    cycles += 1
                    k = start
                    while k not in seen:
                        seen.add(k)
                        k = perm[k]
                transpositions = len(perm) - cycles
                assert _wedge_index(i, j) == ((-1) ** transpositions,
                                              tuple(sorted(cat)))

    @settings(max_examples=40, deadline=None)
    @given(jets_strategy(3, 3), jets_strategy(3, 3))
    def test_d_squared_zero_and_graded_commutativity(self, f, g):
        w1 = FormalForm(3, 3, 1, {(1,): f, (3,): g})
        assert de_rham(de_rham(w1)).is_zero()
        w0 = FormalForm.from_jet(g)
        assert de_rham(de_rham(w0)).is_zero()
        w2 = FormalForm(3, 3, 2, {(1, 2): f, (2, 3): g})
        assert wedge(w1, w2) == wedge(w2, w1)  # odd*even
        sign_flip = wedge(w1, de_rham(w0))
        assert sign_flip == wedge(de_rham(w0), w1).scale(-1)

    def test_top_degree_collapse(self):
        dt1, dt2 = FormalForm.dt(2, 3, 1), FormalForm.dt(2, 3, 2)
        top = wedge(dt1, dt2)
        assert wedge(top, dt1).is_zero()

    def test_degrees_above_the_rank(self):
        """Every operation returns the degree its algebra gives; above the
        rank that is the zero form of that degree."""
        dt = FormalForm.dt(1, 3, 1)
        t = FormalForm.from_jet(JetSeries.variable(1, 3, 1))
        for form, degree in ((wedge(dt, dt), 2), (de_rham(dt), 2),
                             (de_rham(wedge(t, dt)), 2),
                             (wedge(wedge(dt, dt), dt), 3),
                             (wedge(t, wedge(dt, dt)), 2)):
            assert form.is_zero()
            assert form.degree == degree
        top = wedge(FormalForm.dt(2, 3, 1), FormalForm.dt(2, 3, 2))
        assert de_rham(top.scale_jet(T1)).degree == 3
        assert wedge(top, top).degree == 4

    def test_zero_forms_hash_alike(self):
        zeros = [FormalForm.zero(2, 3, k) for k in range(5)]
        assert len(set(zeros)) == 1
        assert {hash(z) for z in zeros} == {hash(zeros[0])}
        assert FormalForm.zero(2, 3, 1) != FormalForm.zero(2, 4, 1)


class TestVectorFields:
    def test_bracket_examples(self):
        from formaldisk.jets import vf_bracket
        t = JetSeries.variable(1, 3, 1)
        x = FormalVectorField(1, 3, [t])
        y = FormalVectorField(1, 3, [t * t])
        assert vf_bracket(x, y) == y
        assert vf_bracket(FormalVectorField.monomial(2, 3, (0, 0), 1),
                          FormalVectorField.monomial(2, 3, (0, 0), 2)).is_zero()
        b = vf_bracket(FormalVectorField.monomial(2, 3, (0, 1), 1),
                       FormalVectorField.monomial(2, 3, (1, 0), 2))
        expected = FormalVectorField(2, 3, [-T1, T2])
        assert b == expected

    def test_antisymmetry_and_jacobi(self, rng):
        from formaldisk.jets import vf_bracket
        fields = basis_monomial_fields(2, 5, 2)
        for _ in range(25):
            x, y, z = (rng.choice(fields) for _ in range(3))
            assert vf_bracket(x, y) == -vf_bracket(y, x)
            j = vf_bracket(vf_bracket(x, y), z) + \
                vf_bracket(vf_bracket(y, z), x) + \
                vf_bracket(vf_bracket(z, x), y)
            # one derivative consumed per bracket: compare below top order
            assert all(f.with_order(3).is_zero() for f in j.comps)

    def test_lie_derivative_examples(self):
        t = JetSeries.variable(1, 3, 1)
        euler = FormalVectorField(1, 3, [t])
        dt = FormalForm.dt(1, 3, 1)
        assert lie_derivative(euler, dt) == dt
        d1 = FormalVectorField.monomial(2, 3, (0, 0), 1)
        w = FormalForm(2, 3, 1, {(2,): T1})
        assert lie_derivative(d1, w) == FormalForm.dt(2, 3, 2)
        shear = FormalVectorField.monomial(2, 3, (1, 0), 2)
        vol = wedge(FormalForm.dt(2, 3, 1), FormalForm.dt(2, 3, 2))
        assert lie_derivative(shear, vol).is_zero()

    def test_lie_derivative_properties(self, rng):
        from formaldisk.jets import vf_bracket
        fields = basis_monomial_fields(2, 6, 2)
        for _ in range(10):
            x, y = rng.choice(fields), rng.choice(fields)
            w = FormalForm(2, 6, 1, {(1,): T1.with_order(6) * T2.with_order(6),
                                     (2,): JetSeries.variable(2, 6, 2) ** 2})
            lhs = lie_derivative(x, de_rham(w))
            rhs = de_rham(lie_derivative(x, w))
            assert lhs.with_order(4) == rhs.with_order(4)
            comm = lie_derivative(x, lie_derivative(y, w)) - \
                lie_derivative(y, lie_derivative(x, w))
            brk = lie_derivative(vf_bracket(x, y), w)
            assert comm.with_order(4) == brk.with_order(4)

    def test_lie_derivative_is_wedge_derivation(self, rng):
        fields = basis_monomial_fields(2, 6, 2)
        eta = FormalForm.dt(2, 6, 2).scale_jet(T1.with_order(6))
        for _ in range(10):
            x = rng.choice(fields)
            w = FormalForm(2, 6, 1, {(1,): (T2 * T2).with_order(6)})
            lhs = lie_derivative(x, wedge(w, eta))
            rhs = wedge(lie_derivative(x, w), eta) + \
                wedge(w, lie_derivative(x, eta))
            assert lhs.with_order(4) == rhs.with_order(4)


class TestAutomorphisms:
    def test_compose_examples(self):
        t = JetSeries.variable(1, 3, 1)
        phi = JetAutomorphism(1, 3, [t + t * t])
        idn = JetAutomorphism.identity(1, 3)
        assert jet_compose(idn, phi) == phi
        comp = jet_compose(phi, phi)
        assert comp.comps[0] == t + (t * t).scale(2) + (t ** 3).scale(2)

    def test_only_matrices_are_inverted(self):
        with pytest.raises(ShapeError):
            jet_invert(JetAutomorphism.identity(1, 3))

    def test_constant_term_rejected(self):
        t = JetSeries.variable(1, 3, 1)
        with pytest.raises(InvertibilityError):
            JetAutomorphism(1, 3, [t + JetSeries.one(1, 3)])

    def test_jacobian_examples(self):
        psi = JetAutomorphism(2, 3, [T1 + T2 * T2, T2])
        jac = jacobian(psi)
        assert jac.entries[0][0] == ONE2
        assert jac.entries[0][1] == T2.scale(2)
        assert jac.entries[1][0].is_zero()
        assert jac.entries[1][1] == ONE2
        assert jacobian(JetAutomorphism.identity(2, 3)) == \
            JetMatrix.identity(2, 3)
        t = JetSeries.variable(1, 3, 1)
        j1 = jacobian(JetAutomorphism(1, 3, [t + t * t]))
        assert j1.entries[0][0] == JetSeries.one(1, 3) + t.scale(2)

    def test_chain_rule(self, rng):
        from tests.conftest import random_unipotent
        for n in (2, 3):
            f1 = random_unipotent(rng, n, 4)
            f2 = random_unipotent(rng, n, 4)
            comp = jet_compose(f2, f1)
            lhs = jacobian(comp)
            g2_pulled = jacobian(f2).map_entries(
                lambda e: e.subs(tuple(f1.comps)))
            rhs = g2_pulled * jacobian(f1)
            # substitution consumed one order of the top coefficients
            assert all(a.with_order(3) == b.with_order(3)
                       for ra, rb in zip(lhs.entries, rhs.entries)
                       for a, b in zip(ra, rb))

    def test_matrix_inverse(self):
        m = JetMatrix(2, 3, [[ONE2, T2.scale(2)],
                             [JetSeries.zero(2, 3), ONE2]])
        inv = jet_invert(m)
        assert inv.entries[0][1] == T2.scale(-2)
        assert m * inv == JetMatrix.identity(2, 3)
        assert inv * m == JetMatrix.identity(2, 3)
        assert jet_invert(JetMatrix.identity(2, 3)) == JetMatrix.identity(2, 3)

    def test_singular_rejection(self):
        z = JetSeries.zero(2, 3)
        with pytest.raises(InvertibilityError):
            jet_invert(JetMatrix(2, 3, [[T1, z], [z, ONE2]]))
        with pytest.raises(InvertibilityError):
            JetAutomorphism(2, 3, [T1, T1])

    @settings(max_examples=30, deadline=None)
    @given(st.data())
    def test_matrix_product_against_entry_sums(self, data):
        n = data.draw(st.integers(1, 3))
        zero = JetSeries.zero(n, 2)
        entry = st.one_of(st.just(zero), jets_strategy(n, 2))

        def matrix():
            return JetMatrix(n, 2, [[data.draw(entry) for _ in range(n)]
                                    for _ in range(n)])

        a, b = matrix(), matrix()
        rows = range(n)
        assert (a * b).entries == [
            [sum((a.entries[i][k] * b.entries[k][j] for k in rows), zero)
             for j in rows] for i in rows]
        assert a + JetMatrix.zero(n, 2) == a
        # a batch shares its operands and gives each product and trace alone
        c = matrix()
        pairs = [(a, b), (b, a), (a, c), (c, c)]
        assert matrix_products(pairs) == [x * y for x, y in pairs]
        assert trace_products(pairs) == [
            sum(((x * y).entries[i][i] for i in rows), zero)
            for x, y in pairs]
        assert matrix_products([]) == trace_products([]) == []

    def test_matrix_product_skips_zero_factors(self, monkeypatch):
        from formaldisk import _kernel
        m = JetMatrix(2, 3, [[T1 + ONE2, T2], [T1 * T2, ONE2 - T2]])
        pairs = []
        real = _kernel.poly_dots

        def counting(rows, order):
            pairs.extend(pair for row in rows for pair in row)
            return real(rows, order)

        monkeypatch.setattr(_kernel, "poly_dots", counting)
        assert JetMatrix.identity(2, 3) * m == m
        # one product per entry of m, none with an off-diagonal zero
        assert len(pairs) == 4
        assert all(a and b for a, b in pairs)


# coefficient rings of the inverse tests, each with its one: Q as int and as
# Fraction, and the jets in (s, u) at order 2
RINGS = {
    "int": (st.integers(-2, 2), 1),
    "fraction": (st.fractions(min_value=-2, max_value=2, max_denominator=3),
                 1),
    "su": (SU_JETS, JetSeries.one(2, 2)),
}


def ring_jets(data, n, order):
    """A strategy for jets over a drawn ring, constant term drawn apart so
    that units are common, and the ring's one."""
    coef, one = RINGS[data.draw(st.sampled_from(sorted(RINGS)))]
    exps = st.tuples(*[st.integers(0, order)] * n)
    jets = st.tuples(st.dictionaries(exps, coef, max_size=3), coef).map(
        lambda p: JetSeries(n, order, p[0]) + JetSeries.const(n, order, p[1]))
    return jets, one


def body(c):
    """The residue of a coefficient in Q (the constant term of a jet)."""
    return c.constant_term() if isinstance(c, JetSeries) else c


def leibniz_det(rows):
    n = len(rows)
    total = 0
    for p in permutations(range(n)):
        term = (-1) ** sum(p[i] > p[j] for i in range(n)
                           for j in range(i + 1, n))
        for i in range(n):
            term *= rows[i][p[i]]
        total += term
    return total


class TestInverse:
    """Jet units and the one matrix inverse, over each coefficient ring."""

    @settings(max_examples=80, deadline=None)
    @given(st.data())
    def test_matrix_inverse_over_each_ring(self, data):
        n, order = data.draw(st.integers(1, 3)), data.draw(st.integers(0, 4))
        entry, one = ring_jets(data, n, order)
        rows = [[data.draw(entry) for _ in range(n)] for _ in range(n)]
        if data.draw(st.booleans()):
            # a zero constant at [0][0]: an invertible matrix needs a swap
            f = rows[0][0]
            rows[0][0] = f - JetSeries.const(n, order, f.constant_term())
        m = JetMatrix(n, order, rows)
        if not leibniz_det([[body(f.constant_term()) for f in row]
                            for row in rows]):
            with pytest.raises(InvertibilityError):
                jet_invert(m)
            return
        inv = jet_invert(m)
        ident = JetMatrix(n, order, [[JetSeries.const(n, order, one)
                                      if i == j else JetSeries.zero(n, order)
                                      for j in range(n)] for i in range(n)])
        assert m * inv == ident
        assert inv * m == ident

    def test_identity_takes_the_entries_one(self):
        # over jets of jets, one is the constant jet of the coefficients'
        # one; it equals the constant jet of the rational one, and a
        # constant jet equals its constant, with equal hashes
        one = JetSeries.const(1, 3, JetSeries.one(2, 2))
        assert one == JetSeries.one(1, 3)
        assert hash(one) == hash(JetSeries.one(1, 3)) == hash(1)
        assert JetSeries.one(2, 2) == 1 and JetSeries.zero(2, 2) == 0
        assert JetSeries.const(2, 2, F(1, 2)) == F(1, 2)
        assert JetSeries.variable(2, 2, 1) != 0
        assert JetSeries.one(2, 2) + JetSeries.variable(2, 2, 1) != 1
        assert one_of(one) == one
        assert type(one_of(one).constant_term()) is JetSeries
        assert one_of(F(2, 3)) == 1 and type(one_of(F(2, 3))) is F
        assert one_of(JetSeries.variable(2, 2, 1)) == JetSeries.one(2, 2)
        u = JetSeries(1, 3, {(0,): JetSeries.const(2, 2, 2),
                             (1,): JetSeries.variable(2, 2, 1)})
        zero = u * 0
        inv = _matrix_inverse([[zero, u], [u, u]])
        assert [[sum((x * y for x, y in zip(row, col)), zero)
                 for col in zip(*inv)] for row in ([zero, u], [u, u])] == \
            [[one, zero], [zero, one]]

    def test_matrix_inverse_swaps_rows(self):
        m = JetMatrix(2, 3, [[T1, ONE2 + T2], [ONE2.scale(2), T1 * T2]])
        inv = jet_invert(m)
        assert m * inv == JetMatrix.identity(2, 3) == inv * m

    @settings(max_examples=80, deadline=None)
    @given(st.data())
    def test_series_inverse_over_each_ring(self, data):
        n, order = data.draw(st.integers(1, 3)), data.draw(st.integers(0, 4))
        entry, one = ring_jets(data, n, order)
        f = data.draw(entry)
        if not body(f.constant_term()):
            assert not f.is_unit()
            with pytest.raises(InvertibilityError):
                f.inverse()
            return
        assert f.is_unit()
        assert f * f.inverse() == JetSeries.const(n, order, one)


class TestHomotopy:
    def test_examples(self):
        dt = FormalForm.dt(1, 3, 1)
        t = JetSeries.variable(1, 4, 1)
        assert poincare_homotopy(dt) == FormalForm.from_jet(t)
        vol = wedge(FormalForm.dt(2, 3, 1), FormalForm.dt(2, 3, 2))
        h = poincare_homotopy(vol)
        t14 = JetSeries.variable(2, 4, 1)
        t24 = JetSeries.variable(2, 4, 2)
        assert h == FormalForm(2, 4, 1, {(1,): t24.scale(F(-1, 2)),
                                         (2,): t14.scale(F(1, 2))})
        w = FormalForm(1, 3, 1, {(1,): JetSeries.variable(1, 3, 1).scale(2)})
        assert poincare_homotopy(w) == FormalForm.from_jet(t * t)

    def test_homotopy_splits_d(self, rng):
        for _ in range(15):
            n = rng.choice([2, 3])
            comps = {}
            for idx in [(1,), (2,)]:
                e = tuple(rng.randint(0, 2) for _ in range(n))
                comps[idx] = JetSeries.monomial(n, 4, e, F(rng.randint(1, 3)))
            theta = FormalForm(n, 4, 1, comps)
            w = de_rham(theta)
            if w.is_zero():
                continue
            h = poincare_homotopy(w)
            assert de_rham(h).with_order(4) == w
            s = staircase_primitive(w)
            assert de_rham(s).with_order(4) == w

    def test_int_coefficients_divide_exactly(self, rng):
        def coeffs(w):
            return [c for f in w.comps.values() for c in f.coeffs.values()]

        g = integrate_var(JetSeries(1, 3, {(1,): 1}), 1)
        assert g.coeffs == {(2,): F(1, 2)}
        assert type(g.coeffs[(2,)]) is F
        vol = FormalForm(2, 3, 2, {(1, 2): JetSeries(2, 3, {(0, 0): 1})})
        h = poincare_homotopy(vol)
        assert h == FormalForm(2, 4, 1, {
            (1,): JetSeries(2, 4, {(0, 1): F(-1, 2)}),
            (2,): JetSeries(2, 4, {(1, 0): F(1, 2)})})
        assert all(type(c) in (int, F) for c in coeffs(h))
        for _ in range(15):
            n = rng.choice([2, 3])
            theta = FormalForm(n, 4, 1, {
                (i,): JetSeries.monomial(
                    n, 4, tuple(rng.randint(0, 2) for _ in range(n)),
                    rng.choice([-3, -2, -1, 1, 2, 3]))
                for i in range(1, n + 1)})
            w = de_rham(theta)
            if w.is_zero():
                continue
            for prim in (poincare_homotopy(w), staircase_primitive(w)):
                assert all(type(c) in (int, F) for c in coeffs(prim))
                assert de_rham(prim) == w.with_order(5)

    @settings(max_examples=30, deadline=None)
    @given(st.data())
    def test_primitives_over_jet_coefficients(self, data):
        # the coefficients are jets in (s, u), divided by scaling them
        n = data.draw(st.integers(2, 3))
        exps = st.tuples(*[st.integers(0, 2)] * n)
        theta = FormalForm(n, 3, 1, {
            (i,): JetSeries(n, 3, data.draw(
                st.dictionaries(exps, SU_JETS, max_size=3)))
            for i in range(1, n + 1)})
        w = de_rham(theta)
        for prim in (poincare_homotopy(w), staircase_primitive(w)):
            assert de_rham(prim) == w.with_order(4)

    def test_closedness_enforced(self):
        w = FormalForm(2, 3, 1, {(1,): T2})  # t2 dt1 is not closed
        with pytest.raises(ClosednessError):
            poincare_homotopy(w)
        # f dt1^dt2 with df having a dt3 part is not closed in rank 3
        t3 = JetSeries.variable(3, 3, 3)
        with pytest.raises(ClosednessError):
            staircase_primitive(FormalForm(3, 3, 2, {(1, 2): t3}))


def naive_subs(f, args, order):
    """sum_e c_e prod_i args_i ** e_i, each term built on its own."""
    out = JetSeries.zero(args[0].n, order)
    for e, c in f.coeffs.items():
        term = JetSeries.one(args[0].n, order)
        for g, k in zip(args, e):
            term = term * g.with_order(order) ** k
        out = out + term.scale(c)
    return out


@st.composite
def substitutions(draw):
    """(jets f, g in n variables, n args in m variables with zero constant
    terms, order), with int or Fraction coefficients."""
    n, m = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    order = draw(st.integers(2, 4))
    coef = draw(st.sampled_from([
        st.integers(-3, 3),
        st.fractions(min_value=-3, max_value=3, max_denominator=4)]))

    def jet(rank, low, size):
        exps = st.tuples(*[st.integers(0, order)] * rank).filter(
            lambda e: low <= sum(e) <= order)
        return JetSeries(rank, order,
                         draw(st.dictionaries(exps, coef, max_size=size)))

    args = tuple(jet(m, 1, 4) for _ in range(n))
    return jet(n, 0, 6), jet(n, 0, 6), args, order


class TestSubstitution:
    @settings(max_examples=60, deadline=None)
    @given(substitutions())
    def test_against_naive_products(self, case):
        f, g, args, order = case
        sub = Substitution(args, order)
        # the monomials f builds are reused for g
        assert sub.jet(f) == naive_subs(f, args, order)
        assert sub.jet(g) == naive_subs(g, args, order)
        assert f.subs(args) == naive_subs(f, args, order)

    @settings(max_examples=30, deadline=None)
    @given(st.data())
    def test_compose_and_pullback_against_naive(self, data):
        n, order = data.draw(st.integers(1, 3)), data.draw(st.integers(2, 4))
        coef = st.fractions(min_value=-2, max_value=2, max_denominator=3)
        unit = st.sampled_from([-2, -1, F(1, 2), 1, 2])
        exps = st.tuples(*[st.integers(0, order)] * n).filter(
            lambda e: 2 <= sum(e) <= order)

        def automorphism():
            # lower-triangular linear part with a unit diagonal: invertible,
            # not unipotent
            comps = []
            for i in range(n):
                lin = {tuple(int(k == j) for k in range(n)):
                       data.draw(unit if j == i else coef)
                       for j in range(i + 1)}
                high = data.draw(st.dictionaries(exps, coef, max_size=3))
                comps.append(JetSeries(n, order, {**high, **lin}))
            return JetAutomorphism(n, order, comps)

        phi, outer = automorphism(), automorphism()
        g = JetSeries(n, order, data.draw(st.dictionaries(
            st.tuples(*[st.integers(0, order)] * n), coef, max_size=6)))
        assert jet_compose(outer, phi).comps == \
            [naive_subs(c, phi.comps, order) for c in outer.comps]
        pulled = naive_subs(g, phi.comps, order)
        assert pullback_jet(phi, g) == pulled
        # phi^*(g dt_n) = (g o phi) sum_i d_i phi_n dt_i
        w = FormalForm(n, order, 1, {(n,): g})
        assert pullback_form(phi, w) == FormalForm(n, order, 1, {
            (i,): pulled * phi.comps[n - 1].partial(i)
            for i in range(1, n + 1)})

    def test_constant_term_rejected(self):
        t = JetSeries.variable(1, 3, 1)
        f = t * t
        for bad in (t + 1, t + F(1, 2), JetSeries.one(1, 3)):
            with pytest.raises(InvertibilityError):
                f.subs((bad,))
            with pytest.raises(InvertibilityError):
                Substitution((bad,), 3)
        inner = JetAutomorphism(1, 3, [t])
        inner.comps[0] = t + 1  # bypasses the constructor's check
        with pytest.raises(InvertibilityError):
            jet_compose(JetAutomorphism(1, 3, [t + f]), inner)

    def test_shape_errors(self):
        t1, t2 = JetSeries.variable(2, 3, 1), JetSeries.variable(2, 3, 2)
        with pytest.raises(ShapeError):
            t1.subs((t1,))
        with pytest.raises(ShapeError):
            Substitution((t1, JetSeries.variable(2, 4, 2)), 3)
        with pytest.raises(ShapeError):
            Substitution((t1, t2), 3).jet(JetSeries.variable(1, 3, 1))


class TestPullback:
    def test_pullback_multiplicative(self, rng):
        from tests.conftest import random_unipotent
        phi = random_unipotent(rng, 2, 5)
        f, g = T1.with_order(5), (T2 * T2).with_order(5)
        from formaldisk.jets import pullback_jet
        assert pullback_jet(phi, f * g).with_order(3) == \
            (pullback_jet(phi, f) * pullback_jet(phi, g)).with_order(3)

    def test_pullback_commutes_with_d(self, rng):
        from tests.conftest import random_unipotent
        phi = random_unipotent(rng, 2, 5)
        w = FormalForm(2, 5, 1, {(1,): (T1 * T2).with_order(5)})
        lhs = de_rham(pullback_form(phi, w))
        rhs = pullback_form(phi, de_rham(w))
        assert lhs.with_order(3) == rhs.with_order(3)

    def test_lower_form_order_keeps_high_terms_of_phi(self):
        # d phi at order 3 needs phi's degree-4 terms: the pullback at the
        # form's order is the order-5 pullback truncated
        t1, t2 = T1.with_order(5), T2.with_order(5)
        phi = JetAutomorphism(2, 5, [t1 + t2 ** 4, t2 - (t1 ** 3) * t2])
        w = FormalForm(2, 3, 1, {(1,): ONE2 + T2, (2,): T1 * T2})
        assert pullback_form(phi, w) == \
            pullback_form(phi, w.with_order(5)).with_order(3)

    def test_contract_antiderivation(self):
        x = FormalVectorField.monomial(2, 4, (1, 0), 1)
        w = FormalForm(2, 4, 1, {(2,): T1.with_order(4)})
        v = FormalForm.dt(2, 4, 1)
        lhs = contract(x, wedge(w, v))
        rhs = wedge(contract(x, w), v) - wedge(w, contract(x, v))
        assert lhs == rhs


@st.composite
def form_matrix_pair(draw):
    """A matrix of one-forms and one of zero-forms, rank 2 or 3, with most
    entries zero."""
    n = draw(st.integers(2, 3))
    jet = jets_strategy(n, 2, max_terms=2)
    maybe = st.one_of(st.just(JetSeries.zero(n, 2)), jet)

    def forms(degree):
        idx = [(i,) for i in range(1, n + 1)] if degree else [()]
        return FormMatrix(n, 2, [
            [FormalForm(n, 2, degree, {i: draw(maybe) for i in idx})
             for _ in range(n)] for _ in range(n)])

    return forms(1), forms(0)


class TestFormMatrix:
    """The product against explicit entry sums over every k, with 0-form
    operands on either side."""

    @settings(max_examples=40, deadline=None)
    @given(form_matrix_pair())
    def test_products_are_entry_sums(self, mats):
        a, b = mats
        n, order = a.n, a.order
        rng = range(n)

        def total(terms):
            return sum(terms[1:], terms[0])

        for x, y in ((a, a), (a, b), (b, a)):
            prod = x.wedge_mul(y)
            for i in rng:
                for j in rng:
                    entry = prod.entries[i][j]
                    assert entry == total(
                        [wedge(x.entries[i][k], y.entries[k][j])
                         for k in rng])
                    assert (entry.n, entry.order, entry.degree) == \
                        (n, order, x.entries[0][0].degree
                         + y.entries[0][0].degree)
