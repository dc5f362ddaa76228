"""Exact q-series identities and the Eisenstein numerics."""

import itertools
import math
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from formaldisk.characters import (LatticeSpec, a_hat,
                                   a_hat_root_series, bernoulli, c1,
                                   ch_sym_product, char_identity_check,
                                   chern_character_component, divisor_sigma,
                                   eisenstein_lattice, eisenstein_q,
                                   eisenstein_q_numeric, eta_product, jet_exp,
                                   log_witten, log_witten_full, power_sum,
                                   reduce_mod_p2, specialize_roots_zero, todd,
                                   todd_root_series, witten_class,
                                   witten_exp_check, witten_exp_check_full)
from formaldisk.errors import ShapeError
from formaldisk.jets import JetSeries
from formaldisk.vertex import KIND_B, KIND_C, enumerate_weight_monomials


def q_coeffs(series, zero=0):
    """The q^0..q^Q coefficients of a q-series, ``zero`` where none is
    stored."""
    return [series.coeffs.get((m,), zero) for m in range(series.order + 1)]


def two_colored_partitions(colors, top):
    """Independent oracle: partitions with parts in `colors` colors, by
    bounded dynamic programming over (part size, multiplicity)."""
    counts = [1] + [0] * top
    for part in range(1, top + 1):
        for _ in range(colors):
            for total in range(part, top + 1):
                counts[total] += counts[total - part]
    return counts


class TestScalarOracles:
    def test_bernoulli(self):
        assert [bernoulli(k) for k in range(7)] == \
            [F(1), F(-1, 2), F(1, 6), 0, F(-1, 30), 0, F(1, 42)]
        assert bernoulli(12) == F(-691, 2730)

    def test_divisor_sigma(self):
        assert divisor_sigma(6, 1) == 12
        assert divisor_sigma(3, 3) == 28

    def test_todd_series_is_bernoulli_expansion(self):
        # x/(1-e^{-x}) = sum (-1)^d B_d x^d / d!
        series = todd_root_series(8)
        for d, c in enumerate(series):
            assert c == bernoulli(d) * F((-1) ** d, math.factorial(d))

    def test_a_hat_series_values(self):
        series = a_hat_root_series(6)
        assert series[0] == 1 and series[2] == F(-1, 24)
        assert series[4] == F(7, 5760)
        assert all(series[d] == 0 for d in (1, 3, 5))


class TestToddAHat:
    def test_degree_two_values(self):
        assert todd(1, 2) == JetSeries(1, 2, {(0,): F(1), (1,): F(1, 2),
                                              (2,): F(1, 12)})
        assert a_hat(1, 2) == JetSeries(1, 2, {(0,): F(1), (2,): F(-1, 24)})

    def test_todd_factorization(self):
        for n, degree in [(1, 6), (2, 5), (3, 4)]:
            lhs = todd(n, degree)
            rhs = jet_exp(c1(n, degree).scale(F(1, 2)), 1) * a_hat(n, degree)
            assert lhs == rhs


class TestChSym:
    def test_constant_term_one(self):
        cs = ch_sym_product(2, 3, 4)
        assert q_coeffs(cs)[0] == JetSeries.one(2, 3)

    def test_two_colored_partition_coefficients(self):
        cs = ch_sym_product(1, 0, 5)
        vals = [c.constant_term() for c in q_coeffs(cs)]
        assert vals == [1, 2, 5, 10, 20, 36]
        assert vals == two_colored_partitions(2, 5)

    @pytest.mark.parametrize("n,degree,q_order", [(1, 4, 6), (2, 4, 6),
                                                  (3, 3, 4)])
    def test_graded_count_on_state_space(self, n, degree, q_order):
        """The q^w coefficient is the torus character of the weight-w
        states: e^{x_j} per b^j symbol and e^{-x_j} per c^j symbol."""
        sign = {KIND_B: 1, KIND_C: -1}
        weight = {(kind, j): jet_exp(JetSeries.variable(n, degree, j).scale(s), 1)
                  for kind, s in sign.items() for j in range(1, n + 1)}
        cs = ch_sym_product(n, degree, q_order)
        for w in range(q_order + 1):
            total = JetSeries.zero(n, degree)
            for mono in enumerate_weight_monomials(n, w):
                term = JetSeries.one(n, degree)
                for kind, j, _ in mono:
                    term = term * weight[kind, j]
                total = total + term
            assert total == q_coeffs(cs, JetSeries.zero(n, degree))[w], w

    def test_specialization_is_eta_power(self):
        for n in (1, 2):
            spec = specialize_roots_zero(ch_sym_product(n, 3, 5))
            assert spec == eta_product(5, -2 * n)
            oracle = two_colored_partitions(2 * n, 5)
            assert [int(c) for c in q_coeffs(spec)] == oracle


class TestWittenClass:
    def test_leading_coefficient(self):
        for n, d, q in [(1, 4, 3), (2, 4, 3)]:
            assert q_coeffs(witten_class(n, d, q))[0] == a_hat(n, d)

    def test_specialization_trivial(self):
        sp = specialize_roots_zero(witten_class(2, 4, 4))
        assert q_coeffs(sp)[0] == 1
        assert all(not c for c in q_coeffs(sp)[1:])

    def test_char_identity(self):
        assert char_identity_check(1, 4, 6).is_zero()
        assert char_identity_check(2, 4, 4).is_zero()
        assert char_identity_check(1, 0, 4).is_zero()


class TestEisensteinQ:
    def test_r4(self):
        assert q_coeffs(eisenstein_q(4, 3)) == [F(1, 120), F(2), F(18), F(56)]

    def test_r6_constant(self):
        assert q_coeffs(eisenstein_q(6, 0))[0] == F(-1, 252)

    def test_q1_always_two(self):
        for k2 in (4, 6, 8, 10, 12):
            assert q_coeffs(eisenstein_q(k2, 1))[1] == 2

    def test_weight_validation(self):
        with pytest.raises(ShapeError):
            eisenstein_q(2, 3)
        with pytest.raises(ShapeError):
            eisenstein_q(5, 3)


class TestLogWitten:
    def test_low_degree_vanishes(self):
        lw = log_witten(2, 6, 3)
        for coeff in lw.coeffs.values():
            assert all(sum(e) >= 4 for e in coeff.coeffs)

    def test_ch4_coefficient_is_r4(self):
        lw = log_witten(1, 4, 3)
        r4 = eisenstein_q(4, 3)
        ch4 = chern_character_component(1, 4, 4)
        for m in range(4):
            assert q_coeffs(lw, JetSeries.zero(1, 4))[m] == \
                ch4.scale(q_coeffs(r4)[m])

    def test_exponential_identity_mod_p2(self):
        assert witten_exp_check(2, 6, 4).is_zero()
        assert witten_exp_check(1, 6, 3).is_zero()

    def test_exponential_identity_full_ring(self):
        assert witten_exp_check_full(2, 6, 4).is_zero()
        assert witten_exp_check_full(1, 8, 3).is_zero()

    def test_full_log_differs_by_weight_two(self):
        lw = log_witten(2, 4, 3)
        lwf = log_witten_full(2, 4, 3)
        diff = lwf - lw
        ch2 = chern_character_component(2, 4, 2)
        assert q_coeffs(diff)[0] == ch2.scale(F(-1, 12))
        assert q_coeffs(diff)[1] == ch2.scale(2)


class TestReduceModP2:
    def test_normal_form(self):
        f = power_sum(2, 4, 2)  # x1^2 + x2^2
        assert reduce_mod_p2(f).is_zero()
        g = JetSeries.monomial(2, 4, (3, 1))
        red = reduce_mod_p2(g)
        assert red == JetSeries.monomial(2, 4, (1, 3), F(-1))
        # integral coefficients are stored as int, like every jet's
        assert type(red.coeffs[(1, 3)]) is int

    def test_rank_one(self):
        f = JetSeries.monomial(1, 4, (2,)) + JetSeries.variable(1, 4, 1)
        assert reduce_mod_p2(f) == JetSeries.variable(1, 4, 1)

    def test_idempotent_and_ideal(self):
        f = JetSeries.monomial(2, 6, (2, 2), F(3)) + \
            JetSeries.monomial(2, 6, (1, 1))
        red = reduce_mod_p2(f)
        assert reduce_mod_p2(red) == red
        assert reduce_mod_p2(f * power_sum(2, 6, 2)).is_zero()


class TestLattice:
    def test_forced_zeros(self):
        assert abs(eisenstein_lattice(6, LatticeSpec(1j, 200))) < 1e-6
        omega = complex(-0.5, math.sqrt(3) / 2)
        assert abs(eisenstein_lattice(4, LatticeSpec(omega, 200))) < 1e-6

    def test_matches_q_expansion(self):
        for k2 in (4, 6):
            for tau in (1j, 2j, complex(0.5, 1.0)):
                lat = eisenstein_lattice(k2, LatticeSpec(tau, 200))
                ref = eisenstein_q_numeric(k2, tau)
                if abs(ref) > 1e-9:
                    assert abs(lat - ref) / abs(ref) < 1e-6, (k2, tau)
                else:
                    assert abs(lat - ref) < 1e-6

    def test_point_enumeration_symmetric(self):
        pts = LatticeSpec(complex(0.3, 1.1), 12).points()
        as_set = {(round(z.real, 9), round(z.imag, 9)) for z in pts}
        assert len(as_set) == len(pts)
        for z in pts:
            assert (round(-z.real, 9), round(-z.imag, 9)) in as_set

    def test_weight_two_rejected(self):
        with pytest.raises(ShapeError):
            eisenstein_lattice(2, LatticeSpec(1j, 50))


class TestQSeries:
    """q-series are rank-one jets in q; over the root ring their
    coefficients are root jets."""

    def test_inverse_roundtrip(self):
        s = eta_product(8, 3)
        assert s * s.inverse() == JetSeries.one(1, 8)

    def test_exp_of_nilpotent(self):
        x = JetSeries.variable(1, 3, 1)
        one = JetSeries.one(1, 3)
        a = JetSeries(1, 3, {(0,): x, (1,): x.scale(2)})
        e = jet_exp(a, one)
        assert q_coeffs(e)[0] == jet_exp(x, 1)
        # with no q^0 coefficient the one is still the root ring's
        e = jet_exp(JetSeries(1, 3, {(1,): x}), one)
        assert q_coeffs(e)[0] == one

    def test_exp_of_zero_is_the_rings_one(self):
        # the zero series stores no coefficient; the one comes from the call
        one = JetSeries.one(1, 3)
        assert jet_exp(JetSeries.zero(1, 3), one) == JetSeries.const(1, 3, one)
        assert jet_exp(JetSeries.zero(2, 3), 1) == JetSeries.one(2, 3)

    def test_exp_needs_nilpotent_constant(self):
        with pytest.raises(ShapeError):
            jet_exp(JetSeries.const(1, 3, F(1, 2)), 1)
        root = JetSeries.variable(1, 3, 1) + 1
        with pytest.raises(ShapeError):
            jet_exp(JetSeries.const(1, 3, root), JetSeries.one(1, 3))


# hypothesis: q-series at order 0..4 over root rings of rank 1..2 and
# order 0..3, the arithmetic that characters runs on them
RATIONALS = st.fractions(min_value=-3, max_value=3, max_denominator=4)


@st.composite
def root_jets(draw, n, d, constant=None):
    """A root jet of rank n and order d; ``constant``, when given, is its
    constant term."""
    monos = [e for e in itertools.product(range(d + 1), repeat=n)
             if sum(e) <= d and (constant is None or any(e))]
    data = {e: draw(RATIONALS) for e in monos if draw(st.booleans())}
    if constant is not None:
        data[(0,) * n] = constant
    return JetSeries(n, d, data)


@st.composite
def root_series(draw, n, d, q, constant=None):
    """A q-series over the root ring (n, d); ``constant`` fixes the
    constant term of its q^0 coefficient."""
    data = {(m,): draw(root_jets(n, d)) for m in range(1, q + 1)}
    data[(0,)] = draw(root_jets(n, d, constant))
    return JetSeries(1, q, data)


SHAPES = st.tuples(st.integers(1, 2), st.integers(0, 3), st.integers(0, 4))


class TestRootRingSeries:
    @settings(max_examples=60, deadline=None)
    @given(st.data(), SHAPES)
    def test_product_is_convolution(self, data, shape):
        n, d, q = shape
        a = data.draw(root_series(n, d, q))
        b = data.draw(root_series(n, d, q))
        zero = JetSeries.zero(n, d)
        ab = q_coeffs(a * b, zero)
        ca, cb = q_coeffs(a, zero), q_coeffs(b, zero)
        for m in range(q + 1):
            conv = zero
            for i in range(m + 1):
                conv = conv + ca[i] * cb[m - i]
            assert ab[m] == conv, m

    @settings(max_examples=60, deadline=None)
    @given(st.data(), SHAPES, RATIONALS.filter(bool))
    def test_inverse_of_unit(self, data, shape, c):
        n, d, q = shape
        a = data.draw(root_series(n, d, q, constant=c))
        assert a * a.inverse() == JetSeries.const(1, q, JetSeries.one(n, d))

    @settings(max_examples=60, deadline=None)
    @given(st.data(), SHAPES)
    def test_exp_is_additive(self, data, shape):
        n, d, q = shape
        a = data.draw(root_series(n, d, q, constant=0))
        b = data.draw(root_series(n, d, q, constant=0))
        one = JetSeries.one(n, d)
        assert jet_exp(a + b, one) == jet_exp(a, one) * jet_exp(b, one)

    @settings(max_examples=60, deadline=None)
    @given(st.data(), SHAPES)
    def test_rational_times_root_series(self, data, shape):
        n, d, q = shape
        r = JetSeries(1, q, {(m,): data.draw(RATIONALS)
                             for m in range(q + 1)})
        a = data.draw(root_series(n, d, q))
        lifted = r.map_coeffs(lambda c: JetSeries.const(n, d, c))
        assert r * a == lifted * a == a * r
