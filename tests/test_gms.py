"""Group cocycle of formal automorphisms: currents, PW, lift, van Est."""

from fractions import Fraction as F

import pytest
from hypothesis import Phase, assume, given, settings, strategies as st

from formaldisk import gms
from formaldisk.constants import GMS_D1_SCALE
from formaldisk.errors import InvertibilityError, ShapeError
from formaldisk.gf import ch2_gf
from formaldisk.gms import (alpha2, alpha3, alpha_tilde, d1_compare,
                            group_cocycle_residual, mu, pw_check)
from formaldisk.jets import (FormalForm, FormalVectorField, FormMatrix,
                             JetAutomorphism, JetSeries, Substitution,
                             basis_monomial_fields, de_rham, jacobian,
                             jet_compose, jet_invert, poincare_homotopy,
                             pullback_form)
from formaldisk.grammar import parse_automorphism, parse_vector_field
from tests.conftest import random_unipotent


def auto(text, n, order=4):
    return parse_automorphism(text, n, order)


@st.composite
def automorphisms(draw, n, order, frac):
    """A jet automorphism with a random invertible linear part and up to
    two terms of degree 2..3 per component."""
    coef = (st.fractions(min_value=-2, max_value=2, max_denominator=3)
            if frac else st.integers(-2, 2))
    exps = st.lists(st.integers(0, n - 1), min_size=2, max_size=3).map(
        lambda ks: tuple(ks.count(i) for i in range(n)))
    comps = []
    for i in range(n):
        lin = {tuple(int(k == j) for k in range(n)): draw(coef)
               for j in range(n)}
        high = draw(st.dictionaries(exps, coef, max_size=2))
        comps.append(JetSeries(n, order, {**lin, **high}))
    try:
        return JetAutomorphism(n, order, comps)
    except InvertibilityError:
        assume(False)


@st.composite
def fields(draw, n, order):
    """A vector field vanishing at the origin, with one to three terms of
    degree 1..3 per component."""
    coef = st.fractions(min_value=-2, max_value=2, max_denominator=3)
    exps = st.lists(st.integers(0, n - 1), min_size=1, max_size=3).map(
        lambda ks: tuple(ks.count(i) for i in range(n)))
    return FormalVectorField(n, order, [
        JetSeries(n, order, draw(st.dictionaries(exps, coef, min_size=1,
                                                 max_size=3)))
        for _ in range(n)])


@st.composite
def automorphism_pairs(draw, min_order=2, rank4_max_order=3):
    n = draw(st.integers(1, 4))
    order = draw(st.integers(min_order, rank4_max_order if n == 4 else 4))
    frac = draw(st.booleans())
    return (draw(automorphisms(n, order, frac)),
            draw(automorphisms(n, order, frac)))


# The K+2 wedge references and the van Est derivative are slow, so these
# tests report a failure as found: shrinking it would re-run them at every
# step, for minutes.
NO_SHRINK = (Phase.explicit, Phase.reuse, Phase.generate)


def _lifted(phi):
    w = phi.order + 2
    return JetAutomorphism(phi.n, w, [f.with_order(w) for f in phi.comps])


def _zero_forms(m):
    """A jet matrix as the matrix of its 0-forms."""
    return FormMatrix(m.n, m.order, [[FormalForm.from_jet(f) for f in row]
                                     for row in m.entries])


def _wedge_currents(phi):
    """(g^{-1} dg, dg g^{-1}) as matrices of one-forms, g = Jac(phi)."""
    g = jacobian(phi)
    ginv = _zero_forms(jet_invert(g))
    dg = _zero_forms(g).map_entries(de_rham)
    return ginv.wedge_mul(dg), dg.wedge_mul(ginv)


def _cube(g):
    """(1/3) tr(A ^ A ^ A) at the order of g, from whole matrix wedge
    products; it is zero below rank three because the cube has degree 3."""
    cur, _ = _wedge_currents(g)
    return cur.wedge_mul(cur).wedge_mul(cur).trace().scale(F(1, 3))


def _pairing(g1, g2):
    """tr(g1^*(g2^{-1} dg2) ^ dg1 g1^{-1}) at the order of g1 and g2."""
    left2, _ = _wedge_currents(g2)
    _, right1 = _wedge_currents(g1)
    pulled = left2.map_entries(Substitution(g1.comps, g1.order).form)
    return pulled.wedge_mul(right1).trace()


def wedge_alpha3(phi):
    return _cube(_lifted(phi)).with_order(phi.order)


def wedge_alpha2(f1, f2):
    return _pairing(_lifted(f1), _lifted(f2)).with_order(f1.order)


def _instrument(monkeypatch):
    """The orders of the Jacobian adjugates that gms builds and of the jets
    that it inverts, as they are taken."""
    adjugates, inverses = [], []
    real_adjugate, real_inverse = gms.adjugate, JetSeries.inverse
    monkeypatch.setattr(gms, "adjugate", lambda m: adjugates.append(m.order)
                        or real_adjugate(m))
    monkeypatch.setattr(JetSeries, "inverse", lambda f: inverses.append(
        f.order) or real_inverse(f))
    return adjugates, inverses


class TestTraceComponents:
    """alpha2 and alpha3 are taken by components; the whole-matrix wedge
    products are the reference."""

    @settings(max_examples=20, deadline=None, phases=NO_SHRINK)
    @given(automorphism_pairs())
    def test_against_wedge_products(self, pair):
        f1, f2 = pair
        assert alpha3(f1) == wedge_alpha3(f1)
        assert alpha2(f1, f2) == wedge_alpha2(f1, f2)

    def test_rank_four_components(self):
        f = auto("(t1+t2^2+t3*t4, t2+t3^2+t1*t4, t3+t4^2+t1*t2, "
                 "t4+t1^2+t2*t3)", 4, 3)
        a3 = alpha3(f)
        assert len(a3.comps) == 4
        assert a3 == wedge_alpha3(f)

    def test_jacobian_inverse_counts(self, monkeypatch, rng):
        calls, inverses = _instrument(monkeypatch)
        # below rank three alpha3 and mu are zero before any Jacobian work
        f = auto("(2*t1+t2^2, t2-t1^2)", 2)
        assert alpha3(f).is_zero() and mu(f).is_zero()
        assert calls == inverses == []
        # one adjugate per automorphism; alpha2 inverts one determinant
        alpha2(f, f)
        assert len(calls) == 2 and len(inverses) == 1
        # f1, f2 and f2 o f1, each determinant inverted once for alpha3
        del calls[:], inverses[:]
        assert pw_check(random_unipotent(rng, 3, 4),
                        random_unipotent(rng, 3, 4))[0]
        assert len(calls) == 3 and len(inverses) == 4


class TestWorkingOrder:
    """gms runs each factor at the least order that keeps the residual at
    the input order K exact.  Every term is held to the same term computed
    at K+2 with the whole-matrix wedge products and truncated to K: there
    the composition, the Jacobians and alpha2 all carry two orders of
    headroom.  Rank four stops at order two to keep the reference quick."""

    @settings(max_examples=15, deadline=None, phases=NO_SHRINK)
    @given(automorphism_pairs(min_order=1, rank4_max_order=2))
    def test_terms_against_headroom(self, pair):
        f1, f2 = pair
        order = f1.order
        g1, g2 = _lifted(f1), _lifted(f2)
        g21 = jet_compose(g2, g1)
        cube1, cube2, cube21 = _cube(g1), _cube(g2), _cube(g21)
        pairing = _pairing(g1, g2)
        expected = [cube21, cube1, pullback_form(g1, cube2), de_rham(pairing)]
        for got, want in zip(gms._pw_terms(f1, f2), expected, strict=True):
            assert got == want.with_order(order)

        def radial(cube):  # mu at order K+2, exact to order K+1
            if cube.is_zero():
                return FormalForm.zero(f1.n, order + 2, 2)
            return poincare_homotopy(cube).with_order(order + 2)

        mu1, mu2, mu21 = radial(cube1), radial(cube2), radial(cube21)
        assert mu(f1) == mu1.with_order(order + 1)
        tilde = pairing - mu1 - pullback_form(g1, mu2) + mu21
        assert alpha_tilde(f1, f2) == tilde.with_order(order)


class TestAlpha2:
    def test_identity_argument(self):
        idn = JetAutomorphism.identity(2, 4)
        f = auto("(t1+t2^2, t2)", 2)
        assert alpha2(idn, f).is_zero()
        assert alpha2(f, idn).is_zero()

    def test_unipotent_pair_value(self):
        # oracle: 2x2 matrix computation with unipotent Jacobians, using the
        # convention fixed by the Polyakov-Wiegmann identity
        f1 = auto("(t1+t2^2, t2)", 2)
        f2 = auto("(t1, t2+t1^2)", 2)
        expected = FormalForm(2, 4, 2, {(1, 2): JetSeries.const(2, 4, 4)})
        assert alpha2(f1, f2) == expected

    def test_rank_one_vanishes(self):
        f1 = auto("(t1+t1^2)", 1)
        f2 = auto("(t1+t1^3)", 1)
        assert alpha2(f1, f2).is_zero()


class TestAlpha3:
    def test_low_rank_zero(self):
        assert alpha3(auto("(t1+t1^2)", 1)).is_zero()
        assert alpha3(auto("(t1+t2^2, t2)", 2)).is_zero()
        assert alpha3(JetAutomorphism.identity(3, 4)).is_zero()

    def test_rank_three_closed(self, rng):
        # cyclic quadratic jet: the current cube survives the trace
        f = auto("(t1+t2^2, t2+t3^2, t3+t1^2)", 3)
        a3 = alpha3(f)
        assert not a3.is_zero()
        assert a3.component((1, 2, 3)).constant_term() == 8
        assert de_rham(a3).is_zero()
        for _ in range(3):
            g = random_unipotent(rng, 3, 4)
            assert de_rham(alpha3(g)).is_zero()


class TestMu:
    def test_low_rank_and_identity(self):
        assert mu(auto("(t1+t2^2, t2)", 2)).is_zero()
        assert mu(JetAutomorphism.identity(3, 4)).is_zero()

    def test_d_mu_equals_alpha3(self, rng):
        f = auto("(t1+t2^2, t2+t3^2, t3+t1^2)", 3)
        assert de_rham(mu(f)).with_order(4) == alpha3(f)
        g = random_unipotent(rng, 3, 4)
        assert de_rham(mu(g)).with_order(4) == alpha3(g)


class TestPolyakovWiegmann:
    def test_identity_cases(self, rng):
        g = random_unipotent(rng, 3, 4)
        idn = JetAutomorphism.identity(3, 4)
        for pair in [(g, idn), (idn, g), (idn, idn)]:
            ok, res = pw_check(*pair)
            assert ok and res.is_zero()

    def test_rank_two_pair(self):
        ok, res = pw_check(auto("(t1+t2^2, t2)", 2), auto("(t1, t2+t1^2)", 2))
        assert ok and res.is_zero()

    def test_random_rank_three(self, rng):
        for _ in range(8):
            f1 = random_unipotent(rng, 3, 4)
            f2 = random_unipotent(rng, 3, 4)
            ok, res = pw_check(f1, f2)
            assert ok, res

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            pw_check(auto("(t1+t1^2)", 1), auto("(t1+t2^2, t2)", 2))


class TestAlphaTilde:
    def test_identity_pair(self):
        idn = JetAutomorphism.identity(3, 4)
        assert alpha_tilde(idn, idn).is_zero()

    def test_rank_two_equals_alpha2(self):
        f1 = auto("(t1+t2^2, t2)", 2)
        f2 = auto("(t1, t2+t1^2)", 2)
        assert alpha_tilde(f1, f2) == alpha2(f1, f2)

    def test_closed(self, rng):
        for n in (2, 3):
            f1 = random_unipotent(rng, n, 4)
            f2 = random_unipotent(rng, n, 4)
            assert de_rham(alpha_tilde(f1, f2)).is_zero()
        # include a pair with nonvanishing mu-terms
        f = auto("(t1+t2^2, t2+t3^2, t3+t1^2)", 3)
        g = auto("(t1+t3^2, t2+t1*t3, t3)", 3)
        assert de_rham(alpha_tilde(f, g)).is_zero()

    def test_group_cocycle(self, rng):
        for _ in range(2):
            f1 = random_unipotent(rng, 2, 4)
            f2 = random_unipotent(rng, 2, 4)
            f3 = random_unipotent(rng, 2, 4)
            assert group_cocycle_residual(f1, f2, f3).is_zero()
        f1 = auto("(t1+t2^2, t2+t3^2, t3+t1^2)", 3)
        f2 = random_unipotent(rng, 3, 4)
        f3 = auto("(t1+t2*t3, t2, t3+t1^2)", 3)
        assert group_cocycle_residual(f1, f2, f3).is_zero()


class TestVanEst:
    def test_spec_instance(self):
        x = parse_vector_field("t1*t2 d1", 2, 5)
        y = parse_vector_field("t1*t2 d2", 2, 5)
        lie, c2, ok = d1_compare(x, y)
        assert ok
        assert c2 == FormalForm(2, 5, 2, {(1, 2): -JetSeries.one(2, 5)})
        assert lie == c2.scale(GMS_D1_SCALE)

    def test_trivial_cases(self):
        lin_x = parse_vector_field("t1 d2", 2, 5)
        lin_y = parse_vector_field("t2 d1", 2, 5)
        lie, c2, ok = d1_compare(lin_x, lin_y)
        assert ok and lie.is_zero() and c2.is_zero()
        x = parse_vector_field("t1*t2 d1", 2, 5)
        lie, _, ok = d1_compare(x, x)
        assert ok and lie.is_zero()

    def test_uniform_scale(self, rng):
        fields = basis_monomial_fields(2, 5, 3, min_degree=1)
        for _ in range(15):
            x, y = rng.choice(fields), rng.choice(fields)
            lie, c2, ok = d1_compare(x, y)
            assert ok, (x, y, lie, c2)

    def test_rank_three_samples(self, rng):
        fields = basis_monomial_fields(3, 5, 2, min_degree=1)
        for _ in range(5):
            x, y = rng.choice(fields), rng.choice(fields)
            lie, c2, ok = d1_compare(x, y)
            assert ok, (x, y)

    def test_rank_three_value(self):
        x = parse_vector_field("t1*t3 d1 + 1/2*t2^2 d3", 3, 4)
        y = parse_vector_field("t2*t3 d2 + t1*t3 d3", 3, 4)
        lie, c2, ok = d1_compare(x, y)
        assert ok
        assert c2 == FormalForm(3, 4, 2, {(1, 3): -JetSeries.one(3, 4)})
        assert lie == c2.scale(GMS_D1_SCALE)

    @settings(max_examples=40, deadline=None, phases=NO_SHRINK)
    @given(st.data())
    def test_bilinear(self, data):
        n, order = data.draw(st.integers(1, 3)), data.draw(st.integers(2, 4))
        x1, x2, y1, y2 = (data.draw(fields(n, order)) for _ in range(4))
        a = data.draw(st.fractions(min_value=-2, max_value=2,
                                   max_denominator=3))

        def lie(x, y):
            return d1_compare(x, y)[0]

        assert lie(x1.scale(a) + x2, y1) == \
            lie(x1, y1).scale(a) + lie(x2, y1)
        assert lie(x1, y1.scale(a) + y2) == \
            lie(x1, y1).scale(a) + lie(x1, y2)

    @settings(max_examples=25, deadline=None, phases=NO_SHRINK)
    @given(st.data())
    def test_mu_terms_vanish(self, data):
        """d1_compare takes alpha~ to be alpha2 on its path; the full
        computation holds the skipped terms to zero."""
        n, order = data.draw(st.integers(2, 3)), data.draw(st.integers(2, 4))
        x, y = (data.draw(fields(n, order)) for _ in range(2))
        f1 = gms._nilpotent_deform(x, "s")
        f2 = gms._nilpotent_deform(y, "u")
        c1 = gms._currents(f1, right=True)
        c2 = gms._currents(f2, left=True)
        c21 = gms._compose(c1, c2)
        for c in (c1, c2, c21):
            assert c.mu.is_zero()
        assert gms._alpha_tilde(c1, c2, c21) == gms._alpha2(c1, c2)
        assert alpha_tilde(f1, f2) == alpha2(f1, f2)

    def test_origin_precondition(self):
        const = parse_vector_field("d1", 2, 5)
        x = parse_vector_field("t1*t2 d1", 2, 5)
        with pytest.raises(ShapeError):
            d1_compare(const, x)


class TestCurrentSides:
    """Each Jacobian adjugate and determinant is built once, at the highest
    order a reader of that automorphism takes: K+1 when alpha2 reads one of
    its current numerators, K when only alpha3 or mu is read.  alpha3
    inverts the determinant at K, and alpha2 inverts its one scale at
    K+1."""

    def test_pw_check_composite_at_input_order(self, monkeypatch, rng):
        orders, inverses = _instrument(monkeypatch)
        assert pw_check(random_unipotent(rng, 3, 4),
                        random_unipotent(rng, 3, 4))[0]
        assert sorted(orders) == [4, 5, 5]
        assert sorted(inverses) == [4, 4, 4, 5]
        del orders[:], inverses[:]
        alpha3(random_unipotent(rng, 3, 4))
        assert orders == inverses == [4]

    def test_van_est_forms_no_composite(self, monkeypatch):
        orders, _ = _instrument(monkeypatch)
        x = parse_vector_field("t1*t3 d1 + 1/2*t2^2 d3", 3, 4)
        y = parse_vector_field("t2*t3 d2 + t1*t3 d3", 3, 4)
        assert d1_compare(x, y)[2]
        assert orders == [5] * 4

    def test_alpha3_reads_the_right_currents(self, rng):
        # R_a = g M_a g^{-1}, so the right currents give alpha3's traces
        for f in (random_unipotent(rng, 3, 4),
                  auto("(2*t1+t2^2, t1+t2+t3^2, t3-t1*t2)", 3, 3)):
            c = gms._currents(f, right=True)
            a3 = c.alpha3
            assert "right" in vars(c) and "left" not in vars(c)
            assert a3 == gms._currents(f, left=True).alpha3
            assert a3 == wedge_alpha3(f)

    def test_unread_side_raises(self):
        c = gms._currents(auto("(t1+t2^2, t2+t3^2, t3+t1^2)", 3))
        assert not c.alpha3.is_zero()
        with pytest.raises(ShapeError):
            c.left


class TestComposition:
    def test_compose_order_convention(self):
        # alpha-tilde and PW use "f2 o f1 = substitute f1 into f2"
        f1 = auto("(t1+t2^2, t2)", 2)
        f2 = auto("(t1, t2+t1^2)", 2)
        comp = jet_compose(f2, f1)
        t1 = JetSeries.variable(2, 4, 1)
        t2 = JetSeries.variable(2, 4, 2)
        assert comp.comps[0] == t1 + t2 * t2
        assert comp.comps[1] == t2 + (t1 + t2 * t2) ** 2
