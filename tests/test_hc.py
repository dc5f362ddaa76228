"""Vector-field, one-form, two-form, and linear-group actions on states."""

import itertools
from fractions import Fraction as F

import pytest

from formaldisk.constants import MSV_COCYCLE_SIGN
from formaldisk.errors import (ClosednessError, InvertibilityError,
                               TruncationOverflowError)
from formaldisk.gf import ch2_gf
from formaldisk import hc
from formaldisk.hc import (ExtendedVectorField, gl_act, jet_to_state,
                           msv_defect, rho_omega1, rho_omega2, rho_w,
                           state_to_jet, tau_omega1, tau_w, tilde_bracket)
from formaldisk.jets import (FormalForm, FormalVectorField, JetSeries,
                             basis_monomial_fields, de_rham, lie_derivative,
                             poincare_homotopy, staircase_primitive,
                             vf_bracket, wedge)
from formaldisk.grammar import format_state, parse_state, parse_vector_field
from formaldisk.vertex import (KIND_B, KIND_C, TruncationPolicy, VAState,
                               clear_mode_cache, enumerate_basis, mode_apply,
                               translate, vacuum)
from tests import recursion
from tests.conftest import monomial_states, random_state

POL = TruncationPolicy(10, 12)


def field(text, n, order=6):
    return parse_vector_field(text, n, order)


def direct_omega2(w, policy):
    """rho_omega2's independent reference, built once per form: (T u)_(1) =
    -u_(0) turns the zero mode of a primitive into the first mode of a
    weight-two state, taken by the recursion oracle, and the staircase
    primitive differs from the radial one by an exact form, which acts by
    zero."""
    state = translate(tau_omega1(staircase_primitive(w), policy))
    return lambda v: -recursion.mode_apply(state, 1, v)


class TestTau:
    def test_tau_w_examples(self):
        assert format_state(tau_w(field("t1 d1", 1), POL)) == "b[1,-1]*c[1,0]"
        assert format_state(tau_w(field("d1", 2), POL)) == "b[1,-1]"
        assert format_state(tau_w(field("t1*t2 d2", 2), POL)) == \
            "b[2,-1]*c[1,0]*c[2,0]"

    def test_tau_omega1(self):
        theta = FormalForm(2, 6, 1, {(2,): JetSeries.variable(2, 6, 1)})
        assert format_state(tau_omega1(theta, POL)) == "c[1,0]*c[2,-1]"

    def test_jet_state_roundtrip(self):
        f = JetSeries(2, 6, {(2, 1): F(3, 7), (0, 0): F(-1)})
        assert state_to_jet(jet_to_state(f, POL), 6) == f


class TestRhoW:
    def test_euler_counts_function_degree(self):
        euler = field("t1 d1", 1)
        c0 = VAState.generator(1, POL, KIND_C, 1, 0)
        for p in (0, 1, 2, 3):
            f = vacuum(1, POL)
            for _ in range(p):
                f = f * c0
            assert rho_w(euler, f) == f.scale(p)

    def test_constant_field_differentiates(self):
        d1 = field("d1", 2)
        c1sq = parse_state("c[1,0]*c[1,0]", 2, POL)
        assert rho_w(d1, c1sq) == parse_state("2*c[1,0]", 2, POL)

    def test_kills_vacuum(self, rng):
        for x in basis_monomial_fields(2, 6, 2):
            assert rho_w(x, vacuum(2, POL)).is_zero()

    def test_derivation_of_all_products(self, rng):
        fields = basis_monomial_fields(2, 6, 2)
        for _ in range(25):
            x = rng.choice(fields)
            a = random_state(rng, 2, POL)
            v = random_state(rng, 2, POL)
            m = rng.randint(-2, 2)
            lhs = rho_w(x, mode_apply(a, m, v))
            rhs = mode_apply(rho_w(x, a), m, v) + mode_apply(a, m, rho_w(x, v))
            assert lhs == rhs, (x, a, v, m)

    def test_weight_preserving(self, rng):
        fields = basis_monomial_fields(2, 6, 3)
        for _ in range(20):
            x = rng.choice(fields)
            v = random_state(rng, 2, POL)
            res = rho_w(x, v)
            if not res.is_zero():
                assert res.weight() == v.weight()


class TestRhoOmega:
    def test_exact_one_forms_act_by_zero(self, rng):
        for f in [JetSeries.variable(1, 6, 1) ** 2,
                  JetSeries.variable(1, 6, 1) ** 3]:
            theta = de_rham(FormalForm.from_jet(f))
            for v in monomial_states(1, POL, 3, 2):
                assert rho_omega1(theta, v).is_zero()

    def test_rho_omega1_example(self):
        theta = FormalForm(2, 6, 1, {(2,): JetSeries.variable(2, 6, 1)})
        b2 = VAState.generator(2, POL, KIND_B, 2, -1)
        res = rho_omega1(theta, b2)
        assert res == VAState.generator(2, POL, KIND_C, 1, -1)
        assert rho_omega1(theta, vacuum(2, POL)).is_zero()

    def test_rank_one_two_forms_vanish(self):
        w = FormalForm.zero(1, 6, 2)
        for v in monomial_states(1, POL, 2, 2):
            assert rho_omega2(w, v).is_zero()

    def test_paths_agree(self, rng):
        w = FormalForm(2, 6, 2, {(1, 2): JetSeries.one(2, 6) +
                                 JetSeries.monomial(2, 6, (1, 1), F(2))})
        direct = direct_omega2(w, POL)
        for v in monomial_states(2, POL, 3, 2):
            assert rho_omega2(w, v) == direct(v)

    def test_wick_route_equals_recursion_on_criterion_2_space(self):
        # the zero mode by Wick's theorem against the first mode of a
        # weight-two state by the recursion
        pol = TruncationPolicy(8, 14)
        states = monomial_states(2, pol, 3, 4)
        for x, y in (("t1^2*t2 d1", "t1*t2^2 d2"), ("t1^3 d2", "t2^3 d1"),
                     ("t1^2 d2 + t2^3 d1", "t1*t2^2 d1 + t1^3 d2")):
            w = ch2_gf(field(x, 2, 8), field(y, 2, 8))
            assert not w.is_zero()
            direct = direct_omega2(w, pol)
            for v in states:
                assert rho_omega2(w, v) == direct(v), (x, y, v)

    def test_b_free_states_killed_by_constant_form(self, rng):
        w = wedge(FormalForm.dt(2, 6, 1), FormalForm.dt(2, 6, 2))
        for v in monomial_states(2, POL, 2, 2):
            if v.filtration_degree() == 0:
                assert rho_omega2(w, v).is_zero()

    def test_definitional_consistency(self, rng):
        # rho_omega2(d theta) = rho_omega1(theta)
        for _ in range(10):
            comps = {}
            for j in (1, 2):
                e = tuple(rng.randint(0, 2) for _ in range(2))
                comps[(j,)] = JetSeries.monomial(2, 6, e, F(rng.randint(-2, 2)))
            theta = FormalForm(2, 6, 1, comps)
            w = de_rham(theta)
            for v in monomial_states(2, POL, 2, 2)[:20]:
                assert rho_omega2(w, v) == rho_omega1(theta, v)

    def test_closedness_required(self):
        t3 = JetSeries.variable(3, 6, 3)
        w = FormalForm(3, 6, 2, {(1, 2): t3})
        with pytest.raises(ClosednessError):
            rho_omega2(w, vacuum(3, POL))

    def test_two_forms_commute(self, rng):
        w1 = FormalForm(2, 6, 2, {(1, 2): JetSeries.one(2, 6)})
        w2 = FormalForm(2, 6, 2, {(1, 2): JetSeries.monomial(2, 6, (1, 0))})
        for v in monomial_states(2, POL, 3, 2)[:40]:
            ab = rho_omega2(w1, rho_omega2(w2, v))
            ba = rho_omega2(w2, rho_omega2(w1, v))
            assert ab == ba


class TestBoundsRefuse:
    """A policy refuses every term past its bounds and drops none: under a
    tight policy each operation either raises or equals, term for term,
    the same operation under a loose one.  A dropped term can feed terms
    below the bounds (b_(0) differentiates in c_0), so a policy that
    dropped would give wrong results here."""

    TIGHT = (TruncationPolicy(3, 2), TruncationPolicy(4, 3),
             TruncationPolicy(6, 2))
    LOOSE = TruncationPolicy(12, 14)

    @staticmethod
    def _outcome(apply, *states):
        try:
            return apply(*states).terms
        except TruncationOverflowError:
            return None

    def test_tight_runs_raise_or_equal_the_loose_run(self, rng):
        x = field("t1^2 d1 + t2^2 d2", 2)
        y = field("t1*t2 d2 - t2 d1", 2)
        w = ch2_gf(x, y)
        raised = 0
        for _ in range(20):
            # v, then the two states of the nested product
            terms = [random_state(rng, 2, self.LOOSE, max_weight=wt,
                                  max_c0=c0, terms=3).mono_terms()
                     for wt, c0 in ((3, 2), (2, 1), (1, 1))]
            m1, m2 = rng.randint(-2, 1), rng.randint(-2, 1)
            ops = (lambda v, a, b: msv_defect(x, y, v),
                   lambda v, a, b: rho_omega2(w, v),
                   lambda v, a, b: mode_apply(a, m1, mode_apply(b, m2, v)))
            for op in ops:
                loose = self._outcome(
                    op, *(VAState(2, self.LOOSE, t) for t in terms))
                assert loose is not None
                for pol in self.TIGHT:
                    tight = self._outcome(
                        op, *(VAState(2, pol, t) for t in terms))
                    if tight is None:
                        raised += 1
                    else:
                        assert tight == loose, (pol, terms)
        # both outcomes occur
        assert 0 < raised < 180


class TestGLAction:
    def test_identity(self, rng):
        for v in monomial_states(2, POL, 2, 2)[:20]:
            assert gl_act([[1, 0], [0, 1]], v) == v

    def test_diagonal_scaling(self):
        c0 = VAState.generator(1, POL, KIND_C, 1, 0)
        b = VAState.generator(1, POL, KIND_B, 1, -1)
        assert gl_act([[2]], c0) == c0.scale(2)
        assert gl_act([[2]], b) == b.scale(F(1, 2))
        assert gl_act([[2]], c0 * b) == c0 * b

    def test_group_law(self, rng):
        mats = [[[1, 1], [0, 1]], [[0, 1], [1, 0]], [[2, 0], [0, 3]]]
        for a, b in itertools.product(mats, mats):
            ab = [[sum(F(a[i][k]) * F(b[k][j]) for k in range(2))
                   for j in range(2)] for i in range(2)]
            for v in monomial_states(2, POL, 2, 1)[:12]:
                assert gl_act(a, gl_act(b, v)) == gl_act(ab, v)

    def test_intertwines_products_and_t(self, rng):
        a_mat = [[1, 2], [1, 3]]
        for _ in range(12):
            a = random_state(rng, 2, POL)
            v = random_state(rng, 2, POL)
            m = rng.randint(-2, 2)
            lhs = gl_act(a_mat, mode_apply(a, m, v))
            rhs = mode_apply(gl_act(a_mat, a), m, gl_act(a_mat, v))
            assert lhs == rhs
            assert gl_act(a_mat, translate(v)) == translate(gl_act(a_mat, v))

    def test_singular_rejected(self):
        with pytest.raises(InvertibilityError):
            gl_act([[1, 1], [1, 1]], vacuum(2, POL))

    def test_linear_fields_restrict_gl_action(self):
        # rho_W of the linear field t_i d_j is the derivative at the identity
        # of gl_act(I + s E_{ij}); on single-symbol states the first-order
        # part is exact already at s = 1 since E_{ij} is nilpotent.
        for (i, j) in itertools.product((1, 2), repeat=2):
            if i == j:
                continue
            e = [0, 0]
            e[i - 1] = 1
            x = FormalVectorField.monomial(2, 6, tuple(e), j)
            a_mat = [[1, 0], [0, 1]]
            a_mat[i - 1][j - 1] = 1
            for kind in (KIND_B, KIND_C):
                for k in (1, 2):
                    m = -1 if kind == KIND_B else 0
                    v = VAState.generator(2, POL, kind, k, m)
                    assert gl_act(a_mat, v) - v == rho_w(x, v), (i, j, kind, k)


class TestMSV:
    def test_rank_one_strict(self, rng):
        fields = basis_monomial_fields(1, 6, 3)
        for x, y in itertools.combinations(fields, 2):
            for v in monomial_states(1, POL, 2, 2)[:8]:
                assert msv_defect(x, y, v).is_zero()

    def test_linear_fields_strict(self):
        x = field("t1 d2", 2)
        y = field("t2 d1", 2)
        for v in monomial_states(2, POL, 2, 2)[:20]:
            assert msv_defect(x, y, v).is_zero()

    def test_spec_instance(self):
        x = field("t1*t2 d1", 2)
        y = field("t1*t2 d2", 2)
        c2 = ch2_gf(x, y)
        assert c2 == FormalForm(2, 6, 2, {(1, 2): -JetSeries.one(2, 6)})
        for v in monomial_states(2, POL, 3, 3)[:60]:
            assert msv_defect(x, y, v) == \
                rho_omega2(c2, v).scale(MSV_COCYCLE_SIGN)

    def test_rank_three_sample(self, rng):
        pol = TruncationPolicy(8, 10)
        fields = basis_monomial_fields(3, 6, 2, min_degree=2)
        states = monomial_states(3, pol, 2, 2)
        for _ in range(6):
            x, y = rng.choice(fields), rng.choice(fields)
            c2 = ch2_gf(x, y)
            for v in rng.sample(states, 12):
                assert msv_defect(x, y, v) == \
                    rho_omega2(c2, v).scale(MSV_COCYCLE_SIGN)


class TestExtendedBracket:
    def _closed(self, n=2, order=6):
        return FormalForm(n, order, 2,
                          {(1, 2): JetSeries.monomial(n, order, (1, 0))})

    def test_forms_are_abelian_ideal(self):
        w, e = self._closed(), FormalForm(2, 6, 2,
                                          {(1, 2): JetSeries.one(2, 6)})
        zero_x = FormalVectorField.zero(2, 6)
        a = ExtendedVectorField(zero_x, w)
        b = ExtendedVectorField(zero_x, e)
        res = tilde_bracket(a, b)
        assert res.field.is_zero() and res.form.is_zero()

    def test_module_action(self):
        x = field("t1*t1 d1", 2)
        w = self._closed()
        lifted = ExtendedVectorField.lift(x)
        res = tilde_bracket(lifted, ExtendedVectorField(
            FormalVectorField.zero(2, 6), w))
        assert res.field.is_zero()
        assert res.form == lie_derivative(x, w)

    def test_jacobi(self):
        triple = [field("t1*t2 d1", 2), field("t1*t2 d2", 2),
                  field("t1*t1 d1", 2)]
        a, b, c = (ExtendedVectorField.lift(x) for x in triple)
        jac = tilde_bracket(tilde_bracket(a, b), c)
        term2 = tilde_bracket(tilde_bracket(b, c), a)
        term3 = tilde_bracket(tilde_bracket(c, a), b)
        total_field = jac.field + term2.field + term3.field
        total_form = jac.form + term2.form + term3.form
        assert all(f.with_order(4).is_zero() for f in total_field.comps)
        assert total_form.with_order(4).is_zero()

    def test_closedness_enforced(self):
        t3 = JetSeries.variable(3, 6, 3)
        bad = FormalForm(3, 6, 2, {(1, 2): t3})
        with pytest.raises(ClosednessError):
            ExtendedVectorField(FormalVectorField.zero(3, 6), bad)


class TestOperandMemos:
    """The memoised actions equal their formulas rebuilt per state, with
    every mode taken by the recursion oracle."""

    POLICIES = (POL, TruncationPolicy(8, 14))
    MEMOS = (hc._tau_w_memo, hc._bracket_memo, hc._omega2_state)

    @staticmethod
    def _unmemoised(x, y, v):
        """rho_w and msv_defect with every operand rebuilt for this state."""
        def act(f, u):
            return recursion.mode_apply(tau_w(f, v.policy), 0, u)
        first = act(x, act(y, v)) - act(y, act(x, v))
        return act(x, v), first - act(vf_bracket(x, y), v)

    @staticmethod
    def _omega2_unmemoised(w, v, path):
        if path == "homotopy":
            theta = poincare_homotopy(w)
            return recursion.mode_apply(tau_omega1(theta, v.policy), 0, v)
        theta = staircase_primitive(w)
        return -recursion.mode_apply(translate(tau_omega1(theta, v.policy)),
                                     1, v)

    def test_match_unmemoised_formulas(self, rng):
        x = field("t1*t2 d1 + 1/2*t2^2 d2", 2)
        y = field("t1^2*t2 d2 - 3*t1 d1", 2)
        c2 = ch2_gf(x, y)
        for sweep in range(2):
            clear_mode_cache()
            for pol in self.POLICIES:
                for v in rng.sample(monomial_states(2, pol, 3, 2), 15):
                    rho, defect = self._unmemoised(x, y, v)
                    assert rho_w(x, v) == rho, (sweep, pol, v)
                    assert msv_defect(x, y, v) == defect, (sweep, pol, v)
                    for path in ("homotopy", "direct"):
                        assert rho_omega2(c2, v) == \
                            self._omega2_unmemoised(c2, v, path), \
                            (sweep, pol, v, path)

    def test_operands_built_once_per_sweep(self):
        x, y = field("t1*t2 d1", 2), field("t1*t2 d2", 2)
        c2 = ch2_gf(x, y)
        states = monomial_states(2, POL, 2, 2)[:10]
        for _ in range(2):
            clear_mode_cache()
            assert all(m.cache_info().currsize == 0 for m in self.MEMOS)
            for v in states:
                msv_defect(x, y, v)
                rho_omega2(c2, v)
            # x, y and [x, y] once each; one bracket; one primitive
            assert hc._tau_w_memo.cache_info().misses == 3
            assert hc._bracket_memo.cache_info().misses == 1
            assert hc._omega2_state.cache_info().misses == 1

    def test_non_closed_form_raises_on_every_call(self):
        t3 = JetSeries.variable(3, 6, 3)
        w = FormalForm(3, 6, 2, {(1, 2): t3})
        for _ in range(3):
            with pytest.raises(ClosednessError):
                rho_omega2(w, vacuum(3, POL))

    def test_memos_hold_at_most_their_bound(self):
        clear_mode_cache()
        v = vacuum(1, POL)
        count = hc.MEMO_SIZE + 20
        for k in range(count):
            x = FormalVectorField.monomial(1, 6, (0,), 1, coeff=k + 1)
            y = FormalVectorField.monomial(1, 6, (1,), 1, coeff=k + 1)
            w = FormalForm(2, 6, 2, {(1, 2): JetSeries.const(2, 6, k + 1)})
            msv_defect(x, y, v)
            rho_omega2(w, vacuum(2, POL))
        for memo in self.MEMOS:
            info = memo.cache_info()
            assert info.maxsize == hc.MEMO_SIZE
            assert info.misses >= count
            assert info.currsize == hc.MEMO_SIZE
