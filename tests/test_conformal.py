"""Virasoro vector, its axioms, and the conformal anomaly one-form."""

from fractions import Fraction as F

import pytest

from formaldisk.conformal import (c1_defect, conformal_axiom_check,
                                  virasoro_vector)
from formaldisk.constants import CONFORMAL_ANOMALY_SIGN
from formaldisk.errors import ShapeError
from formaldisk.gf import c1_gf
from formaldisk.grammar import format_state, parse_vector_field
from formaldisk.hc import rho_omega2, rho_w, tau_omega1
from formaldisk.jets import FormalForm, JetSeries, basis_monomial_fields
from formaldisk.vertex import (TruncationPolicy, VAState, mode_apply,
                               translate)
from tests.conftest import monomial_states

POL = TruncationPolicy(10, 8)


class TestVirasoroVector:
    def test_rank_one(self):
        assert format_state(virasoro_vector(1, POL)) == "b[1,-1]*c[1,-1]"

    def test_rank_two(self):
        assert format_state(virasoro_vector(2, POL)) == \
            "b[1,-1]*c[1,-1] + b[2,-1]*c[2,-1]"

    def test_weight_two(self):
        for n in (1, 2, 3):
            assert virasoro_vector(n, POL).weight() == 2


class TestAxioms:
    def test_verdicts_all_ranks(self):
        for n in (1, 2, 3):
            states = monomial_states(n, POL, 3, 2)
            verdicts = conformal_axiom_check(n, states)
            assert all(ok for _, ok, _ in verdicts), verdicts

    def test_no_states_is_refused(self):
        # three passing verdicts on no states would check nothing
        with pytest.raises(ShapeError, match="at least one state"):
            conformal_axiom_check(2, [])

    def test_l0_is_translation(self):
        lvec = virasoro_vector(1, POL)
        c0 = VAState.generator(1, POL, 1, 1, 0)
        assert mode_apply(lvec, 0, c0) == translate(c0)

    def test_l1_grading_example(self):
        lvec = virasoro_vector(1, POL)
        cm1 = VAState.generator(1, POL, 1, 1, -1)
        assert mode_apply(lvec, 1, cm1) == cm1

    def test_central_charge(self):
        for n in (1, 2, 3):
            lvec = virasoro_vector(n, POL)
            assert mode_apply(lvec, 3, lvec) == \
                VAState.vacuum(n, POL).scale(n)

    def test_closed_two_forms_kill_l(self):
        lvec = virasoro_vector(2, POL)
        for f in (JetSeries.one(2, 6), JetSeries.monomial(2, 6, (1, 1))):
            w = FormalForm(2, 6, 2, {(1, 2): f})
            assert rho_omega2(w, lvec).is_zero()


class TestAnomaly:
    def test_linear_fields_have_no_defect(self):
        for text in ("t1 d1", "t2 d1", "t1 d2"):
            x = parse_vector_field(text, 2, 6)
            alpha, kernel_ok, matches = c1_defect(x)
            assert alpha.is_zero() and kernel_ok and matches

    def test_rank_one_quadratic(self):
        x = parse_vector_field("t1^2 d1", 1, 6)
        alpha, kernel_ok, matches = c1_defect(x)
        assert kernel_ok and matches
        assert alpha == FormalForm.dt(1, 6, 1).scale(2 * CONFORMAL_ANOMALY_SIGN)

    def test_kernel_property_explicit(self):
        x = parse_vector_field("t1^2*t2 d1", 2, 6)
        lvec = virasoro_vector(2, POL)
        moved = rho_w(x, lvec)
        theta = FormalForm(2, 6, 1, {(2,): JetSeries.variable(2, 6, 1)})
        assert mode_apply(moved, 2, tau_omega1(theta, POL)).is_zero()

    def test_defect_matches_divergence_class(self):
        for n in (1, 2):
            for x in basis_monomial_fields(n, 6, 3):
                alpha, kernel_ok, matches = c1_defect(x)
                assert kernel_ok, x
                assert matches, (x, alpha, c1_gf(x))
