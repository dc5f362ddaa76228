"""Heat kernel, regulator integrals, the two-vertex wheel, spectral trace."""

import math

import numpy as np
import pytest

from formaldisk.characters import LatticeSpec, eisenstein_lattice
from formaldisk.constants import WHEEL_NORMALIZATION
from formaldisk.errors import ShapeError
from formaldisk import feynman
from formaldisk.feynman import (BumpField, QuadConfig, extrapolate_schedule,
                                heat_kernel, product_dz_values, product_values,
                                propagator, propagator_closed_form,
                                spectral_eigenvalue, spectral_trace,
                                t_integral_limits, t_integral_quadrature,
                                wheel2_check, wheel2_rhs, wheel2_weight)

BUMP_CONFIGS = [
    ([BumpField(0.0, 1.2, [0, 1.0]), BumpField(0.2 + 0.1j, 1.0, [0, 0.8])],
     [BumpField(0.1 - 0.2j, 1.1, [0, 1.0])]),
    ([BumpField(-0.3, 1.0, [0, 1.0])],
     [BumpField(0.3, 1.0, [0, 0.5, 0.5])]),
    ([BumpField(0.0, 1.5, [0, 0.7])],
     [BumpField(0.4j, 0.9, [0, 1.0]), BumpField(-0.2j, 1.3, [0, 0.6])]),
]

GOLDEN_RHS_CONFIG1 = 0.0010479943  # high-resolution quadrature oracle


class TestHeatKernel:
    def test_diagonal_value(self):
        assert abs(heat_kernel(0.3, 1 + 2j, 1 + 2j) -
                   1 / (4 * math.pi * 0.3)) < 1e-15

    def test_symmetry(self):
        assert heat_kernel(0.2, 0.0, 1j) == heat_kernel(0.2, 1j, 0.0)

    def test_unit_mass(self):
        xs = np.linspace(-8, 8, 801)
        h = xs[1] - xs[0]
        zz = xs[None, :] + 1j * xs[:, None]
        t = 0.37
        mass = np.sum(np.exp(-np.abs(zz) ** 2 / (4 * t)) /
                      (4 * math.pi * t)) * h * h
        assert abs(mass - 1.0) < 1e-6

    def test_positive_time_required(self):
        with pytest.raises(ShapeError):
            heat_kernel(0.0, 0, 0)


class TestTIntegrals:
    def test_closed_forms(self):
        first, second = t_integral_limits(1e-7)
        assert abs(first - 0.5) < 1e-6
        assert second < 1e-6
        f2 = t_integral_limits(1e-3)[1]
        assert abs(f2 - 1.25e-4) < 2e-7

    def test_boundary_sanity(self):
        first, _ = t_integral_limits(1.0 - 1e-12)
        assert abs(first) < 1e-9

    def test_quadrature_cross_check(self):
        for eps in (1e-7, 1e-3, 0.25):
            closed = t_integral_limits(eps)
            quad = t_integral_quadrature(eps)
            assert abs(closed[0] - quad[0]) < 1e-12
            assert abs(closed[1] - quad[1]) < 1e-12

    def test_nodes_are_computed_once_per_count(self):
        feynman._gauss_legendre.cache_clear()
        first = t_integral_quadrature(1e-5)
        assert feynman._gauss_legendre.cache_info().misses == 1
        assert t_integral_quadrature(1e-5) == first
        info = feynman._gauss_legendre.cache_info()
        assert (info.hits, info.misses) == (1, 1)
        nodes, weights = feynman._gauss_legendre(512)
        ref_nodes, ref_weights = np.polynomial.legendre.leggauss(512)
        assert nodes.tobytes() == ref_nodes.tobytes()
        assert weights.tobytes() == ref_weights.tobytes()
        with pytest.raises(ValueError):
            nodes[0] = 0.0

    def test_domain(self):
        with pytest.raises(ShapeError):
            t_integral_limits(0.0)
        with pytest.raises(ShapeError):
            t_integral_limits(1.5)


class TestPropagator:
    def test_against_closed_form(self):
        for z, w in [(0.3 + 0.1j, -0.2 + 0.4j), (1 + 0j, 0.5j)]:
            p = propagator(0.01, 1.0, z, w)
            ref = propagator_closed_form(0.01, 1.0, z, w)
            assert abs(p - ref) < 1e-10 * max(1.0, abs(ref))

    def test_diagonal_zero_and_antisymmetry(self):
        assert propagator(0.01, 1.0, 0.5j, 0.5j) == 0
        a = propagator(0.02, 0.7, 0.1, 0.3 + 0.2j)
        b = propagator(0.02, 0.7, 0.3 + 0.2j, 0.1)
        assert abs(a + b) < 1e-14

    def test_far_field_decay(self):
        assert abs(propagator(0.001, 0.01, 0.0, 8.0)) < 1e-12


class TestBumps:
    def test_support(self):
        f = BumpField(1 + 1j, 0.5, [0, 1.0])
        assert f.values(np.array([1 + 1j]))[0] > 0
        assert f.values(np.array([2 + 1j]))[0] == 0

    def test_dz_matches_finite_difference(self):
        f = BumpField(0.2, 0.9, [0, 0.7, 0.3])
        z0 = 0.1 + 0.2j
        h = 1e-6
        fx = (f.values(np.array([z0 + h]))[0] -
              f.values(np.array([z0 - h]))[0]) / (2 * h)
        fy = (f.values(np.array([z0 + 1j * h]))[0] -
              f.values(np.array([z0 - 1j * h]))[0]) / (2 * h)
        expected = 0.5 * (fx - 1j * fy)
        got = f.dz_values(np.array([z0]))[0]
        assert abs(got - expected) < 1e-7

    def test_product_rule(self):
        fields = [BumpField(0.0, 1.0, [0, 1.0]), BumpField(0.2, 1.1, [0, 0.5])]
        z0 = np.array([0.05 + 0.1j])
        h = 1e-6
        fx = (product_values(fields, z0 + h) -
              product_values(fields, z0 - h)) / (2 * h)
        fy = (product_values(fields, z0 + 1j * h) -
              product_values(fields, z0 - 1j * h)) / (2 * h)
        expected = 0.5 * (fx - 1j * fy)
        assert abs(product_dz_values(fields, z0)[0] - expected[0]) < 1e-6


class TestWheel:
    def test_scaling_multilinearity(self):
        fields_f, fields_g = BUMP_CONFIGS[1]
        lam = 1.7
        f2 = [BumpField(f.center, f.radius, [lam * c for c in f.coeffs])
              for f in fields_f]
        g2 = [BumpField(g.center, g.radius, [lam * c for c in g.coeffs])
              for g in fields_g]
        cfg = QuadConfig(grid_n=96)
        w1 = wheel2_weight(fields_f, fields_g, 0.05, cfg)
        w2 = wheel2_weight(f2, g2, 0.05, cfg)
        order = len(fields_f) + len(fields_g)
        assert abs(w2 - lam ** order * w1) < 1e-9 * abs(w1)

    def test_disjoint_supports_vanish(self):
        f = [BumpField(-5.0, 0.8, [0, 1.0])]
        g = [BumpField(5.0, 0.8, [0, 1.0])]
        val = wheel2_weight(f, g, 0.05, QuadConfig(grid_n=96))
        assert abs(val) < 1e-12

    def test_rhs_nearly_constant_second_factor(self):
        # dG/dz of a radial profile vanishes at its center, so an F-bump
        # concentrated there sees an almost-constant G and the rhs collapses
        # relative to a generic off-center configuration.
        g = [BumpField(0.0, 3.0, [0, 1.0])]
        centered = [BumpField(0.0, 0.05, [0, 1.0])]
        offset = [BumpField(1.5, 0.5, [0, 1.0])]
        cfg = QuadConfig(grid_n=256)
        small = abs(wheel2_rhs(centered, g, cfg))
        generic = abs(wheel2_rhs(offset, g, cfg))
        assert small < 0.05 * generic

    def test_rhs_swap_is_boundary_free(self):
        fields_f, fields_g = BUMP_CONFIGS[0]
        cfg = QuadConfig(grid_n=256)
        s = wheel2_rhs(fields_f, fields_g, cfg) + \
            wheel2_rhs(fields_g, fields_f, cfg)
        scale = abs(wheel2_rhs(fields_f, fields_g, cfg))
        assert abs(s) < 1e-4 * max(scale, 1e-12)

    def test_golden_number(self):
        rhs = wheel2_rhs(*BUMP_CONFIGS[1])
        assert abs(rhs - GOLDEN_RHS_CONFIG1) < 1e-5 * GOLDEN_RHS_CONFIG1

    def test_schedule_convergence_and_normalization(self):
        for fields_f, fields_g in BUMP_CONFIGS:
            rep = wheel2_check(fields_f, fields_g)
            diffs = [abs(b - a) for a, b in
                     zip(rep["weights"], rep["weights"][1:])]
            assert all(d2 < d1 for d1, d2 in zip(diffs, diffs[1:])), diffs
            assert rep["relative_error"] < 0.05

    def test_check_builds_the_same_weights_once(self):
        fields_f, fields_g = BUMP_CONFIGS[0]
        cfg = QuadConfig(grid_n=64)
        rep = wheel2_check(fields_f, fields_g, cfg)
        assert rep["weights"] == [wheel2_weight(fields_f, fields_g, e, cfg)
                                  for e in cfg.eps_schedule]
        assert rep["rhs"] == wheel2_rhs(fields_f, fields_g, cfg)
        with pytest.raises(ShapeError, match="eps must lie"):
            wheel2_check(fields_f, fields_g,
                         QuadConfig(grid_n=64, eps_schedule=(2.0, 0.5)))

    def test_extrapolation_exact_on_affine_data(self):
        eps = [0.1, 0.05, 0.02]
        vals = [3.0 + 2.0 * e for e in eps]
        assert abs(extrapolate_schedule(eps, vals) - 3.0) < 1e-12


class TestSpectral:
    def test_closed_form(self):
        for lam in (1 + 0j, 2 - 1j, 3 + 0.5j):
            for tau in (1j, 2j, 0.5 + 1j):
                ev = spectral_eigenvalue(lam, tau)
                assert abs(ev - 1 / (4 * math.pi ** 2 * lam)) < 1e-15

    def test_odd_under_negation(self):
        assert abs(spectral_eigenvalue(1 + 2j, 2j) +
                   spectral_eigenvalue(-1 - 2j, 2j)) < 1e-18

    def test_zero_mode_rejected(self):
        with pytest.raises(ShapeError):
            spectral_eigenvalue(0, 1j)

    def test_square_lattice_sixth_power_vanishes(self):
        assert abs(spectral_trace(6, 1j, 200)) < 1e-6

    def test_trace_identity(self):
        for k2 in (4, 6):
            for tau in (1j, 2j):
                st = spectral_trace(k2, tau, 200)
                ref = eisenstein_lattice(k2, LatticeSpec(tau, 200)) / \
                    (4 * math.pi ** 2) ** k2
                if abs(ref) > 1e-12:
                    assert abs(st - ref) / abs(ref) < 1e-6
                else:
                    assert abs(st - ref) < 1e-12


def test_wheel_normalization_constant():
    assert abs(WHEEL_NORMALIZATION - 1 / (4 * math.pi)) < 1e-15
