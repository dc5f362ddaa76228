"""Acceptance suite: one test per criterion, one printed verdict line each.

Run with ``pytest tests/test_acceptance.py -s`` to see the verdict lines;
every tolerance is pinned here, none deferred.
"""

import itertools
import math
import random
import time
from fractions import Fraction as F

from formaldisk import constants
from formaldisk.characters import (LatticeSpec, ch_sym_product,
                                   char_identity_check, eisenstein_lattice,
                                   eisenstein_q, eisenstein_q_numeric,
                                   eta_product, specialize_roots_zero,
                                   witten_exp_check)
from formaldisk.conformal import c1_defect, conformal_axiom_check
from formaldisk.feynman import (BumpField, spectral_eigenvalue, spectral_trace,
                                t_integral_limits, wheel2_check)
from formaldisk.gf import (LieCochainEval, alpha_primitive, c1_gf,
                           ce_diff_eval, ch2_gf)
from formaldisk.gms import d1_compare, group_cocycle_residual, pw_check
from formaldisk.hc import msv_defect, rho_omega2
from formaldisk.jets import basis_monomial_fields, de_rham, lie_derivative
from formaldisk.vertex import (TruncationPolicy, VAState, borcherds_check,
                               enumerate_basis, enumerate_c0_monomials,
                               enumerate_weight_monomials, mode_apply,
                               translate, vacuum)
from tests.conftest import random_unipotent
from tests.test_characters import q_coeffs, two_colored_partitions
from tests.test_feynman import BUMP_CONFIGS


def _verdict(num, ok, text):
    print(f"\n[{'PASS' if ok else 'FAIL'}] criterion {num}: {text}")
    assert ok, f"criterion {num} failed: {text}"


def test_criterion_1_vertex_axioms():
    start = time.monotonic()
    rng = random.Random(1001)
    pol = TruncationPolicy(20, 10)
    # stratify the basis by conformal weight so sampling covers the stated
    # domain (weights <= 4) uniformly in weight rather than skewing to the
    # heaviest monomials
    strata = {}
    for n in (1, 2):
        by_weight = {}
        for mono in enumerate_basis(n, 4, 2):
            by_weight.setdefault(
                sum(-s[2] for s in mono), []).append(mono)
        strata[n] = list(by_weight.values())

    def sample(n):
        mono = rng.choice(rng.choice(strata[n]))
        return VAState(n, pol, {mono: rng.randint(-3, 3) or 1})

    instances = 0
    for _ in range(500):
        n = rng.choice([1, 2])
        a, b, c = sample(n), sample(n), sample(n)
        l, m = rng.randint(-3, 3), rng.randint(-3, 3)
        # vacuum axioms
        assert mode_apply(a, -1, vacuum(n, pol)) == a
        assert mode_apply(a, max(m, 0), vacuum(n, pol)).is_zero()
        # translation axiom in mode form
        lhs = translate(mode_apply(a, m, b)) - mode_apply(a, m, translate(b))
        assert lhs == mode_apply(a, m - 1, b).scale(-m)
        # weight bookkeeping
        prod = mode_apply(a, m, b)
        if not prod.is_zero():
            assert prod.weight() == a.weight() + b.weight() - m - 1
        # composition (Borcherds) identity
        ok, _, _ = borcherds_check(a, b, c, l, m)
        assert ok
        instances += 1
    elapsed = time.monotonic() - start
    _verdict(1, instances >= 500 and elapsed < 60,
             f"vertex axioms on {instances} sampled instances "
             f"({elapsed:.1f}s < 60s)")


def test_criterion_2_msv_extension():
    pol = TruncationPolicy(8, 14)
    sign = constants.MSV_COCYCLE_SIGN
    checked = 0
    # every monomial pair of coefficient degree <= 3 at rank two,
    # against every state of weight <= 3 and c0-degree <= 4
    fields2 = basis_monomial_fields(2, 8, 3)
    states2 = [VAState(2, pol, {m: F(1)}) for m in enumerate_basis(2, 3, 4)]
    for x, y in itertools.combinations(fields2, 2):
        cocycle = ch2_gf(x, y)
        for v in states2:
            assert msv_defect(x, y, v) == \
                rho_omega2(cocycle, v).scale(sign), (x, y, v)
            checked += 1
    # sampled set at rank three
    rng = random.Random(1002)
    fields3 = basis_monomial_fields(3, 8, 3, min_degree=2)
    states3 = [VAState(3, pol, {m: F(1)}) for m in enumerate_basis(3, 2, 2)]
    for _ in range(8):
        x, y = rng.choice(fields3), rng.choice(fields3)
        for v in rng.sample(states3, 25):
            assert msv_defect(x, y, v) == \
                rho_omega2(ch2_gf(x, y), v).scale(sign), (x, y, v)
            checked += 1
    _verdict(2, True,
             f"extension cocycle identity, zero residual on {checked} "
             f"defect evaluations (global sign {sign})")


def test_criterion_3_conformal_structure():
    all_ok = True
    for n in (1, 2, 3):
        pol = TruncationPolicy(10, 6)
        max_c0 = 2 if n <= 2 else 1
        states = [VAState(n, pol, {m: F(1)})
                  for m in enumerate_basis(n, 4, max_c0)]
        verdicts = conformal_axiom_check(n, states)
        all_ok = all_ok and all(ok for _, ok, _ in verdicts)
    _verdict(3, all_ok,
             "L_(0) = T, L_(1) = grading on weight <= 4 states, "
             "and L_(3) L = n|0> for n = 1, 2, 3 (central charge 2n)")


def test_criterion_4_c1_anomaly():
    checked = 0
    for n in (1, 2):
        for x in basis_monomial_fields(n, 6, 3):
            _, kernel_ok, matches = c1_defect(x)
            assert kernel_ok, x
            assert matches, x
            checked += 1
    _verdict(4, True,
             f"conformal-anomaly one-form equals s' * c1 with s' = "
             f"{constants.CONFORMAL_ANOMALY_SIGN} on {checked} fields, "
             "kernel property exact")


def test_criterion_5_gelfand_fuks_cocycles():
    rng = random.Random(1003)
    c1_cochain = LieCochainEval(1, c1_gf, lie_derivative)
    ch2_cochain = LieCochainEval(2, ch2_gf, lie_derivative)
    pairs = triples = transgressions = 0
    for n in (2, 3):
        fields = basis_monomial_fields(n, 6, 3)
        for _ in range(15):
            x, y = rng.choice(fields), rng.choice(fields)
            assert ce_diff_eval(c1_cochain, x, y).with_order(3).is_zero()
            pairs += 1
            assert de_rham(alpha_primitive(x, y)) == ch2_gf(x, y)
            transgressions += 1
        for _ in range(10):
            x, y, z = (rng.choice(fields) for _ in range(3))
            assert ce_diff_eval(ch2_cochain, x, y, z).with_order(3).is_zero()
            triples += 1
    _verdict(5, True,
             f"d_Lie c1 = 0 on {pairs} pairs, d_Lie ch2 = 0 on {triples} "
             f"triples, d_dR alpha = ch2 on {transgressions} pairs, all exact")


def test_criterion_6_gms_polyakov_wiegmann():
    rng = random.Random(1004)
    pw_pairs = 0
    for n, count in ((2, 60), (3, 45)):
        for _ in range(count):
            f1 = random_unipotent(rng, n, 4)
            f2 = random_unipotent(rng, n, 4)
            ok, residual = pw_check(f1, f2)
            assert ok and residual.is_zero(), (f1, f2)
            pw_pairs += 1
    cocycle_triples = 0
    for n in (2, 3):
        f1 = random_unipotent(rng, n, 4)
        f2 = random_unipotent(rng, n, 4)
        f3 = random_unipotent(rng, n, 4)
        assert group_cocycle_residual(f1, f2, f3).is_zero()
        cocycle_triples += 1
    d1_pairs = 0
    fields = basis_monomial_fields(2, 5, 3, min_degree=1)
    for _ in range(12):
        x, y = rng.choice(fields), rng.choice(fields)
        _, _, ok = d1_compare(x, y)
        assert ok, (x, y)
        d1_pairs += 1
    _verdict(6, pw_pairs >= 100,
             f"Polyakov-Wiegmann residual zero on {pw_pairs} unipotent "
             f"pairs (jet order 4), group-cocycle residual zero on "
             f"{cocycle_triples} triples, van Est derivative matches ch2 "
             f"on {d1_pairs} pairs (scale {constants.GMS_D1_SCALE})")


def test_criterion_7_character_identity():
    start = time.monotonic()
    ok = char_identity_check(1, 4, 6).is_zero() and \
        char_identity_check(2, 4, 6).is_zero()
    elapsed = time.monotonic() - start
    _verdict(7, ok and elapsed < 30,
             f"Td * ch(Sym-tower) - eta^(-2n) e^(c1/2) Wit = 0 exactly for "
             f"n <= 2, degree <= 4, q-order 6 ({elapsed:.1f}s < 30s)")


def test_criterion_8_witten_exponential():
    r4 = eisenstein_q(4, 3)
    r4_ok = q_coeffs(r4) == [F(1, 120), F(2), F(18), F(56)]
    residual = witten_exp_check(2, 6, 4)
    _verdict(8, r4_ok and residual.is_zero(),
             "exp(sum R_2k ch_2k) - Wit = 0 at degree 6, q-order 4, n = 2 "
             "(roots reduced by the vanishing second character), with "
             "R_4 = 1/120 + 2q + 18q^2 + 56q^3 from the Bernoulli oracle")


def test_criterion_9_dimension_series():
    ok = True
    for n in (1, 2):
        spec = specialize_roots_zero(ch_sym_product(n, 2, 6))
        ok = ok and spec == eta_product(6, -2 * n)
    series = [int(c) for c in
              q_coeffs(specialize_roots_zero(ch_sym_product(1, 0, 5)))]
    oracle = two_colored_partitions(2, 5)
    ok = ok and series == [1, 2, 5, 10, 20, 36] == oracle
    # weight-space monomial counts: the weight-N slice of the truncated
    # state space must have q^N-coefficient times c0-truncation-factor
    # many monomials
    max_c0 = 2
    for n in (1, 2):
        eta = q_coeffs(eta_product(6, -2 * n))
        c0_factor = len(enumerate_c0_monomials(n, max_c0))
        basis = enumerate_basis(n, 4, max_c0)
        for weight in range(5):
            count = sum(1 for mono in basis
                        if sum(-s[2] for s in mono) == weight)
            expected = int(eta[weight]) * c0_factor
            ok = ok and count == expected
            ok = ok and len(enumerate_weight_monomials(n, weight)) == \
                int(eta[weight])
    _verdict(9, ok,
             "x -> 0 character specialization matches the two-colored "
             "partition series (1, 2, 5, 10, 20, 36 at n = 1) and the "
             "weight-space monomial counts for N <= 4, n <= 2")


def test_criterion_10_eisenstein_numerics():
    ok = abs(eisenstein_lattice(6, LatticeSpec(1j, 200))) < 1e-6
    omega = complex(-0.5, math.sqrt(3) / 2)
    ok = ok and abs(eisenstein_lattice(4, LatticeSpec(omega, 200))) < 1e-6
    worst = 0.0
    for k2 in (4, 6):
        for tau in (1j, 2j):
            lat = eisenstein_lattice(k2, LatticeSpec(tau, 200))
            ref = eisenstein_q_numeric(k2, tau)
            rel = abs(lat - ref) / abs(ref) if abs(ref) > 1e-9 else \
                abs(lat - ref)
            worst = max(worst, rel)
            ok = ok and rel < 1e-6
            trace = spectral_trace(k2, tau, 200)
            target = lat / (4 * math.pi ** 2) ** k2
            trel = abs(trace - target) / abs(target) if abs(target) > 1e-30 \
                else abs(trace - target)
            ok = ok and trel < 1e-6
    for lam in (1 + 0j, 2 - 1j):
        ok = ok and abs(spectral_eigenvalue(lam, 1j) -
                        1 / (4 * math.pi ** 2 * lam)) < 1e-12
    _verdict(10, ok,
             f"E6(i) and E4(hexagonal) vanish, lattice sums match "
             f"q-expansions (worst rel {worst:.1e} < 1e-6), and the "
             f"spectral trace equals (4 pi^2)^(-2k) E_2k at cutoff 200")


def test_criterion_11_feynman_analytics():
    start = time.monotonic()
    first, _ = t_integral_limits(1e-7)
    ok = abs(first - 0.5) < 1e-6
    rels = []
    for fields_f, fields_g in BUMP_CONFIGS:
        rep = wheel2_check(fields_f, fields_g)
        rels.append(rep["relative_error"])
        ok = ok and rep["relative_error"] < 0.05
    elapsed = time.monotonic() - start
    _verdict(11, ok and elapsed < 600,
             f"bare t-integral limit 1/2 within 1e-6 at eps = 1e-7; "
             f"wheel weight matches the contact term on 3 bump "
             f"configurations (rel errors {', '.join(f'{r:.3f}' for r in rels)}"
             f" < 0.05) in {elapsed:.1f}s < 600s")
