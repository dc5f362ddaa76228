"""Virasoro structure of the state space and the conformal anomaly.

The conformal vector is L = sum_i b^i_{-1} c^i_{-1}; its modes realize the
translation operator (zeroth product), the grading (first product), and a
central charge of twice the rank, certified by L_(3) L = n |0>.  Vector
fields move L, and the second mode of that displacement is a one-form
matching the divergence class up to one calibrated sign.
"""

from __future__ import annotations

from .constants import CONFORMAL_ANOMALY_SIGN
from .errors import ShapeError
from .gf import c1_gf
from .hc import rho_w, state_to_jet, tau_omega1
from .jets import FormalForm, FormalVectorField, JetSeries
from .vertex import (KIND_B, KIND_C, TruncationPolicy, VAState, mode_apply,
                     translate)


def virasoro_vector(n, policy) -> VAState:
    """L = sum_i b^i_{-1} c^i_{-1}, of conformal weight two."""
    if n < 1:
        raise ShapeError("rank must be >= 1")
    out = VAState.zero(n, policy)
    for i in range(1, n + 1):
        out = out + VAState.generator(n, policy, KIND_B, i, -1) * \
            VAState.generator(n, policy, KIND_C, i, -1)
    return out


def conformal_axiom_check(n, states):
    """Check L_(0) = T, L_(1) = grading, and L_(3) L = n |0> on the samples,
    of which there must be at least one, under the first sample's policy.

    Returns a list of (name, ok, detail) verdicts; all-exact comparisons.
    """
    if not states:
        raise ShapeError("conformal_axiom_check needs at least one state")
    policy = states[0].policy
    lvec = virasoro_vector(n, policy)
    verdicts = []
    ok_t = True
    for v in states:
        if mode_apply(lvec, 0, v) != translate(v):
            ok_t = False
            break
    verdicts.append(("L_(0) = T", ok_t, f"{len(states)} states"))
    ok_grading = True
    for v in states:
        for w, comp in v.weight_decomposition().items():
            if mode_apply(lvec, 1, comp) != comp.scale(w):
                ok_grading = False
                break
        if not ok_grading:
            break
    verdicts.append(("L_(1) = grading", ok_grading, f"{len(states)} states"))
    central = mode_apply(lvec, 3, lvec)
    expected = VAState.vacuum(n, policy).scale(n)
    verdicts.append(("L_(3) L = n|0> (central charge 2n)",
                     central == expected, f"rank {n}"))
    return verdicts


def c1_defect(x: FormalVectorField):
    """The one-form read off from (rho_W(X) L)_(2) on weight-one states.

    Returns (alpha_form, kernel_ok, matches) where kernel_ok reports that
    the operator kills the image of tau_omega1 (the T c_0 span), and
    ``matches`` compares alpha_form with the calibrated sign times c1(X).
    """
    n, order = x.n, x.order
    policy = TruncationPolicy(6, max(8, order + 2))
    lvec = virasoro_vector(n, policy)
    moved = rho_w(x, lvec)

    # kernel property on the one-form image: (X.L)_(2) tau_omega1(theta) = 0
    kernel_ok = True
    for j in range(1, n + 1):
        for e_idx in range(n + 1):
            if e_idx == 0:
                f = JetSeries.one(n, order)
            else:
                f = JetSeries.variable(n, order, e_idx)
            theta = FormalForm(n, order, 1, {(j,): f})
            image = tau_omega1(theta, policy)
            if not mode_apply(moved, 2, image).is_zero():
                kernel_ok = False

    comps = {}
    for j in range(1, n + 1):
        bj = VAState.generator(n, policy, KIND_B, j, -1)
        val = mode_apply(moved, 2, bj)
        if val.is_zero():
            continue
        comps[(j,)] = state_to_jet(val, order)
    alpha = FormalForm(n, order, 1, comps)
    matches = alpha == c1_gf(x).scale(CONFORMAL_ANOMALY_SIGN)
    return alpha, kernel_ok, matches
