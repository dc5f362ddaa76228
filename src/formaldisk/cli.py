"""Command-line front end: one subcommand per verification theorem.

Every run emits a single JSON document (sorted keys, canonical term order)
on stdout; ``--out`` writes the same bytes to a file.  Exit status is 0 on
success, 1 when a verification check fails, 2 on usage or parse errors
and on any unexpected error, reported on one line.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from fractions import Fraction

from . import characters, conformal, feynman, gf, gms, hc, vertex
from .constants import MSV_COCYCLE_SIGN
from .errors import FormalDiskError, ParseError
from .grammar import (format_form, format_state, parse_automorphism,
                      parse_state, parse_vector_field)
from .jets import JetSeries, basis_monomial_fields
from .vertex import TruncationPolicy, VAState

SCHEMA = "formaldisk-result/1"


def _complex_out(z):
    z = complex(z)
    return {"im": z.imag, "re": z.real}


def _emit(doc, out_path):
    text = json.dumps(doc, sort_keys=True, indent=2, default=str) + "\n"
    sys.stdout.write(text)
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)


def _document(command, params, result, checks):
    return {
        "schema": SCHEMA,
        "command": command,
        "params": params,
        "result": result,
        "checks": [{"name": n, "ok": bool(ok), "detail": str(d)}
                   for (n, ok, d) in checks],
    }


def _policy(args):
    return TruncationPolicy(args.max_weight, args.max_c0)


def _floats(text, flag, count=None):
    """The comma-separated finite numbers of a flag's value, ``count`` of
    them when it is given."""
    try:
        values = [float(s) for s in text.split(",")]
        if not all(map(math.isfinite, values)) or \
                len(values) != (count or len(values)):
            raise ValueError
    except ValueError:
        size = f"{count} " if count else ""
        raise FormalDiskError(f"--{flag} expects {size}comma-separated "
                              f"finite numbers, got {text!r}") from None
    return values


def _tolerance(args):
    if not 0 < args.tolerance < math.inf:
        raise FormalDiskError(f"--tolerance must be positive and finite, "
                              f"got {args.tolerance}")
    return args.tolerance


def _check_orders(args):
    """A negative truncation order or policy bound is a usage error naming
    its flag."""
    for flag in ("jet_order", "chern_degree", "q_order", "max_weight",
                 "max_c0"):
        if getattr(args, flag, 0) < 0:
            raise FormalDiskError(f"--{flag.replace('_', '-')} must be >= 0")


def _check_truncation(args):
    """A character check at chern degree 0 and q-order 0 compares only the
    constant 1 that every factor is normalised to, so it is a usage error."""
    if args.chern_degree == 0 and args.q_order == 0:
        raise FormalDiskError("--chern-degree 0 with --q-order 0 leaves "
                              "nothing to compare; raise either")


def _finish(doc, args):
    _emit(doc, args.out)
    return 0 if all(c["ok"] for c in doc["checks"]) else 1


# -- subcommand handlers --------------------------------------------------------


def cmd_mode_apply(args):
    pol = _policy(args)
    a = parse_state(args.state, args.rank, pol)
    v = parse_state(args.on, args.rank, pol)
    res = vertex.mode_apply(a, args.mode, v)
    doc = _document("mode-apply",
                    {"rank": args.rank, "state": args.state, "mode": args.mode,
                     "on": args.on, "max_weight": args.max_weight,
                     "max_c0": args.max_c0},
                    {"payload": format_state(res)}, [])
    return _finish(doc, args)


def cmd_borcherds(args):
    pol = _policy(args)
    a = parse_state(args.a, args.rank, pol)
    b = parse_state(args.b, args.rank, pol)
    c = parse_state(args.c, args.rank, pol)
    ok, lhs, rhs = vertex.borcherds_check(a, b, c, args.l, args.m)
    doc = _document("borcherds",
                    {"rank": args.rank, "a": args.a, "b": args.b, "c": args.c,
                     "l": args.l, "m": args.m},
                    {"lhs": format_state(lhs), "rhs": format_state(rhs)},
                    [("borcherds identity", ok, "exact comparison")])
    return _finish(doc, args)


def cmd_rho_w(args):
    pol = _policy(args)
    x = parse_vector_field(args.x, args.rank, args.jet_order)
    v = parse_state(args.on, args.rank, pol)
    res = hc.rho_w(x, v)
    doc = _document("rho-w",
                    {"rank": args.rank, "x": args.x, "on": args.on,
                     "jet_order": args.jet_order},
                    {"payload": format_state(res)}, [])
    return _finish(doc, args)


def cmd_msv_check(args):
    x = parse_vector_field(args.x, args.rank, args.jet_order)
    y = parse_vector_field(args.y, args.rank, args.jet_order)
    cocycle = gf.ch2_gf(x, y)
    pol = TruncationPolicy(args.max_weight + 4, args.max_c0 + 8)
    monos = vertex.enumerate_basis(args.rank, args.max_weight, args.max_c0)
    bad = 0
    for mono in monos:
        v = VAState(args.rank, pol, {mono: Fraction(1)})
        lhs = hc.msv_defect(x, y, v)
        rhs = hc.rho_omega2(cocycle, v).scale(MSV_COCYCLE_SIGN)
        if lhs != rhs:
            bad += 1
    doc = _document("msv-check",
                    {"rank": args.rank, "x": args.x, "y": args.y,
                     "max_weight": args.max_weight, "max_c0": args.max_c0},
                    {"cocycle": format_form(cocycle), "states": len(monos),
                     "sign": MSV_COCYCLE_SIGN},
                    [("defect equals sign * rho_omega2(ch2)", bad == 0,
                      f"{len(monos) - bad}/{len(monos)} states")])
    return _finish(doc, args)


def cmd_ch2(args):
    x = parse_vector_field(args.x, args.rank, args.jet_order)
    y = parse_vector_field(args.y, args.rank, args.jet_order)
    w = gf.ch2_gf(x, y)
    doc = _document("ch2", {"rank": args.rank, "x": args.x, "y": args.y,
                            "jet_order": args.jet_order},
                    {"form": format_form(w)}, [])
    return _finish(doc, args)


def cmd_c1(args):
    x = parse_vector_field(args.x, args.rank, args.jet_order)
    doc = _document("c1", {"rank": args.rank, "x": args.x,
                           "jet_order": args.jet_order},
                    {"form": format_form(gf.c1_gf(x))}, [])
    return _finish(doc, args)


def cmd_atiyah(args):
    x = parse_vector_field(args.x, args.rank, args.jet_order)
    mat = gf.atiyah_rep(x)
    doc = _document("atiyah", {"rank": args.rank, "x": args.x,
                               "jet_order": args.jet_order},
                    {"matrix": [[format_form(e) for e in row]
                                for row in mat.entries]}, [])
    return _finish(doc, args)


def cmd_pw_check(args):
    f1 = parse_automorphism(args.f1, args.rank, args.jet_order)
    f2 = parse_automorphism(args.f2, args.rank, args.jet_order)
    ok, residual = gms.pw_check(f1, f2)
    doc = _document("pw-check",
                    {"rank": args.rank, "f1": args.f1, "f2": args.f2,
                     "jet_order": args.jet_order},
                    {"residual": format_form(residual)},
                    [("polyakov-wiegmann", ok, "exact at truncation")])
    return _finish(doc, args)


def cmd_gms_d1(args):
    x = parse_vector_field(args.x, args.rank, args.jet_order)
    y = parse_vector_field(args.y, args.rank, args.jet_order)
    lie, c2, ok = gms.d1_compare(x, y)
    doc = _document("gms-d1",
                    {"rank": args.rank, "x": args.x, "y": args.y,
                     "jet_order": args.jet_order},
                    {"lie_level": format_form(lie), "ch2": format_form(c2)},
                    [("derivative of lifted cocycle matches ch2", ok,
                      "global scale from constants.GMS_D1_SCALE")])
    return _finish(doc, args)


def cmd_conformal_check(args):
    pol = TruncationPolicy(args.max_weight + 4, args.max_c0 + 4)
    monos = vertex.enumerate_basis(args.rank, args.max_weight, args.max_c0)
    states = [VAState(args.rank, pol, {m: Fraction(1)}) for m in monos]
    verdicts = conformal.conformal_axiom_check(args.rank, states)
    fields = basis_monomial_fields(args.rank, args.jet_order, 3)
    defect_ok = all(d[2] and d[1] for d in map(conformal.c1_defect, fields))
    verdicts.append(("c1 defect matches divergence class", defect_ok,
                     f"{len(fields)} monomial fields"))
    doc = _document("conformal-check",
                    {"rank": args.rank, "max_weight": args.max_weight,
                     "max_c0": args.max_c0},
                    {"states": len(states)},
                    verdicts)
    return _finish(doc, args)


def cmd_char_identity(args):
    _check_truncation(args)
    res = characters.char_identity_check(args.rank, args.chern_degree,
                                         args.q_order)
    doc = _document("char-identity",
                    {"rank": args.rank, "chern_degree": args.chern_degree,
                     "q_order": args.q_order},
                    {"residual_zero": res.is_zero()},
                    [("Td * ch(Sym) = eta^{-2n} e^{c1/2} Wit", res.is_zero(),
                      "exact rational q-series")])
    return _finish(doc, args)


def cmd_witten_log(args):
    zero = JetSeries.zero(args.rank, args.chern_degree)
    lw = characters.log_witten(args.rank, args.chern_degree, args.q_order)
    table = {}
    for m in range(lw.order + 1):
        coeff = lw.coeffs.get((m,), zero)
        entries = {}
        for e in sorted(coeff.coeffs, key=lambda e: (sum(e), e)):
            mono = "*".join(f"x{i + 1}^{k}" for i, k in enumerate(e) if k) or "1"
            entries[mono] = str(coeff.coeffs[e])
        table[f"q^{m}"] = entries
    doc = _document("witten-log",
                    {"rank": args.rank, "chern_degree": args.chern_degree,
                     "q_order": args.q_order},
                    {"series": table}, [])
    return _finish(doc, args)


def cmd_witten_exp_check(args):
    _check_truncation(args)
    res, full = characters.witten_exp_residuals(args.rank, args.chern_degree,
                                                args.q_order)
    doc = _document("witten-exp-check",
                    {"rank": args.rank, "chern_degree": args.chern_degree,
                     "q_order": args.q_order},
                    {"residual_mod_p2_zero": res.is_zero(),
                     "residual_full_zero": full.is_zero()},
                    [("exp(log Wit) = Wit mod (p_2)", res.is_zero(), "exact"),
                     ("exp(log Wit + R_2 ch_2) = Wit", full.is_zero(), "exact")])
    return _finish(doc, args)


def cmd_eisenstein(args):
    tol = _tolerance(args)
    tau = complex(*_floats(args.tau, "tau", 2))
    spec = characters.LatticeSpec(tau, args.cutoff)
    value = characters.eisenstein_lattice(args.weight, spec)
    qval = characters.eisenstein_q_numeric(args.weight, tau, args.q_order)
    denom = max(abs(qval), 1e-30)
    rel = abs(value - qval) / denom
    agree = rel < tol or abs(value - qval) < tol
    doc = _document("eisenstein",
                    {"weight": args.weight, "tau": args.tau,
                     "cutoff": args.cutoff, "q_order": args.q_order,
                     "tolerance": args.tolerance},
                    {"lattice": _complex_out(value),
                     "q_expansion": _complex_out(qval),
                     "relative_error": rel},
                    [("lattice sum matches q-expansion", agree,
                      f"tolerance {args.tolerance}")])
    return _finish(doc, args)


def _read_profiles(path):
    try:
        # undecodable bytes become U+FFFD and fail the line grammar below
        with open(path, encoding="utf-8", errors="replace") as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise FormalDiskError(
            f"cannot read --profiles {path}: {exc.strerror}") from exc
    groups = {"F": [], "G": []}
    for line_no, line in enumerate(lines, 1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        parts = body.split()
        if parts[0] not in groups or len(parts) < 5:
            raise ParseError(
                f"profile line {line_no}: expected "
                "'F|G cx cy radius c1 [c2 ...]'", body, 0)
        try:
            cx, cy, radius, *coeffs = nums = [float(x) for x in parts[1:]]
            if not all(map(math.isfinite, nums)):
                raise ValueError
        except ValueError:
            raise ParseError(f"profile line {line_no}: expected numbers "
                             f"after '{parts[0]}'", body, 0) from None
        groups[parts[0]].append(
            feynman.BumpField(complex(cx, cy), radius, coeffs))
    if not groups["F"] or not groups["G"]:
        raise ParseError("profiles file needs at least one F and one G line",
                         "", 0)
    return groups["F"], groups["G"]


def cmd_feynman_wheel2(args):
    fields_f, fields_g = _read_profiles(args.profiles)
    tol = _tolerance(args)
    sched = _floats(args.eps_schedule, "eps-schedule")
    cfg = feynman.QuadConfig(grid_n=args.grid, eps_schedule=sched)
    rep = feynman.wheel2_check(fields_f, fields_g, cfg)
    ok = rep["relative_error"] < tol
    doc = _document("feynman wheel2",
                    {"profiles": args.profiles, "grid": args.grid,
                     "eps_schedule": args.eps_schedule,
                     "tolerance": args.tolerance},
                    {"weights": [_complex_out(w) for w in rep["weights"]],
                     "normalized": _complex_out(rep["normalized"]),
                     "rhs": _complex_out(rep["rhs"]),
                     "relative_error": rep["relative_error"]},
                    [("wheel weight matches contact term", ok,
                      f"tolerance {args.tolerance}")])
    return _finish(doc, args)


def cmd_feynman_t_limits(args):
    first, second = feynman.t_integral_limits(args.eps)
    q1, q2 = feynman.t_integral_quadrature(args.eps)
    ok = abs(first - q1) < 1e-10 and abs(second - q2) < 1e-10
    doc = _document("feynman t-limits",
                    {"eps": args.eps},
                    {"first": first, "second": second,
                     "first_limit": 0.5, "second_limit": 0.0},
                    [("closed forms match quadrature", ok, "1e-10")])
    return _finish(doc, args)


# -- parser ----------------------------------------------------------------------


def _add_common(sp, rank=True, jet=False, state=False, qseries=False):
    if rank:
        sp.add_argument("--rank", type=int, required=True)
    if jet:
        sp.add_argument("--jet-order", type=int, default=6)
    if state:
        sp.add_argument("--max-weight", type=int, default=8)
        sp.add_argument("--max-c0", type=int, default=10)
    if qseries:
        sp.add_argument("--chern-degree", type=int, default=4)
        sp.add_argument("--q-order", type=int, default=6)
    sp.add_argument("--out", default=None, help="also write the document here")


def build_parser():
    p = argparse.ArgumentParser(
        prog="formaldisk",
        description="Exact vertex-algebra and formal-geometry verifier "
                    "for the disk model, with numerical anomaly checks.")
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("mode-apply", help="n-th product of two states")
    _add_common(sp, state=True)
    sp.add_argument("--state", required=True)
    sp.add_argument("--mode", type=int, required=True)
    sp.add_argument("--on", required=True)
    sp.set_defaults(fn=cmd_mode_apply)

    sp = sub.add_parser("borcherds", help="check the mode-composition identity")
    _add_common(sp, state=True)
    for flag in ("--a", "--b", "--c"):
        sp.add_argument(flag, required=True)
    sp.add_argument("--l", type=int, required=True)
    sp.add_argument("--m", type=int, required=True)
    sp.set_defaults(fn=cmd_borcherds)

    sp = sub.add_parser("rho-w", help="act by a formal vector field")
    _add_common(sp, jet=True, state=True)
    sp.add_argument("--x", required=True)
    sp.add_argument("--on", required=True)
    sp.set_defaults(fn=cmd_rho_w)

    sp = sub.add_parser("msv-check", help="extension-cocycle identity")
    _add_common(sp, jet=True)
    sp.add_argument("--x", required=True)
    sp.add_argument("--y", required=True)
    sp.add_argument("--max-weight", type=int, default=3)
    sp.add_argument("--max-c0", type=int, default=3)
    sp.set_defaults(fn=cmd_msv_check)

    sp = sub.add_parser("ch2", help="second Chern-character cocycle")
    _add_common(sp, jet=True)
    sp.add_argument("--x", required=True)
    sp.add_argument("--y", required=True)
    sp.set_defaults(fn=cmd_ch2)

    sp = sub.add_parser("c1", help="divergence (first Chern) cocycle")
    _add_common(sp, jet=True)
    sp.add_argument("--x", required=True)
    sp.set_defaults(fn=cmd_c1)

    sp = sub.add_parser("atiyah", help="connection-failure representative")
    _add_common(sp, jet=True)
    sp.add_argument("--x", required=True)
    sp.set_defaults(fn=cmd_atiyah)

    sp = sub.add_parser("pw-check", help="Polyakov-Wiegmann identity")
    _add_common(sp, jet=True)
    sp.add_argument("--f1", required=True)
    sp.add_argument("--f2", required=True)
    sp.set_defaults(fn=cmd_pw_check)

    sp = sub.add_parser("gms-d1", help="derivative of the group cocycle vs ch2")
    _add_common(sp, jet=True)
    sp.add_argument("--x", required=True)
    sp.add_argument("--y", required=True)
    sp.set_defaults(fn=cmd_gms_d1)

    sp = sub.add_parser("conformal-check", help="Virasoro axioms and anomaly")
    _add_common(sp)
    sp.add_argument("--jet-order", type=int, default=6)
    sp.add_argument("--max-weight", type=int, default=3)
    sp.add_argument("--max-c0", type=int, default=2)
    sp.set_defaults(fn=cmd_conformal_check)

    sp = sub.add_parser("char-identity", help="graded character identity")
    _add_common(sp, qseries=True)
    sp.set_defaults(fn=cmd_char_identity)

    sp = sub.add_parser("witten-log", help="logarithmic Witten class table")
    _add_common(sp, qseries=True)
    sp.set_defaults(fn=cmd_witten_log)

    sp = sub.add_parser("witten-exp-check", help="exp(log Wit) vs Wit")
    _add_common(sp, qseries=True)
    sp.set_defaults(fn=cmd_witten_exp_check)

    sp = sub.add_parser("eisenstein", help="lattice sum vs q-expansion")
    sp.add_argument("--weight", type=int, required=True)
    sp.add_argument("--tau", required=True, help="a,b for tau = a + b i")
    sp.add_argument("--cutoff", type=int, default=200)
    sp.add_argument("--q-order", type=int, default=40)
    sp.add_argument("--tolerance", type=float, default=1e-6)
    sp.add_argument("--out", default=None)
    sp.set_defaults(fn=cmd_eisenstein)

    fey = sub.add_parser("feynman", help="regulated-integral checks")
    fsub = fey.add_subparsers(dest="feynman_command", required=True)

    sp = fsub.add_parser("wheel2", help="two-vertex wheel vs contact term")
    sp.add_argument("--profiles", required=True,
                    help="text table: F|G cx cy radius c1 [c2 ...]")
    sp.add_argument("--eps-schedule", default="0.1,0.05,0.02,0.01")
    sp.add_argument("--grid", type=int, default=192)
    sp.add_argument("--tolerance", type=float, default=0.05)
    sp.add_argument("--out", default=None)
    sp.set_defaults(fn=cmd_feynman_wheel2)

    sp = fsub.add_parser("t-limits", help="regulator t-integrals")
    sp.add_argument("--eps", type=float, required=True)
    sp.add_argument("--out", default=None)
    sp.set_defaults(fn=cmd_feynman_t_limits)

    return p


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _check_orders(args)
        return args.fn(args)
    except ParseError as exc:
        sys.stderr.write(exc.caret_diagnostic() + "\n")
        return 2
    except FormalDiskError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except Exception as exc:
        # a fault of the program is no failed check: exit 1 would say so
        sys.stderr.write(f"error: unexpected {exc!r}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
