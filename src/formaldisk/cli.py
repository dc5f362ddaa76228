"""Command-line front end: one subcommand per verification theorem.

One table, :data:`COMMANDS`, states every subcommand: its name, help line,
flags with their defaults, and the flags its document leaves out of
``params``.  :func:`build_parser` builds the parser from it once, at the
first :func:`main` call.  A handler ``cmd_<name>`` returns ``(result,
checks)``; :func:`main` looks it up on this module by name at every call, so
a rebound handler is the one that runs, and alone builds the document,
emits it through :func:`_emit` and picks the exit status.

Every run emits a single JSON document (sorted keys, canonical term order)
on stdout; ``--out`` writes the same bytes to a file.  Exit status is 0 on
success, 1 when a verification check fails, 2 on usage or parse errors
and on any unexpected error, reported on one line with nothing on stdout.
A term past ``--max-weight`` or ``--max-c0`` is refused naming the flag.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from typing import NamedTuple

from . import characters, conformal, feynman, gf, gms, hc, vertex
from .constants import MSV_COCYCLE_SIGN
from .errors import FormalDiskError, ParseError, TruncationOverflowError
from .grammar import (format_form, format_rational, format_state,
                      parse_automorphism, parse_state, parse_vector_field)
from .jets import JetSeries, basis_monomial_fields
from .vertex import CODE_LIMITS, TruncationPolicy, VAState

SCHEMA = "formaldisk-result/1"


def _complex_out(z):
    z = complex(z)
    return {"im": z.imag, "re": z.real}


def _emit(doc, out_path):
    """Write the document to ``--out``, then to stdout, so that a path that
    cannot be written is a usage error with nothing printed."""
    text = json.dumps(doc, sort_keys=True, indent=2, default=str) + "\n"
    if out_path:
        try:
            with open(out_path, "w") as fh:
                fh.write(text)
        except OSError as exc:
            raise FormalDiskError(
                f"cannot write --out {out_path}: {exc.strerror}") from exc
    sys.stdout.write(text)


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


def _check_form_degree(args, degree):
    """A check that compares ``degree``-forms compares nothing below rank
    ``degree``, where they vanish identically, so it is a usage error."""
    if args.rank < degree:
        raise FormalDiskError(
            f"--rank {args.rank} leaves no {degree}-form to compare; this "
            f"check needs --rank >= {degree}")


def _check_truncation(args):
    """A character check at chern degree 0 and q-order 0 compares only the
    constant 1 that every factor is normalised to, so it is a usage error."""
    if args.chern_degree == 0 and args.q_order == 0:
        raise FormalDiskError("--chern-degree 0 with --q-order 0 leaves "
                              "nothing to compare; raise either")


# -- subcommand handlers: each returns (result, [(name, ok, detail), ...]) ------


def cmd_mode_apply(args):
    pol = TruncationPolicy(args.max_weight, args.max_c0)
    a = parse_state(args.state, args.rank, pol)
    v = parse_state(args.on, args.rank, pol)
    return {"payload": format_state(vertex.mode_apply(a, args.mode, v))}, []


def cmd_borcherds(args):
    pol = TruncationPolicy(args.max_weight, args.max_c0)
    a = parse_state(args.a, args.rank, pol)
    b = parse_state(args.b, args.rank, pol)
    c = parse_state(args.c, args.rank, pol)
    ok, lhs, rhs = vertex.borcherds_check(a, b, c, args.l, args.m)
    return ({"lhs": format_state(lhs), "rhs": format_state(rhs)},
            [("borcherds identity", ok, "exact comparison")])


def cmd_rho_w(args):
    pol = TruncationPolicy(args.max_weight, args.max_c0)
    x = parse_vector_field(args.x, args.rank, args.jet_order)
    v = parse_state(args.on, args.rank, pol)
    return {"payload": format_state(hc.rho_w(x, v))}, []


def cmd_msv_check(args):
    x, y = hc.lift_pair(parse_vector_field(args.x, args.rank, args.jet_order),
                        parse_vector_field(args.y, args.rank, args.jet_order))
    cocycle = gf.ch2_gf(x, y)
    monos = vertex.enumerate_basis(args.rank, args.max_weight, args.max_c0)
    bad = 0
    for mono in monos:
        v = VAState(args.rank, CODE_LIMITS, {mono: 1})
        lhs = hc.msv_defect(x, y, v)
        rhs = hc.rho_omega2(cocycle, v).scale(MSV_COCYCLE_SIGN)
        if lhs != rhs:
            bad += 1
    return ({"cocycle": format_form(cocycle), "states": len(monos),
             "sign": MSV_COCYCLE_SIGN},
            [("defect equals sign * rho_omega2(ch2)", bad == 0,
              f"{len(monos) - bad}/{len(monos)} states")])


def cmd_ch2(args):
    x = parse_vector_field(args.x, args.rank, args.jet_order)
    y = parse_vector_field(args.y, args.rank, args.jet_order)
    return {"form": format_form(gf.ch2_gf(x, y))}, []


def cmd_c1(args):
    x = parse_vector_field(args.x, args.rank, args.jet_order)
    return {"form": format_form(gf.c1_gf(x))}, []


def cmd_atiyah(args):
    x = parse_vector_field(args.x, args.rank, args.jet_order)
    return {"matrix": [[format_form(e) for e in row]
                       for row in gf.atiyah_rep(x).entries]}, []


def cmd_pw_check(args):
    f1 = parse_automorphism(args.f1, args.rank, args.jet_order)
    f2 = parse_automorphism(args.f2, args.rank, args.jet_order)
    _check_form_degree(args, 3)
    ok, residual = gms.pw_check(f1, f2)
    return ({"residual": format_form(residual)},
            [("polyakov-wiegmann", ok, "exact at truncation")])


def cmd_gms_d1(args):
    x = parse_vector_field(args.x, args.rank, args.jet_order)
    y = parse_vector_field(args.y, args.rank, args.jet_order)
    _check_form_degree(args, 2)
    lie, c2, ok = gms.d1_compare(x, y)
    return ({"lie_level": format_form(lie), "ch2": format_form(c2)},
            [("derivative of lifted cocycle matches ch2", ok,
              "global scale from constants.GMS_D1_SCALE")])


def cmd_conformal_check(args):
    monos = vertex.enumerate_basis(args.rank, args.max_weight, args.max_c0)
    states = [VAState(args.rank, CODE_LIMITS, {m: 1}) for m in monos]
    verdicts = conformal.conformal_axiom_check(args.rank, states)
    fields = basis_monomial_fields(args.rank, args.jet_order, 3)
    defect_ok = all(d[2] and d[1] for d in map(conformal.c1_defect, fields))
    verdicts.append(("c1 defect matches divergence class", defect_ok,
                     f"{len(fields)} monomial fields"))
    return {"states": len(states)}, verdicts


def cmd_char_identity(args):
    _check_truncation(args)
    res = characters.char_identity_check(args.rank, args.chern_degree,
                                         args.q_order)
    return ({"residual_zero": res.is_zero()},
            [("Td * ch(Sym) = eta^{-2n} e^{c1/2} Wit", res.is_zero(),
              "exact rational q-series")])


def cmd_witten_log(args):
    zero = JetSeries.zero(args.rank, args.chern_degree)
    lw = characters.log_witten(args.rank, args.chern_degree, args.q_order)
    table = {}
    for m in range(lw.order + 1):
        coeff = lw.coeffs.get((m,), zero)
        entries = {}
        for e in sorted(coeff.coeffs, key=lambda e: (sum(e), e)):
            mono = "*".join(f"x{i + 1}^{k}" for i, k in enumerate(e) if k) or "1"
            entries[mono] = format_rational(coeff.coeffs[e])
        table[f"q^{m}"] = entries
    return {"series": table}, []


def cmd_witten_exp_check(args):
    _check_truncation(args)
    res, full = characters.witten_exp_residuals(args.rank, args.chern_degree,
                                                args.q_order)
    return ({"residual_mod_p2_zero": res.is_zero(),
             "residual_full_zero": full.is_zero()},
            [("exp(log Wit) = Wit mod (p_2)", res.is_zero(), "exact"),
             ("exp(log Wit + R_2 ch_2) = Wit", full.is_zero(), "exact")])


def cmd_eisenstein(args):
    tol = _tolerance(args)
    tau = complex(*_floats(args.tau, "tau", 2))
    spec = characters.LatticeSpec(tau, args.cutoff)
    value = characters.eisenstein_lattice(args.weight, spec)
    qval = characters.eisenstein_q_numeric(args.weight, tau, args.q_order)
    denom = max(abs(qval), 1e-30)
    rel = abs(value - qval) / denom
    agree = rel < tol or abs(value - qval) < tol
    return ({"lattice": _complex_out(value),
             "q_expansion": _complex_out(qval), "relative_error": rel},
            [("lattice sum matches q-expansion", agree,
              f"tolerance {args.tolerance}")])


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
    return ({"weights": [_complex_out(w) for w in rep["weights"]],
             "normalized": _complex_out(rep["normalized"]),
             "rhs": _complex_out(rep["rhs"]),
             "relative_error": rep["relative_error"]},
            [("wheel weight matches contact term", rep["relative_error"] < tol,
              f"tolerance {args.tolerance}")])


def cmd_feynman_t_limits(args):
    first, second = feynman.t_integral_limits(args.eps)
    q1, q2 = feynman.t_integral_quadrature(args.eps)
    ok = abs(first - q1) < 1e-10 and abs(second - q2) < 1e-10
    return ({"first": first, "second": second,
             "first_limit": 0.5, "second_limit": 0.0},
            [("closed forms match quadrature", ok, "1e-10")])


# -- the table of subcommands ---------------------------------------------------


class Flag(NamedTuple):
    """One ``--flag``, named by its dest; a flag without a default is
    required."""
    dest: str
    type: type = str
    default: object = None
    help: str | None = None


class Command(NamedTuple):
    """One subcommand; a name of two words is a subcommand of a group.
    ``unrecorded`` names the dests left out of the document's params."""
    name: str
    help: str
    flags: tuple
    unrecorded: tuple = ()

    @property
    def handler(self):
        return "cmd_" + self.name.replace("-", "_").replace(" ", "_")


_RANK, _X, _Y = Flag("rank", int), Flag("x"), Flag("y")
_JET = Flag("jet_order", int, 6)


def _bounds(max_weight, max_c0):
    return Flag("max_weight", int, max_weight), Flag("max_c0", int, max_c0)


_QSERIES = (_RANK, Flag("chern_degree", int, 4), Flag("q_order", int, 6))

GROUPS = {"feynman": "regulated-integral checks"}

COMMANDS = (
    Command("mode-apply", "n-th product of two states",
            (_RANK, Flag("state"), Flag("mode", int), Flag("on"),
             *_bounds(8, 10))),
    Command("borcherds", "check the mode-composition identity",
            (_RANK, Flag("a"), Flag("b"), Flag("c"), Flag("l", int),
             Flag("m", int), *_bounds(8, 10)),
            ("max_weight", "max_c0")),
    Command("rho-w", "act by a formal vector field",
            (_RANK, _X, Flag("on"), _JET, *_bounds(8, 10)),
            ("max_weight", "max_c0")),
    Command("msv-check", "extension-cocycle identity",
            (_RANK, _X, _Y, _JET, *_bounds(3, 3)), ("jet_order",)),
    Command("ch2", "second Chern-character cocycle", (_RANK, _X, _Y, _JET)),
    Command("c1", "divergence (first Chern) cocycle", (_RANK, _X, _JET)),
    Command("atiyah", "connection-failure representative", (_RANK, _X, _JET)),
    Command("pw-check", "Polyakov-Wiegmann identity",
            (_RANK, Flag("f1"), Flag("f2"), _JET)),
    Command("gms-d1", "derivative of the group cocycle vs ch2",
            (_RANK, _X, _Y, _JET)),
    Command("conformal-check", "Virasoro axioms and anomaly",
            (_RANK, _JET, *_bounds(3, 2)), ("jet_order",)),
    Command("char-identity", "graded character identity", _QSERIES),
    Command("witten-log", "logarithmic Witten class table", _QSERIES),
    Command("witten-exp-check", "exp(log Wit) vs Wit", _QSERIES),
    Command("eisenstein", "lattice sum vs q-expansion",
            (Flag("weight", int), Flag("tau", help="a,b for tau = a + b i"),
             Flag("cutoff", int, 200), Flag("q_order", int, 40),
             Flag("tolerance", float, 1e-6))),
    Command("feynman wheel2", "two-vertex wheel vs contact term",
            (Flag("profiles",
                  help="text table: F|G cx cy radius c1 [c2 ...]"),
             Flag("eps_schedule", str, "0.1,0.05,0.02,0.01"),
             Flag("grid", int, 192), Flag("tolerance", float, 0.05))),
    Command("feynman t-limits", "regulator t-integrals",
            (Flag("eps", float),)),
)


@functools.cache
def build_parser():
    """The parser of every subcommand in :data:`COMMANDS`; each sets
    ``args.command_entry`` to its table entry."""
    p = argparse.ArgumentParser(
        prog="formaldisk",
        description="Exact vertex-algebra and formal-geometry verifier "
                    "for the disk model, with numerical anomaly checks.")
    subs = {"": p.add_subparsers(dest="command", required=True)}
    for cmd in COMMANDS:
        group, _, leaf = cmd.name.rpartition(" ")
        if group not in subs:
            subs[group] = subs[""].add_parser(
                group, help=GROUPS[group]).add_subparsers(
                dest=f"{group}_command", required=True)
        sp = subs[group].add_parser(leaf, help=cmd.help)
        for f in cmd.flags:
            sp.add_argument("--" + f.dest.replace("_", "-"), type=f.type,
                            default=f.default, required=f.default is None,
                            help=f.help)
        sp.add_argument("--out", help="also write the document here")
        sp.set_defaults(command_entry=cmd)
    return p


def main(argv=None):
    args = build_parser().parse_args(argv)
    cmd = args.command_entry
    try:
        _check_orders(args)
        result, checks = globals()[cmd.handler](args)
        checks = [{"name": n, "ok": bool(ok), "detail": str(d)}
                  for (n, ok, d) in checks]
        _emit({"schema": SCHEMA, "command": cmd.name,
               "params": {f.dest: getattr(args, f.dest) for f in cmd.flags
                          if f.dest not in cmd.unrecorded},
               "result": result, "checks": checks}, args.out)
        return 0 if all(c["ok"] for c in checks) else 1
    except ParseError as exc:
        sys.stderr.write(exc.caret_diagnostic() + "\n")
        return 2
    except TruncationOverflowError as exc:  # only a user's policy refuses
        sys.stderr.write(f"error: {exc}; raise --{exc.bound.replace('_', '-')}"
                         f" to at least {exc.needed}\n")
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
