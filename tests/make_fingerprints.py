"""Regenerate ``tests/fingerprints.json``, the seeded output fingerprints.

Usage (from the checkout root)::

    PYTHONPATH=src python tests/make_fingerprints.py

Draws a fixed, seeded set of command lines -- every exact subcommand on
inputs from the generators of ``perfbench/workloads.py`` and
``tests/conftest.py``, plus a corpus of malformed expressions -- runs each
through ``cli.main`` in this process, and stores each argv with the sha256
of its (exit code, stdout, stderr).  ``tests/test_fingerprints.py`` replays
the stored argvs, so a change to these generators changes no check until
the table is regenerated.  A change that alters a fingerprint changes what
a command prints; say which and why when committing the new table.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib.util
import io
import json
import pathlib
import random

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
TABLE = HERE / "fingerprints.json"
SEED = 20261019


def run(argv):
    """(exit code, stdout, stderr) of one cold in-process CLI call."""
    from formaldisk import cli, vertex
    vertex.clear_mode_cache()
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def fingerprint(outcome):
    return hashlib.sha256(json.dumps(outcome).encode()).hexdigest()


def _load(name, path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# -- exact subcommands --------------------------------------------------------


def _fields(rng, jets, grammar, n, count, min_degree=0, terms=2):
    """Texts of ``count`` vector fields: sums of monomial fields of
    coefficient degree min_degree..3 with coefficients in -2..2."""
    basis = jets.basis_monomial_fields(n, 8, 3, min_degree)
    out = []
    for _ in range(count):
        x = jets.FormalVectorField.zero(n, 8)
        for _ in range(rng.randint(1, terms)):
            x = x + rng.choice(basis).scale(rng.choice((-2, -1, 1, 2)))
        out.append(grammar.format_vf(x) if not x.is_zero() else "t1 d1")
    return out


def exact_cases(rng):
    from formaldisk import grammar, jets
    from formaldisk.vertex import TruncationPolicy
    conftest = _load("fingerprint_conftest", HERE / "conftest.py")
    workloads = _load("fingerprint_workloads",
                      ROOT / "perfbench" / "workloads.py")
    pol = TruncationPolicy(8, 10)

    def state(n, terms):
        return grammar.format_state(conftest.random_state(
            rng, n, pol, max_weight=2, max_c0=2, terms=terms))

    # expressions go in as --flag=text, since a text may begin with "-"
    cases = []
    for _ in range(40):
        n = rng.choice((1, 2))
        cases.append(["mode-apply", "--rank", str(n),
                      "--state=" + state(n, rng.randint(1, 2)),
                      "--mode", str(rng.randint(-3, 1)),
                      "--on=" + state(n, rng.randint(1, 3))])
    for _ in range(24):
        n = rng.choice((1, 2))
        cases.append(["borcherds", "--rank", str(n), "--a=" + state(n, 1),
                      "--b=" + state(n, 1), "--c=" + state(n, 1),
                      "--l", str(rng.randint(-2, 0)),
                      "--m", str(rng.randint(-2, 0))])
    for _ in range(30):
        n = rng.choice((1, 2))
        cases.append(["rho-w", "--rank", str(n),
                      "--x=" + _fields(rng, jets, grammar, n, 1)[0],
                      "--on=" + state(n, rng.randint(1, 2))])
    for _ in range(16):
        x, y = _fields(rng, jets, grammar, 2, 2, terms=1)
        cases.append(["msv-check", "--rank", "2", "--x=" + x, "--y=" + y,
                      "--max-weight", "2", "--max-c0", "1"])
    for command, arity, count in (("ch2", 2, 30), ("c1", 1, 20),
                                  ("atiyah", 1, 20), ("gms-d1", 2, 16)):
        for _ in range(count):
            n = rng.choice((1, 2, 3)) if command != "gms-d1" else 2
            fields = _fields(rng, jets, grammar, n, arity,
                             min_degree=int(command == "gms-d1"))
            argv = [command, "--rank", str(n), "--x=" + fields[0]]
            if arity == 2:
                argv.append("--y=" + fields[1])
            if command == "gms-d1":
                argv += ["--jet-order", "4"]
            cases.append(argv)
    # pw-check: criterion 6's random unipotent pairs, sparser and at lower
    # orders than the benchmark's, so that a pair takes milliseconds
    shape_rng = random.Random(SEED + 1)
    for n, order, count in ((1, 4, 4), (2, 3, 12), (2, 4, 4), (3, 2, 8),
                            (3, 3, 6)):
        for _ in range(count):
            pair = [workloads.random_unipotent(shape_rng, rng, n, order,
                                               extra_terms=2)
                    for _ in range(2)]
            cases.append(["pw-check", "--rank", str(n), "--jet-order",
                          str(order),
                          "--f1=" + grammar.format_automorphism(pair[0]),
                          "--f2=" + grammar.format_automorphism(pair[1])])
    for n, weight, c0 in ((1, 1, 1), (1, 2, 2), (2, 1, 1), (2, 2, 1),
                          (2, 2, 2)):
        cases.append(["conformal-check", "--rank", str(n),
                      "--max-weight", str(weight), "--max-c0", str(c0),
                      "--jet-order", "5"])
    for command in ("char-identity", "witten-log", "witten-exp-check"):
        for _ in range(12):
            cases.append([command, "--rank", str(rng.randint(1, 3)),
                          "--chern-degree", str(rng.randint(0, 5)),
                          "--q-order", str(rng.randint(0, 5))])
    return cases


# -- malformed input ----------------------------------------------------------

TOKENS = ["t1", "t2", "t3", "d1", "d2", "dt1", "dt2", "b[1,-1]", "c[1,0]",
          "c[2,-1]", "b[3,-1]", "vac", "2/3", "1/0", "3", "0", "*", "+", "-",
          "^", "^2", "^7", " ", "(", ")", ",", "%", "x"]

# a subcommand per expression context, the text going to its last flag
CONTEXTS = [
    ["rho-w", "--rank", "2", "--on", "vac", "--x="],
    ["c1", "--rank", "2", "--jet-order", "3", "--x="],
    ["mode-apply", "--rank", "2", "--mode", "0", "--on", "vac", "--state="],
    ["pw-check", "--rank", "2", "--jet-order", "3", "--f2", "(t1, t2)",
     "--f1="],
    ["pw-check", "--rank", "1", "--jet-order", "2", "--f2", "(t1)", "--f1="],
]

MALFORMED = [
    "t1 %% d1", "t1 d1 +", "(t1 d1", "t1 d1)", "", "  ", "1/0 d1",
    "t1^40 d1", "t1^2/3 d1", "t1^-1 d1", "t1^t2 d1", "d1^2", "d3",
    "t4 d1", "dt1 d1", "t1 + d1", "d1 + dt1", "b[1,-1] d1", "vac d1",
    "(" * 101 + "t1 d1" + ")" * 101, "(" * 100 + "t1 d1" + ")" * 100,
    "t1 d1\t+ %", "t1 d1 +\n t2 % d2", "t1\td1 + t2 d2\n%",
    "(t1, t2)x", "(t1, t2", "t1, t2", "(t1, t2, t1)", "(t1 d1, t2)",
    "(t1, t2 + %)", "  (t1+t2, t2 + %)", "((t1, t2))", "(t1, (t2))",
    "(t1,, t2)", "(t1, t2) + t1", "(t1, t2)*(t1, t2)", "(t1,\tt2 %)",
    "c[1,1]", "b[1,0]", "b[3,-1]", "c[1,0]*t1", "dt1^dt1", "dt1^t1",
    "2^3", "vac^3", "c[1,0]^12", "b[1,-1]^9", "b[1,-1]^33", "(vac)^5",
    "(2*vac)^5", "dt1^3", "(t1 d1)^2", "t1^0 d1", "0", "0*t1 d1",
]


def malformed_cases(rng):
    """Each listed text in two contexts, then 100 random token strings in
    one context each."""
    picks = [(text, rng.sample(CONTEXTS, 2)) for text in MALFORMED]
    for _ in range(100):
        text = "".join(rng.choice(TOKENS) for _ in range(rng.randint(1, 8)))
        picks.append((text, [rng.choice(CONTEXTS)]))
    return [[*context[:-1], context[-1] + text]
            for text, contexts in picks for context in contexts]


def main():
    rng = random.Random(SEED)
    cases = exact_cases(rng) + malformed_cases(rng)
    table = [{"argv": argv, "sha256": fingerprint(run(argv))}
             for argv in cases]
    TABLE.write_text(json.dumps({"seed": SEED, "cases": table}, indent=1)
                     + "\n")
    print(f"{len(table)} fingerprints written to {TABLE}")


if __name__ == "__main__":
    main()
