"""The benchmark's workloads: seeded inputs, instances and their checks.

An instance is one verification call into ``formaldisk`` together with the
check of its result; it returns True when the result is correct.  A sweep
is a run of instances that starts with empty memo caches, the way one
user's sweep or CLI call starts in a fresh process.  Every workload yields
its sweeps without end, cycling through its seeded input pool.

Functions of the package are called through their modules
(``gms.pw_check``, not a name imported here), so that the tracer's rebinding
reaches them.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import os
import random
from fractions import Fraction

from formaldisk import cli, gf, gms, hc, jets, vertex
from formaldisk.constants import MSV_COCYCLE_SIGN

DATA = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data")
GOLDEN_PATH = os.path.join(DATA, "cli_golden.json")
# relative to the checkout root, where the benchmark runs; it appears in the
# command's output, so it must not depend on where the checkout lives
PROFILES = "perfbench/data/profiles.txt"


class Instance:
    __slots__ = ("tags", "run")

    def __init__(self, tags, run):
        self.tags = tags
        self.run = run


# -- pw-dense -----------------------------------------------------------------


def random_unipotent(shape_rng, value_rng, n, order, max_degree=2,
                     extra_terms=3):
    """Criterion 6's dense random unipotent jet: t_i plus ``extra_terms``
    random degree-2 terms per component, each coefficient uniform in -2..2.

    The draw is split in two.  ``shape_rng`` picks the exponents and whether
    a coefficient is zero (probability 1/5); ``value_rng`` picks each
    nonzero coefficient from {-2, -1, 1, 2}.  Together they give criterion
    6's distribution.
    """
    comps = []
    for i in range(1, n + 1):
        f = jets.JetSeries.variable(n, order, i)
        for _ in range(extra_terms):
            e = [0] * n
            for _ in range(shape_rng.randint(2, max_degree)):
                e[shape_rng.randrange(n)] += 1
            if shape_rng.randrange(5) == 0:
                continue
            coeff = Fraction(value_rng.choice((-2, -1, 1, 2)))
            f = f + jets.JetSeries.monomial(n, order, tuple(e), coeff)
        comps.append(f)
    return jets.JetAutomorphism(n, order, comps)


def _pw_instance(f1, f2):
    ok, residual = gms.pw_check(f1, f2)
    return ok and residual.is_zero()


class PwDense:
    """``gms.pw_check`` on dense random unipotent rank-3 pairs at jet order 4.

    The shapes (which monomials appear) of the ``POOL`` pairs come from a
    fixed table, ``SHAPE_SEED``; the run's seed draws every coefficient.  A
    rank-3 pair takes 0.6-4.4 s depending on its shape and a run holds
    ten to fifteen, so seed-drawn shapes would make the run-to-run spread a
    measure of the shapes drawn, not of the code.  The pool is cycled, so a
    faster program repeats the same shapes rather than meeting new ones.
    """

    name = "pw-dense"
    RANK, ORDER = 3, 4
    SHAPE_SEED = 1004
    POOL = 8
    trace_instances = 6

    def __init__(self, seed):
        shape_rng = random.Random(self.SHAPE_SEED)
        value_rng = random.Random(seed)
        self.pairs = [
            tuple(random_unipotent(shape_rng, value_rng, self.RANK,
                                   self.ORDER) for _ in range(2))
            for _ in range(self.POOL)]

    def sweeps(self):
        tags = (f"rank{self.RANK}",)
        for f1, f2 in itertools.cycle(self.pairs):
            yield [Instance(tags, lambda f1=f1, f2=f2: _pw_instance(f1, f2))]


# -- msv-sweep ----------------------------------------------------------------


def _msv_instance(x, y, v, cocycle):
    if not cocycle:
        cocycle.append(gf.ch2_gf(x, y))
    return hc.msv_defect(x, y, v) == \
        hc.rho_omega2(cocycle[0], v).scale(MSV_COCYCLE_SIGN)


class MsvSweep:
    """Criterion 2's extension-cocycle identity, one field pair per sweep.

    Pairs are a seeded order of the 190 pairs of rank-2 monomial fields of
    coefficient degree <= 3 at order 8; each is checked on all 885 states
    of weight <= 3 and c0-degree <= 4 under policy (8, 14).  The pair's
    ch2 cocycle is computed once, inside its first instance.
    """

    name = "msv-sweep"
    trace_instances = 6 * 885

    def __init__(self, seed):
        fields = [(sum(e), jets.FormalVectorField.monomial(2, 8, e, j))
                  for e in jets.monomial_exponents(2, 3)
                  for j in (1, 2)]
        self.pairs = list(itertools.combinations(fields, 2))
        random.Random(seed).shuffle(self.pairs)
        pol = vertex.TruncationPolicy(8, 14)
        self.states = [vertex.VAState(2, pol, {m: Fraction(1)})
                       for m in vertex.enumerate_basis(2, 3, 4)]

    def sweeps(self):
        for (dx, x), (dy, y) in itertools.cycle(self.pairs):
            cocycle = []
            tag = f"deg{dx}+{dy}"
            yield [Instance((tag, f"w{v.weight()}"),
                            lambda x=x, y=y, v=v, cocycle=cocycle:
                            _msv_instance(x, y, v, cocycle))
                   for v in self.states]


# -- cli-mix ------------------------------------------------------------------

# one case per subcommand on fixed inputs, plus one malformed expression
CLI_CASES = [
    ("mode-apply", ["mode-apply", "--rank", "2", "--state", "c[1,0]*b[2,-1]",
                    "--mode", "-1", "--on", "b[1,-1]*c[2,-1]"]),
    ("borcherds", ["borcherds", "--rank", "2", "--a", "b[1,-1]*c[2,0]",
                   "--b", "c[1,-1]", "--c", "b[2,-2]", "--l", "-1",
                   "--m", "1"]),
    ("rho-w", ["rho-w", "--rank", "2", "--x", "t1*t2 d1 + t2^2 d2",
               "--on", "c[1,0]*b[2,-1]*c[2,-1]"]),
    ("msv-check", ["msv-check", "--rank", "2", "--x", "t1*t2 d1",
                   "--y", "t1^2*t2 d2", "--max-weight", "2",
                   "--max-c0", "2"]),
    ("ch2", ["ch2", "--rank", "2", "--x", "t1^2*t2 d1", "--y", "t1*t2^2 d2"]),
    ("c1", ["c1", "--rank", "2", "--x", "t1^2*t2 d1 + t2^3 d2"]),
    ("atiyah", ["atiyah", "--rank", "2", "--x", "t1*t2 d1 + t1^2 d2"]),
    ("pw-check", ["pw-check", "--rank", "3", "--jet-order", "4",
                  "--f1", "(t1+t2^2, t2+t3^2, t3+t1*t2)",
                  "--f2", "(t1-t3^2, t2+2*t1^2, t3+t1*t3)"]),
    ("gms-d1", ["gms-d1", "--rank", "2", "--jet-order", "5",
                "--x", "t1*t2 d1", "--y", "t1*t2 d2"]),
    ("conformal-check", ["conformal-check", "--rank", "1",
                         "--max-weight", "2"]),
    ("char-identity", ["char-identity", "--rank", "1", "--chern-degree", "3",
                       "--q-order", "4"]),
    ("witten-log", ["witten-log", "--rank", "1", "--chern-degree", "4",
                    "--q-order", "3"]),
    ("witten-exp-check", ["witten-exp-check", "--rank", "2",
                          "--chern-degree", "4", "--q-order", "3"]),
    ("eisenstein", ["eisenstein", "--weight", "6", "--tau", "0,1",
                    "--cutoff", "100"]),
    ("feynman-wheel2", ["feynman", "wheel2", "--profiles", PROFILES,
                        "--grid", "96", "--eps-schedule", "0.05,0.02,0.01"]),
    ("feynman-t-limits", ["feynman", "t-limits", "--eps", "1e-7"]),
    ("malformed", ["rho-w", "--rank", "1", "--x", "t1 %% d1", "--on", "vac"]),
]


def run_cli(argv):
    """One cold CLI call in-process: (exit code, stdout, stderr)."""
    vertex.clear_mode_cache()
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def golden_matches(golden, outcome):
    """Exit code, stdout and stderr all equal the golden document; equal
    strings are equal bytes, floats included."""
    code, out, err = outcome
    return (code == golden["exit"] and out == golden["stdout"]
            and err == golden["stderr"])


def load_goldens():
    with open(GOLDEN_PATH) as fh:
        goldens = json.load(fh)["cases"]
    expected = [[name, argv] for name, argv in CLI_CASES]
    if [[g["name"], g["argv"]] for g in goldens] != expected:
        raise ValueError(f"{GOLDEN_PATH} does not match CLI_CASES; "
                         "regenerate it with perfbench/make_golden.py")
    return goldens


class CliMix:
    """Each sweep runs every CLI case once through ``cli.main``, in a seeded
    order, each from cold memo caches; outputs are checked byte for byte
    against golden documents."""

    name = "cli-mix"
    trace_instances = 2 * len(CLI_CASES)

    def __init__(self, seed):
        self.rng = random.Random(seed)
        self.goldens = load_goldens()

    def sweeps(self):
        while True:
            order = list(self.goldens)
            self.rng.shuffle(order)
            yield [Instance((g["name"],),
                            lambda g=g: golden_matches(g, run_cli(g["argv"])))
                   for g in order]


WORKLOADS = {w.name: w for w in (PwDense, MsvSweep, CliMix)}


def cache_sizes():
    return {"vertex.mode_cache.entries": len(vertex._MODE_CACHE),
            "vertex.sym_cache.entries": len(vertex._SYM_CACHE)}
