"""Span tracer for the benchmark's traced run.

The tracer wraps selected ``formaldisk`` functions from the outside: every
module attribute and class attribute that holds a target function is
rebound to a wrapper, and ``restore`` puts the originals back.  Rebinding
every holder matters because the package imports functions by name
(``gms.jet_compose`` is the same object as ``jets.jet_compose``) and looks
some up on a module at call time (``formaldisk._kernel.poly_mul``).

Each wrapped call is aggregated per span name (calls, inclusive time, self
time).  Self time is a call's duration minus the durations of the wrapped
calls made directly inside it.  Inclusive time is added only for the
outermost call of a name, so recursion is not counted twice.  Functions
marked ``record`` also keep one span record per call (id, parent id, name,
start, end) in memory; ``write_spans`` writes them out when the run ends.
The hot inner functions are aggregate-only: ``poly_mul`` runs thousands of
times per Polyakov-Wiegmann pair.
"""

from __future__ import annotations

import functools
import json
import math
import statistics
import sys
import time
from fractions import Fraction

# (module, attribute path, span name, keep one record per call)
TARGETS = [
    ("formaldisk._kernel", "poly_mul", "kernel.poly_mul", False),
    ("formaldisk._kernel", "state_axpy", "kernel.state_axpy", False),
    ("formaldisk._kernel", "state_mul_sym", "kernel.state_mul_sym", False),
    ("formaldisk._kernel", "state_deriv_sym", "kernel.state_deriv_sym", False),
    ("formaldisk.jets", "JetSeries.__mul__", "jets.mul", False),
    ("formaldisk.jets", "jet_compose", "jets.jet_compose", False),
    ("formaldisk.jets", "jet_invert", "jets.jet_invert", False),
    ("formaldisk.jets", "pullback_form", "jets.pullback_form", False),
    ("formaldisk.jets", "poincare_homotopy", "jets.poincare_homotopy", False),
    ("formaldisk.jets", "wedge", "jets.wedge", False),
    ("formaldisk.jets", "de_rham", "jets.de_rham", False),
    ("formaldisk.vertex", "mode_apply", "vertex.mode_apply", False),
    ("formaldisk.vertex", "translate", "vertex.translate", False),
    ("formaldisk.vertex", "borcherds_check", "vertex.borcherds_check", True),
    ("formaldisk.hc", "tau_w", "hc.tau_w", False),
    ("formaldisk.hc", "rho_w", "hc.rho_w", False),
    ("formaldisk.hc", "rho_omega2", "hc.rho_omega2", False),
    ("formaldisk.hc", "msv_defect", "hc.msv_defect", False),
    ("formaldisk.gf", "ch2_gf", "gf.ch2_gf", False),
    ("formaldisk.gms", "pw_check", "gms.pw_check", True),
    ("formaldisk.gms", "d1_compare", "gms.d1_compare", True),
    ("formaldisk.conformal", "conformal_axiom_check",
     "conformal.conformal_axiom_check", True),
    ("formaldisk.conformal", "c1_defect", "conformal.c1_defect", False),
    ("formaldisk.characters", "char_identity_check",
     "characters.char_identity_check", True),
    ("formaldisk.characters", "witten_exp_check",
     "characters.witten_exp_check", True),
    ("formaldisk.characters", "eisenstein_lattice",
     "characters.eisenstein_lattice", True),
    ("formaldisk.characters", "eisenstein_q_numeric",
     "characters.eisenstein_q_numeric", True),
    ("formaldisk.feynman", "wheel2_check", "feynman.wheel2_check", True),
    ("formaldisk.feynman", "t_integral_quadrature",
     "feynman.t_integral_quadrature", True),
] + [
    ("formaldisk.grammar", f"parse_{what}", "grammar.parse", False)
    for what in ("value", "scalar", "vector_field", "form", "state",
                 "automorphism")
] + [
    ("formaldisk.grammar", f"format_{what}", "grammar.format", False)
    for what in ("jet", "form", "vf", "state", "automorphism")
] + [
    # cli.main's self time is argparse plus JSON emission: _emit shares the
    # span name, and the handlers get their own span so their work is not
    # charged to main
    ("formaldisk.cli", "main", "cli.main", True),
    ("formaldisk.cli", "_emit", "cli.main", False),
] + [
    ("formaldisk.cli", f"cmd_{what}", "cli.handler", True)
    for what in ("mode_apply", "borcherds", "rho_w", "msv_check", "ch2", "c1",
                 "atiyah", "pw_check", "gms_d1", "conformal_check",
                 "char_identity", "witten_log", "witten_exp_check",
                 "eisenstein", "feynman_wheel2", "feynman_t_limits")
]


class PolyMulProbe:
    """Operand statistics of the sparse product, gathered before each call.

    ``pairs`` counts term pairs attempted, ``kept`` those whose total degree
    is within the truncation order, ``fills`` the share of the degree <= K
    monomials that the smaller operand fills, and the coefficient counts
    split operand coefficients into integers, non-integer rationals and
    anything else (such as the square-zero pairs of the van Est check).
    """

    def __init__(self):
        self.pairs = 0
        self.kept = 0
        self.fills = []
        self.coeffs = 0
        self.nonint = 0
        self.other = 0

    def __call__(self, a, b, order):
        la, lb = len(a), len(b)
        self.pairs += la * lb
        if la and lb:
            ha = _degree_histogram(a)
            hb = _degree_histogram(b)
            self.kept += sum(ca * cb for da, ca in ha.items()
                             for db, cb in hb.items() if da + db <= order)
            n = len(next(iter(a)))
            self.fills.append(min(la, lb) / math.comb(n + order, n))
        for poly in (a, b):
            for c in poly.values():
                self.coeffs += 1
                if type(c) is int:
                    continue
                if isinstance(c, Fraction):
                    if c.denominator != 1:
                        self.nonint += 1
                else:
                    self.other += 1

    def metrics(self):
        return {
            "kernel.poly_mul.pairs": self.pairs,
            "kernel.poly_mul.kept_ratio":
                self.kept / self.pairs if self.pairs else 0.0,
            "kernel.poly_mul.fill_p50":
                statistics.median(self.fills) if self.fills else 0.0,
            "jets.coeff_nonint_share":
                self.nonint / self.coeffs if self.coeffs else 0.0,
            "jets.coeff_other_share":
                self.other / self.coeffs if self.coeffs else 0.0,
        }


def _degree_histogram(poly):
    hist = {}
    for e in poly:
        d = sum(e)
        hist[d] = hist.get(d, 0) + 1
    return hist


class Tracer:
    """Aggregating span tracer; see the module docstring."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.stats = {}      # name -> [calls, incl_s, self_s]
        self.spans = []      # [id, parent_id, name, start, end]
        self._stack = []     # frames: [child_s, span_id or None]
        self._depth = {}     # name -> wrapped calls of that name in flight
        self._excluded = [0.0]  # total time spent in ``before`` hooks
        self._restore = []   # (holder, attribute, original)

    def wrap(self, fn, name, record=False, before=None):
        """Return ``fn`` wrapped in a span called ``name``.

        ``before(*args)`` runs ahead of the timed call; its cost is left
        out of every span's duration.
        """
        clock = self.clock
        stack = self._stack
        depth = self._depth
        excluded = self._excluded
        stats = self.stats.setdefault(name, [0, 0.0, 0.0])
        spans = self.spans

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                t_pre = clock()
                before(*args, **kwargs)
                excluded[0] += clock() - t_pre
            span_id = None
            if record:
                span_id = len(spans)
                parent = next((f[1] for f in reversed(stack)
                               if f[1] is not None), None)
                spans.append([span_id, parent, name, None, None])
            frame = [0.0, span_id]
            stack.append(frame)
            level = depth.get(name, 0)
            depth[name] = level + 1
            excluded0 = excluded[0]
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                dt = t1 - t0 - (excluded[0] - excluded0)
                stack.pop()
                depth[name] = level
                stats[0] += 1
                stats[2] += dt - frame[0]
                if level == 0:
                    stats[1] += dt
                if stack:
                    stack[-1][0] += dt
                if record:
                    spans[span_id][3] = t0
                    spans[span_id][4] = t1

        return wrapper

    def call(self, name, fn):
        """Run ``fn()`` inside one recorded span called ``name``."""
        return self.wrap(fn, name, record=True)()

    def patch(self, module, path, name, record=False, before=None):
        """Rebind every holder of ``module.path`` inside the package."""
        obj = sys.modules[module]
        for part in path.split("."):
            obj = getattr(obj, part)
        wrapper = self.wrap(obj, name, record=record, before=before)
        found = 0
        for holder in _holders():
            for attr, value in list(vars(holder).items()):
                if value is obj:
                    setattr(holder, attr, wrapper)
                    self._restore.append((holder, attr, obj))
                    found += 1
        if not found:
            raise LookupError(f"no holder of {module}.{path}")

    def install(self, probe=None):
        for module, path, name, record in TARGETS:
            before = probe if name == "kernel.poly_mul" else None
            self.patch(module, path, name, record=record, before=before)

    def restore(self):
        while self._restore:
            holder, attr, original = self._restore.pop()
            setattr(holder, attr, original)

    def metric(self, name, field):
        calls, incl, self_s = self.stats.get(name, (0, 0.0, 0.0))
        return {"calls": calls, "incl_s": incl, "self_s": self_s}[field]

    def write_spans(self, path):
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(
                    ("id", "parent", "name", "start", "end"), span))) + "\n")


def _holders():
    """Modules of the package and the classes they define."""
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == "formaldisk"
                               or mod_name.startswith("formaldisk.")):
            continue
        yield mod
        for value in list(vars(mod).values()):
            if isinstance(value, type) and value.__module__ == mod_name:
                yield value
