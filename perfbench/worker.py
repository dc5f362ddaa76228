"""One workload process: set up, say READY, measure, print one JSON line.

Started by ``run.py`` with the checkout's ``src`` on ``PYTHONPATH``::

    python3 perfbench/worker.py --workload NAME --seed N \
        (--probe | --seconds S | --prefix [--trace])

``--probe`` stops after set-up; ``run.py`` times set-up from process start
to the READY line.  ``--seconds`` runs sweeps until S seconds of wall time
have passed; ``--prefix`` runs exactly the workload's first
``trace_instances`` instances, so that the traced run's counts repeat
exactly for a seed.
"""

from __future__ import annotations

import argparse
import collections
import json
import resource
import sys
import time
import traceback

import formaldisk
from formaldisk import vertex

import workloads
from tracer import PolyMulProbe, Tracer


def run(workload, seconds=None, instances=None, tracer=None):
    clock = time.perf_counter
    cpu = time.process_time
    latencies = []
    sweeps = []
    tags = collections.Counter()
    cache_peaks = collections.Counter()
    failed = 0
    first_failure = None
    deadline = clock() + seconds if seconds is not None else None
    wall0, cpu0 = clock(), cpu()
    done = False
    for sweep in workload.sweeps():
        vertex.clear_mode_cache()
        s_wall, s_cpu = clock(), cpu()
        count = 0
        for inst in sweep:
            t0 = clock()
            try:
                ok = bool(tracer.call("instance", inst.run) if tracer
                          else inst.run())
            except Exception:
                ok = False
                first_failure = first_failure or traceback.format_exc()
            latencies.append(clock() - t0)
            count += 1
            tags.update(inst.tags)
            if not ok:
                failed += 1
                first_failure = first_failure or f"false verdict: {inst.tags}"
            if instances is not None:
                done = len(latencies) >= instances
            else:
                done = clock() >= deadline
            if done:
                break
        if count == len(sweep):
            sweeps.append((count, clock() - s_wall, cpu() - s_cpu))
        for key, size in workloads.cache_sizes().items():
            cache_peaks[key] = max(cache_peaks[key], size)
        if done:
            break
    return {
        "attempted": len(latencies),
        "failed": failed,
        "first_failure": first_failure,
        "latencies": latencies,
        "sweeps": sweeps,
        "wall_s": clock() - wall0,
        "cpu_s": cpu() - cpu0,
        "composition": dict(sorted(tags.items())),
        "cache_peaks": dict(cache_peaks),
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }


def layer_metrics(tracer, probe, cache_peaks):
    """The per-layer metrics of a traced run (all but the overhead ratio)."""
    fields = {
        "kernel.poly_mul": ("calls", "self_s"),
        "kernel.state_axpy": ("calls", "self_s"),
        "kernel.state_mul_sym": ("self_s",),
        "kernel.state_deriv_sym": ("self_s",),
        "jets.mul": ("calls", "self_s"),
        "jets.jet_compose": ("calls", "self_s"),
        "jets.jet_invert": ("calls", "self_s"),
        "jets.pullback_form": ("calls", "self_s"),
        "jets.poincare_homotopy": ("calls", "self_s"),
        "jets.wedge": ("self_s",),
        "jets.de_rham": ("self_s",),
        "vertex.mode_apply": ("calls", "self_s"),
        "vertex.translate": ("self_s",),
        "vertex.borcherds_check": ("incl_s",),
        "hc.tau_w": ("calls", "self_s"),
        "hc.rho_w": ("calls", "self_s"),
        "hc.rho_omega2": ("calls", "self_s"),
        "hc.msv_defect": ("incl_s",),
        "gf.ch2_gf": ("calls", "self_s"),
        "gms.pw_check": ("incl_s", "self_s"),
        "gms.d1_compare": ("incl_s",),
        "conformal.conformal_axiom_check": ("incl_s",),
        "conformal.c1_defect": ("incl_s",),
        "characters.char_identity_check": ("incl_s",),
        "characters.witten_exp_check": ("incl_s",),
        "characters.eisenstein_lattice": ("incl_s",),
        "characters.eisenstein_q_numeric": ("incl_s",),
        "feynman.wheel2_check": ("incl_s",),
        "feynman.t_integral_quadrature": ("incl_s",),
        "grammar.parse": ("self_s",),
        "grammar.format": ("self_s",),
        "cli.main": ("self_s",),
    }
    out = {f"{name}.{field}": tracer.metric(name, field)
           for name, wanted in fields.items() for field in wanted}
    out.update(probe.metrics())
    out.update(cache_peaks)
    return out


def main(argv=None):
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    mode = p.add_mutually_exclusive_group(required=True)
    mode.add_argument("--probe", action="store_true")
    mode.add_argument("--seconds", type=float)
    mode.add_argument("--prefix", action="store_true")
    p.add_argument("--trace", action="store_true")
    p.add_argument("--spans", default=None, help="write trace spans here")
    args = p.parse_args(argv)

    workload = workloads.WORKLOADS[args.workload](args.seed)
    print("READY", flush=True)
    if args.probe:
        return 0

    tracer = probe = None
    if args.trace:
        tracer, probe = Tracer(), PolyMulProbe()
        tracer.install(probe)
    try:
        result = run(workload, args.seconds,
                     workload.trace_instances if args.prefix else None, tracer)
    finally:
        if tracer:
            tracer.restore()
    result["kernel_backend"] = formaldisk.kernel_backend
    if tracer:
        result["layers"] = layer_metrics(tracer, probe, result["cache_peaks"])
        result["spans_recorded"] = len(tracer.spans)
        if args.spans:
            tracer.write_spans(args.spans)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
