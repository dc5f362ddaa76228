#!/usr/bin/env python3
"""Layered benchmark of the formaldisk verifier.

Run from the root of a checkout::

    python3 perfbench/run.py --workload pw-dense --seed 1 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --trace 1

Workloads (see ``workloads.py``): ``pw-dense``, ``msv-sweep`` and
``cli-mix``; ``all`` runs each in turn and prints a table of every metric
by name and unit.  Load is closed-loop and sequential: one caller, one thread.

``--trace 0`` measures the end-to-end metrics.  Set-up is timed from
process start to the first timed instance (interpreter start, importing
formaldisk, generating the inputs) in ``SETUP_RUNS`` fresh processes, and
``setup_s`` is their median.  The last of them then runs sweeps for
``--seconds`` of wall time; each sweep starts with empty memo caches, so
cache fill is part of the timed work.

``--trace 1`` gives the per-layer metrics.  It runs the first
``trace_instances`` instances of the workload in three fresh processes:
plain, with the listed functions wrapped in spans (``tracer.py``), and
plain again.  A fixed instance count makes the counts repeat exactly for
a seed; ``trace.overhead_ratio`` is the mean plain throughput over the
traced one.

Every instance's result is checked; a failure, a false verdict or an
exception counts in ``failed``.  The full report (seed, instance
composition, git sha, Python version, kernel backend, nproc, load
averages, the tail rule's percentile) is printed on the line before the
result and written under ``.perfbench_out/``.  The last line of stdout is
the result: ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench_out")
WORKER = os.path.join(HERE, "worker.py")

sys.path.insert(0, HERE)
from measure import failed_frac, sweep_rates, tail  # noqa: E402

WORKLOAD_NAMES = ("pw-dense", "msv-sweep", "cli-mix")
SETUP_RUNS = 9
# below this, the highest percentile with ten instances beyond it is no
# tail (pw-dense runs about fifteen instances), and the maximum is reported
TAIL_MIN_PERCENTILE = 90
CHILD_TIMEOUT_S = 170.0

END_TO_END = {
    "setup_s": "s",
    "throughput_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "cpu_per_instance_ms": "ms",
    "peak_rss_mb": "MB",
    "ok_frac": "share",
}


class BenchError(Exception):
    pass


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, env.get("PYTHONPATH")) if p)
    env["PYTHONHASHSEED"] = "0"
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def spawn(args, timeout=CHILD_TIMEOUT_S):
    """Run one worker; return (set-up seconds, parsed result or None)."""
    cmd = [sys.executable, WORKER] + args
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            env=child_env(), cwd=ROOT)
    timer = threading.Timer(timeout, proc.kill)
    timer.start()
    try:
        ready = proc.stdout.readline()
        setup_s = time.perf_counter() - start
        rest = proc.stdout.read()
        code = proc.wait()
    finally:
        timer.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if ready.strip() != "READY" or code != 0:
        raise BenchError(f"worker {' '.join(args)} exited with {code}")
    lines = rest.strip().splitlines()
    if not lines:
        return setup_s, None
    res = json.loads(lines[-1])
    if res["attempted"] < 1:
        raise BenchError(f"worker {' '.join(args)} attempted no instance")
    return setup_s, res


def git_sha():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def source_sha256():
    """Digest of the package source, for checkouts that are not git trees."""
    h = hashlib.sha256()
    pkg = os.path.join(SRC, "formaldisk")
    for dirpath, dirnames, filenames in os.walk(pkg):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            if name.endswith((".py", ".pyx")):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, pkg).encode())
                with open(path, "rb") as fh:
                    h.update(fh.read())
    return h.hexdigest()


def measure_end_to_end(workload, seed, seconds):
    base = ["--workload", workload, "--seed", str(seed)]
    setups = [spawn(base + ["--probe"])[0] for _ in range(SETUP_RUNS - 1)]
    setup_s, res = spawn(base + ["--seconds", str(seconds)])
    setups.append(setup_s)
    attempted, failed = res["attempted"], res["failed"]
    lat = res["latencies"]
    throughput, cpu_ms = sweep_rates(res["sweeps"])
    rule = tail(lat)
    if rule and rule["percentile"] < TAIL_MIN_PERCENTILE:
        rule = None
    metrics = {
        "setup_s": statistics.median(setups),
        "throughput_per_s": throughput,
        "latency_p50_ms": 1000.0 * statistics.median(lat),
        "latency_tail_ms": 1000.0 * (rule["value"] if rule else max(lat)),
        "cpu_per_instance_ms": cpu_ms,
        "peak_rss_mb": res["maxrss_kb"] / 1024.0,
        "ok_frac": 1.0 - failed_frac(attempted, failed),
    }
    details = {
        "failed_frac": failed_frac(attempted, failed),
        "latency_tail_rule": rule and {k: rule[k] for k in
                                       ("percentile", "samples", "beyond")},
        "latency_tail_note": None if rule else
        f"{len(lat)} instances: the ten-beyond rule stops below "
        f"p{TAIL_MIN_PERCENTILE}, so latency_tail_ms is the maximum",
        "setup_runs_s": setups,
        "sweeps_completed": len(res["sweeps"]),
        "timed_wall_s": res["wall_s"],
        "timed_cpu_s": res["cpu_s"],
        "cache_peaks": res["cache_peaks"],
    }
    return res, {k: (metrics[k], END_TO_END[k]) for k in END_TO_END}, details


def measure_layers(workload, seed):
    base = ["--workload", workload, "--seed", str(seed), "--prefix"]
    os.makedirs(OUT_DIR, exist_ok=True)
    spans = os.path.join(OUT_DIR, f"spans-{workload}-seed{seed}.jsonl")
    # plain, traced, plain: the two plain runs bracket the traced one, so a
    # drift of the machine's speed during the three runs largely cancels
    plain = [spawn(base)[1]]
    _, res = spawn(base + ["--trace", "--spans", spans])
    plain.append(spawn(base)[1])
    plain_wall = statistics.mean(p["wall_s"] for p in plain)
    metrics = dict(res["layers"])
    metrics["trace.overhead_ratio"] = res["wall_s"] / plain_wall
    # the plain runs check their results too
    for p in plain:
        res["attempted"] += p["attempted"]
        res["failed"] += p["failed"]
        res["first_failure"] = res["first_failure"] or p["first_failure"]
    units = {}
    for name in metrics:
        units[name] = ("s" if name.endswith("_s") else
                       "count" if name.endswith((".calls", ".pairs",
                                                 ".entries")) else "ratio")
    details = {"plain_wall_s": [p["wall_s"] for p in plain],
               "traced_wall_s": res["wall_s"],
               "spans_file": os.path.relpath(spans, ROOT),
               "spans_recorded": res["spans_recorded"]}
    return res, {k: (v, units[k]) for k, v in metrics.items()}, details


def run_one(workload, seed, seconds, trace):
    load_start = os.getloadavg()[0]
    if trace:
        res, metrics, details = measure_layers(workload, seed)
    else:
        res, metrics, details = measure_end_to_end(workload, seed, seconds)
    report = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "first_failure": res["first_failure"],
        "composition": res["composition"],
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
        "details": details,
        "env": {
            "git_sha": git_sha(),
            "source_sha256": source_sha256(),
            "python": platform.python_version(),
            "kernel_backend": res["kernel_backend"],
            "nproc": os.cpu_count(),
            "loadavg_1m_start": load_start,
            "loadavg_1m_end": os.getloadavg()[0],
        },
    }
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, f"{workload}-seed{seed}-trace{trace}.json")
    with open(path, "w") as fh:
        json.dump(report, fh, indent=2)
    return report


def result_line(reports, prefix):
    metrics = {}
    for rep in reports:
        for name, m in rep["metrics"].items():
            metrics[f"{rep['workload']}/{name}" if prefix else name] = m
    attempted = sum(r["attempted"] for r in reports)
    failed = sum(r["failed"] for r in reports)
    return {"correct": failed == 0 and attempted >= 1, "attempted": attempted,
            "failed": failed, "metrics": metrics}


def print_table(reports):
    for rep in reports:
        print(f"== {rep['workload']} (seed {rep['seed']}, "
              f"{rep['attempted']} instances, {rep['failed']} failed)")
        details = rep["details"]
        for name, m in rep["metrics"].items():
            note = ""
            if name == "latency_tail_ms":
                rule = details["latency_tail_rule"]
                note = (f"  (p{rule['percentile']:.2f} of {rule['samples']})"
                        if rule else f"  ({details['latency_tail_note']})")
            print(f"   {name:<36} {m['value']:>14.6g} {m['unit']}{note}")
        if "failed_frac" in details:
            print(f"   {'failed_frac':<36} {details['failed_frac']:>14.6g}")


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=WORKLOAD_NAMES + ("all",))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=35.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "formaldisk")):
        print(f"error: no formaldisk source under {SRC}", file=sys.stderr)
        return 2
    names = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    try:
        reports = [run_one(w, args.seed, args.seconds, args.trace)
                   for w in names]
    except (BenchError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.workload == "all":
        print_table(reports)
    else:
        print(json.dumps(reports[0]))
    print(json.dumps(result_line(reports, prefix=args.workload == "all")))
    return 0


if __name__ == "__main__":
    sys.exit(main())
