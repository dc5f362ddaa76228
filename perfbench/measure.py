"""Run statistics: the latency tail rule, failure share, sweep rates."""

from __future__ import annotations


def tail(values, beyond=10):
    """The highest percentile that has at least ``beyond`` samples above it.

    Sorted ascending, the k-th smallest sample has n - k samples above it,
    so the answer is the (n - beyond)-th smallest, at percentile
    100 (n - beyond) / n.  Returns None when there are too few samples.
    """
    s = sorted(values)
    k = len(s) - beyond
    if k < 1:
        return None
    return {"value": s[k - 1], "percentile": 100.0 * k / len(s),
            "samples": len(s), "beyond": beyond}


def failed_frac(attempted, failed):
    """Failures over attempts; zero attempts is an error, never a pass."""
    if attempted < 1:
        raise ValueError("no instance was attempted")
    return failed / attempted


def sweep_rates(sweeps):
    """Instances per wall second and CPU ms per instance, pooled over the
    completed sweeps, each given as (instances, wall_s, cpu_s)."""
    if not sweeps:
        raise ValueError("no sweep completed")
    count = sum(n for n, _, _ in sweeps)
    wall = sum(w for _, w, _ in sweeps)
    cpu = sum(c for _, _, c in sweeps)
    return count / wall, 1000.0 * cpu / count
