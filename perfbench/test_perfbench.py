"""Tests of the benchmark's own code: statistics, accounting, goldens and the
tracer.  Run with ``PYTHONPATH=src python -m pytest perfbench``."""

import pytest

import measure
import tracer as tracer_mod
import worker
import workloads


def test_tail_is_highest_percentile_with_ten_beyond():
    values = list(range(1, 101))
    rule = measure.tail(values)
    assert rule["value"] == 90
    assert rule["percentile"] == 90.0
    assert rule["samples"] == 100
    assert sum(1 for v in values if v > rule["value"]) == 10
    rule = measure.tail(list(range(20, 0, -1)))
    assert rule["value"] == 10 and rule["percentile"] == 50.0


def test_tail_needs_eleven_samples():
    assert measure.tail(list(range(10))) is None
    assert measure.tail(list(range(11)))["value"] == 0


class _Scripted:
    """A workload whose instances pass, fail, raise, or pass."""

    trace_instances = 4

    def sweeps(self):
        def boom():
            raise RuntimeError("instance error")
        while True:
            yield [workloads.Instance(("ok",), lambda: True),
                   workloads.Instance(("bad",), lambda: False),
                   workloads.Instance(("boom",), boom),
                   workloads.Instance(("ok",), lambda: True)]


def test_failed_frac_counts_false_verdicts_and_exceptions():
    res = worker.run(_Scripted(), instances=4)
    assert res["attempted"] == 4
    assert res["failed"] == 2
    assert res["composition"] == {"bad": 1, "boom": 1, "ok": 2}
    assert measure.failed_frac(res["attempted"], res["failed"]) == 0.5
    assert "false verdict" in res["first_failure"]
    assert len(res["sweeps"]) == 1


def test_zero_attempts_is_an_error():
    with pytest.raises(ValueError):
        measure.failed_frac(0, 0)
    with pytest.raises(ValueError):
        measure.sweep_rates([])


def test_one_byte_golden_change_is_caught():
    goldens = {g["name"]: g for g in workloads.load_goldens()}
    for name in ("c1", "malformed"):
        golden = goldens[name]
        outcome = workloads.run_cli(golden["argv"])
        assert workloads.golden_matches(golden, outcome)
    golden = dict(goldens["c1"])
    text = golden["stdout"]
    i = text.index('"c1"') + 1
    golden["stdout"] = text[:i] + "C" + text[i + 1:]
    assert len(golden["stdout"]) == len(text)
    outcome = workloads.run_cli(golden["argv"])
    assert not workloads.golden_matches(golden, outcome)
    golden = dict(goldens["malformed"], exit=1)
    assert not workloads.golden_matches(golden,
                                        workloads.run_cli(golden["argv"]))


class _Clock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_time_on_synthetic_nested_call():
    clock = _Clock()
    t = tracer_mod.Tracer(clock=clock)

    def inner():
        clock.now += 5

    def outer():
        clock.now += 1
        inner()
        clock.now += 2
        inner()

    inner = t.wrap(inner, "inner")
    outer = t.wrap(outer, "outer", record=True)
    outer()
    assert t.stats["outer"] == [1, 13.0, 3.0]
    assert t.stats["inner"] == [2, 10.0, 10.0]
    assert t.spans == [[0, None, "outer", 0.0, 13.0]]


def test_before_hook_is_left_out_of_every_span():
    clock = _Clock()
    t = tracer_mod.Tracer(clock=clock)

    def probe():
        clock.now += 100

    def inner():
        clock.now += 5

    def outer():
        clock.now += 1
        inner()

    inner = t.wrap(inner, "inner", before=probe)
    outer = t.wrap(outer, "outer")
    outer()
    assert t.stats["outer"] == [1, 6.0, 1.0]
    assert t.stats["inner"] == [1, 5.0, 5.0]


def test_recursion_counts_inclusive_time_once():
    clock = _Clock()
    t = tracer_mod.Tracer(clock=clock)

    def rec(k):
        clock.now += 1
        if k:
            rec(k - 1)

    rec = t.wrap(rec, "rec")
    rec(2)
    assert t.stats["rec"] == [3, 3.0, 3.0]


def test_patch_rebinds_every_holder_and_restores():
    from formaldisk import _kernel, gms, jets
    original = jets.jet_compose
    t = tracer_mod.Tracer()
    t.patch("formaldisk.jets", "jet_compose", "jets.jet_compose")
    t.patch("formaldisk._kernel", "poly_mul", "kernel.poly_mul")
    try:
        assert gms.jet_compose is jets.jet_compose is not original
        f = jets.JetSeries.variable(2, 3, 1) + jets.JetSeries.variable(2, 3, 2)
        _ = f * f
        assert t.stats["kernel.poly_mul"][0] == 1
    finally:
        t.restore()
    assert gms.jet_compose is jets.jet_compose is original
    assert _kernel.poly_mul is _kernel._impl.poly_mul


def test_poly_mul_probe_counts_pairs_and_coefficients():
    from fractions import Fraction
    probe = tracer_mod.PolyMulProbe()
    a = {(0, 0): 1, (1, 0): Fraction(1, 2)}
    b = {(1, 1): Fraction(3), (2, 0): 2}
    probe(a, b, 2)
    m = probe.metrics()
    assert m["kernel.poly_mul.pairs"] == 4
    assert m["kernel.poly_mul.kept_ratio"] == 0.5
    assert m["kernel.poly_mul.fill_p50"] == 2 / 6
    assert m["jets.coeff_nonint_share"] == 0.25
    assert m["jets.coeff_other_share"] == 0.0
