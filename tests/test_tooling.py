"""The benchmark's span tracer (``perfbench/tracer.py``) still finds every
function it wraps, and its product probe still reads the kernel's operands:
renaming or deleting a wrapped function, or handing ``poly_mul`` operands
keyed other than by exponent tuples, breaks the traced benchmark run, and
these tests break first.  The sums of products, ``poly_dots``, are looked up
on ``formaldisk._kernel`` at call time, so a span can be put around them
there.

``import formaldisk.cli`` loads every module the tracer wraps, but not
numpy: only the ``feynman`` subcommands load it, on first use.  That is
checked in a fresh interpreter, since this one may have loaded numpy
already."""

import importlib.util
import json
import os
import pathlib
import subprocess
import sys

import formaldisk.cli  # noqa: F401  (imports every module the tracer wraps)
from formaldisk import _kernel, gms
from formaldisk.grammar import parse_automorphism

ROOT = pathlib.Path(__file__).resolve().parent.parent
TRACER = ROOT / "perfbench" / "tracer.py"

# prints, as JSON, the modules of argv[1] that are missing after importing
# cli and whether numpy is loaded after the import, after a `ch2` call and
# after a `feynman t-limits` call, with the exit codes of the two calls
IMPORT_PROBE = """
import contextlib, io, json, sys
import formaldisk.cli as cli
report = {"missing": [m for m in json.loads(sys.argv[1])
                      if m not in sys.modules],
          "numpy": ["numpy" in sys.modules]}
codes = []
for argv in (["ch2", "--rank", "2", "--x", "t1*t2 d1", "--y", "t1*t2 d2"],
             ["feynman", "t-limits", "--eps", "0.01"]):
    with contextlib.redirect_stdout(io.StringIO()):
        codes.append(cli.main(argv))
    report["numpy"].append("numpy" in sys.modules)
report["codes"] = codes
print(json.dumps(report))
"""


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _resolve(module, path):
    obj = sys.modules[module]
    for part in path.split("."):
        obj = getattr(obj, part)
    return obj


def test_tracer_installs_and_restores_on_the_package():
    tracer = _load_tracer()
    targets = [(module, path) for module, path, _, _ in tracer.TARGETS]
    originals = [_resolve(*target) for target in targets]
    t = tracer.Tracer()
    try:
        t.install()
        for target, original in zip(targets, originals):
            assert _resolve(*target) is not original, target
    finally:
        t.restore()
    for target, original in zip(targets, originals):
        assert _resolve(*target) is original, target


def test_poly_mul_probe_reads_the_operands_of_a_check():
    tracer = _load_tracer()
    probe = tracer.PolyMulProbe()
    f1 = parse_automorphism("(t1+t2^2, t2+t3^2, t3+t1*t2)", 3, 2)
    f2 = parse_automorphism("(t1-t3^2, t2+2*t1^2, t3+t1*t3)", 3, 2)
    t = tracer.Tracer()
    try:
        t.install(probe)
        ok, _ = gms.pw_check(f1, f2)
    finally:
        t.restore()
    assert ok
    assert t.metric("kernel.poly_mul", "calls") > 0
    assert probe.pairs >= probe.kept > 0
    assert probe.metrics()["jets.coeff_other_share"] == 0


def test_poly_dots_is_looked_up_on_the_kernel(monkeypatch):
    f1 = parse_automorphism("(t1+t2^2, t2+t3^2, t3+t1*t2)", 3, 2)
    f2 = parse_automorphism("(t1-t3^2, t2+2*t1^2, t3+t1*t3)", 3, 2)
    expected = gms.pw_check(f1, f2)
    calls = []
    real = _kernel.poly_dots

    def counting(rows, order):
        calls.append(len(rows))
        return real(rows, order)

    monkeypatch.setattr(_kernel, "poly_dots", counting)
    assert gms.pw_check(f1, f2) == expected
    assert expected[0]
    assert len(calls) > 0


def test_traced_main_records_a_handler_span(capsys):
    argv = ["c1", "--rank", "1", "--x", "t1^2 d1"]
    # the first call builds the parser before the spans are installed
    assert formaldisk.cli.main(argv) == 0
    t = _load_tracer().Tracer()
    try:
        t.install()
        assert formaldisk.cli.main(argv) == 0
    finally:
        t.restore()
    capsys.readouterr()
    assert t.metric("cli.handler", "calls") == 1
    # main and _emit share the span name
    assert t.metric("cli.main", "calls") == 2


def test_cli_imports_every_traced_module_and_numpy_only_for_feynman():
    modules = sorted({module for module, _, _, _ in _load_tracer().TARGETS})
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    out = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE, json.dumps(modules)],
        env=env, capture_output=True, text=True, check=True,
        timeout=120).stdout
    report = json.loads(out)
    assert report == {"missing": [], "numpy": [False, False, True],
                      "codes": [0, 0]}
