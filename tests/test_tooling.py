"""The benchmark's span tracer (``perfbench/tracer.py``) still finds every
function it wraps: renaming or deleting one of them breaks the traced
benchmark run, and this test breaks first."""

import importlib.util
import pathlib
import sys

import formaldisk.cli  # noqa: F401  (imports every module the tracer wraps)

TRACER = pathlib.Path(__file__).resolve().parent.parent / "perfbench" / \
    "tracer.py"


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
