"""The benchmark's pinned names exist in the package.

perfbench/tracer.py patches Tape methods and every public function by name,
and each workload in perfbench/workloads.py lists span names that must fire
or stay silent. A name deleted from the package would only show up when the
benchmark runs; these checks read perfbench/ and fail at once instead.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def load(stem):
    """perfbench/<stem>.py as a module named perfbench_<stem>."""
    name = f"perfbench_{stem}"
    if name not in sys.modules:
        spec = importlib.util.spec_from_file_location(name, PERFBENCH / f"{stem}.py")
        module = importlib.util.module_from_spec(spec)
        sys.modules[name] = module  # dataclasses resolve annotations through sys.modules
        spec.loader.exec_module(module)
    return sys.modules[name]


def test_tracer_installs():
    """Every PRIMITIVES and TAPE_METHODS name, and every public function, can be patched."""
    tracer = load("tracer")
    before = tracer.snapshot()
    with tracer.Tracer().installed():
        pass
    assert tracer.unrestored(before) == []


def span_target(span: str) -> str:
    """The traced callable a span name comes from: baseline spans carry a method suffix."""
    prefix = "bench.baseline_select."
    return "bench.baseline_select" if span.startswith(prefix) else span


@pytest.mark.parametrize("workload", sorted(load("workloads").WORKLOADS))
def test_workload_spans_are_tracer_targets(workload):
    wl = load("workloads").WORKLOADS[workload]
    targets = {name for _, _, name, _, _ in load("tracer").targets()}
    pinned = wl.fires + wl.silent
    assert pinned
    assert sorted({span for span in pinned if span_target(span) not in targets}) == []
