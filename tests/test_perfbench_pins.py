"""The benchmark's pinned names exist in the package.

perfbench/tracer.py patches Tape methods and every public function by name,
and each workload in perfbench/workloads.py lists span names that must fire
or stay silent. A name deleted from the package would only show up when the
benchmark runs; these checks read perfbench/ and fail at once instead, and
a short pass of each workload checks that its pins still hold.
"""

import importlib.util
import sys
from dataclasses import replace
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


@pytest.mark.parametrize("workload", sorted(load("workloads").WORKLOADS))
def test_workload_pins_fire(workload):
    """A short pass of the workload under the tracer records every span it pins as firing
    and none it pins as silent, and the tracer puts every binding back. The benchmark runs
    untraced, so a pin the code stops meeting would otherwise show only in a traced run.

    A training pass is 2 epochs of its preset and a top-k selection per modality, a
    baseline pass one run_experiment; both call through module attributes, as the
    benchmark's worker does, so the patched bindings are the ones called."""
    from mmdufs import bench, datagen, gates, trainer

    wl, tracer = load("workloads").WORKLOADS[workload], load("tracer")
    pair = getattr(datagen, wl.generator)(0)
    truth = [getattr(pair, f"truth_{wl.truth}_{m}") for m in "xy"]
    before = tracer.snapshot()
    with tracer.Tracer().installed() as traced:
        if wl.trains:
            cfg = replace(getattr(bench, wl.table)[wl.preset], epochs=2, seed=0)
            result = trainer.train(pair, cfg)
            for state, t in zip((result.gates_x, result.gates_y), truth):
                gates.select_features(state, "top-k", k=len(t))
        else:
            bench.run_experiment({"dataset": pair, "name": "pair",
                                  "methods": list(wl.methods), "seeds": [0]})
    fired = {span[0] for span in traced.spans}
    assert sorted(set(wl.fires) - fired) == []
    assert sorted(set(wl.silent) & fired) == []
    assert tracer.unrestored(before) == []
