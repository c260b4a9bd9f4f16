"""Self-test of the benchmark's tracing and metric plumbing.

    python3 perfbench/selftest.py

For a shortened pass of every workload it checks that:
  - each wrapper the workload should exercise records a span, including the
    functions trainer and bench import by name and graph.median_bandwidth as
    read by KernelConfig.resolve, and that the ones it should not stay silent;
  - every patched binding holds its original again once tracing ends;
  - a traced pass and an untraced pass on the same pair give bit-identical
    output (the gate parameters mu, or the baseline rows);
  - the metric names the worker reports are exactly those in BENCHMARK.json.
Exits 1 on the first failed check.
"""

from __future__ import annotations

import json
import os
import sys
import time
from dataclasses import replace
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[var] = "1"
sys.path.insert(0, str(ROOT / "src"))

import mmdufs  # noqa: E402
import tracer as tr  # noqa: E402
import worker  # noqa: E402
from run import end_to_end  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SHORT_EPOCHS = 3


def check(ok: bool, message: str) -> None:
    print(("ok    " if ok else "FAIL  ") + message)
    if not ok:
        sys.exit(1)


def main() -> int:
    worker.check_source(mmdufs)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    check([w["name"] for w in spec["workloads"]] == list(WORKLOADS),
          "BENCHMARK.json lists the workloads of workloads.py")
    fake = {"pass_s": [1.0], "epochs": 1, "f1_x": 1.0, "f1_y": 1.0, "peak_rss_mb": 1.0}
    check(sorted(end_to_end(fake, [1.0])) == sorted(m["name"] for m in spec["end_to_end"]),
          "end-to-end names match BENCHMARK.json")
    for wl in WORKLOADS.values():
        tracer = tr.Tracer()
        before = tr.snapshot()
        with tracer.installed():
            job = worker.prepare(mmdufs, wl, seed=0)
            patched = [f"{ns.__name__}.{attr}" for ns, attr, original in before
                       if vars(ns)[attr] is original]
        check(not patched, f"{wl.name}: every target was patched {patched or ''}")
        check(not tr.unrestored(before), f"{wl.name}: originals restored after set-up")
        if job.cfgs:
            job.cfgs = [replace(cfg, epochs=SHORT_EPOCHS) for cfg in job.cfgs]

        first = len(tracer.spans)
        with tracer.installed():
            t0 = time.perf_counter()
            traced_out = worker.run_pass(mmdufs, job, 0)
            traced_s = time.perf_counter() - t0
        lost = tr.unrestored(before)
        check(not lost, f"{wl.name}: originals restored after a traced pass {lost or ''}")
        fired = {span[0] for span in tracer.spans[first:]}
        missing = [n for n in wl.fires if n not in fired]
        check(not missing, f"{wl.name}: expected wrappers fired {missing or ''}")
        extra = [n for n in wl.silent if n in fired]
        check(not extra, f"{wl.name}: wrappers that should stay silent did {extra or ''}")
        check(f"datagen.{wl.generator}" in {span[0] for span in tracer.spans[:first]},
              f"{wl.name}: generator span recorded at set-up")

        t0 = time.perf_counter()
        plain_out = worker.run_pass(mmdufs, job, 0)
        plain_s = time.perf_counter() - t0
        _, traced_fp, _ = worker.check_pass(job, 0, traced_out)
        _, plain_fp, _ = worker.check_pass(job, 0, plain_out)
        check(traced_fp == plain_fp and traced_fp != b"",
              f"{wl.name}: traced and untraced passes bit-identical")

        layers = worker.layer_metrics(tracer, first, job.epochs, [plain_s], [traced_s])
        names = [m["name"] for m in spec["per_layer"]]
        check(sorted(layers) == sorted(names), f"{wl.name}: per-layer names match BENCHMARK.json")
    return 0


if __name__ == "__main__":
    sys.exit(main())
