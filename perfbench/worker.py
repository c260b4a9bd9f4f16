"""Runs one workload in a fresh process and prints its measurements as JSON.

``run.py`` starts this file with BLAS threads pinned in the environment and
``src`` on ``PYTHONPATH``. The last line of standard output is one JSON object.

Phases:
  setup    time importing mmdufs, generating the pairs and preparing the job
  measure  set up, warm up, then run passes back to back (a closed loop with
           one client) for ``--seconds``; with ``--trace 1`` passes alternate
           between untraced and traced, and the traced ones give the
           per-layer breakdown
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, replace
from pathlib import Path

import tracer as tr
from workloads import WORKLOADS, Workload

ROOT = Path(__file__).resolve().parent.parent
PAIRS = 3  # pairs per run, generated from seeds 3s, 3s+1, 3s+2 for --seed s
# Every pair runs, and one runs twice, so that a repeat can be compared.
MIN_PASSES = PAIRS + 1


@dataclass
class Job:
    """What the passes of one run need; pass i uses pair i % PAIRS."""

    pairs: list
    truths: list[tuple[list[int], list[int]]]
    cfgs: list | None = None  # RunConfig per pair, for training workloads
    methods: tuple[str, ...] = ()  # run_experiment methods, for baseline workloads

    @property
    def epochs(self) -> int:
        return self.cfgs[0].epochs if self.cfgs else 0


def prepare(mm, wl: Workload, seed: int) -> Job:
    """Generate the workload's pairs from the seed and build what a pass needs."""
    seeds = [PAIRS * seed + i for i in range(PAIRS)]
    pairs = [getattr(mm.datagen, wl.generator)(s) for s in seeds]
    truths = [tuple([int(i) for i in getattr(p, f"truth_{wl.truth}_{m}")] for m in "xy")
              for p in pairs]
    if not wl.trains:
        return Job(pairs, truths, methods=wl.methods)
    preset = getattr(mm.bench, wl.table)[wl.preset]
    return Job(pairs, truths, cfgs=[replace(preset, epochs=wl.epochs, seed=s) for s in seeds])


def run_pass(mm, job: Job, i: int):
    """One pass on pair i % PAIRS through the public entry points."""
    i %= PAIRS
    pair, (truth_x, truth_y) = job.pairs[i], job.truths[i]
    if job.cfgs:
        result = mm.trainer.train(pair, job.cfgs[i])
        sel_x = mm.gates.select_features(result.gates_x, "top-k", k=len(truth_x))
        sel_y = mm.gates.select_features(result.gates_y, "top-k", k=len(truth_y))
        return result.gates_x.mu, result.gates_y.mu, sel_x, sel_y
    spec = {"dataset": pair, "name": "pair", "methods": list(job.methods), "seeds": [i]}
    return mm.bench.run_experiment(spec)


def warm_up(mm, job: Job) -> None:
    """Fill caches and finish lazy library set-up before anything is timed."""
    pair, (truth_x, truth_y) = job.pairs[0], job.truths[0]
    if job.cfgs:
        mm.trainer.train(pair, replace(job.cfgs[0], epochs=2))
    else:
        mm.bench.baseline_select(pair, "MC", len(truth_x), len(truth_y))


def f1(selected, truth) -> float:
    sel, tru = set(selected), set(truth)
    return 2 * len(sel & tru) / (len(sel) + len(tru))


def check_pass(job: Job, i: int, out) -> tuple[list[str], bytes, dict]:
    """(problems, fingerprint, {method: (f1_x, f1_y)}) of pass i's output.

    The fingerprint is compared across passes on one pair: the same seed at
    the same BLAS thread count must give bit-identical results.
    """
    if job.cfgs:
        mu_x, mu_y, sel_x, sel_y = out
        truth_x, truth_y = job.truths[i % PAIRS]
        scores = {"mmDUFS": (f1(sel_x, truth_x), f1(sel_y, truth_y))}
        fingerprint = mu_x.tobytes() + mu_y.tobytes()
        if not all(map(math.isfinite, [*mu_x, *mu_y])):
            return ["non-finite mu"], fingerprint, scores
    else:
        errors = [f"{r['method']} failed: {r['error']}" for r in out if "error" in r]
        if errors:
            return errors, b"", {}
        scores = {r["method"]: (r["f1_x"], r["f1_y"]) for r in out}
        if list(scores) != list(job.methods):
            return [f"rows for {list(scores)}, expected {list(job.methods)}"], b"", {}
        fingerprint = json.dumps(scores).encode()
    return [], fingerprint, scores


def pooled_f1(per_pair: dict) -> tuple[float, float]:
    """The best method's mean F1 over the pairs (0 unless every pair passed).

    A training workload has one method; for baselines the best one is what
    the acceptance tests compare mmDUFS against. Like those tests' three-seed
    means, pooling keeps one hard pair from deciding the floor check.
    """
    if len(per_pair) < PAIRS:
        return 0.0, 0.0
    methods = per_pair[0]
    return tuple(max(sum(s[m][k] for s in per_pair.values()) / PAIRS for m in methods)
                 for k in (0, 1))


def environment(seed: int) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "nproc": len(os.sched_getaffinity(0)),
        "seed": seed,
    }


def check_source(mm) -> None:
    """Refuse to measure an mmdufs other than the one in this checkout."""
    expected = (ROOT / "src" / "mmdufs").resolve()
    if Path(mm.__file__).resolve().parent != expected:
        raise SystemExit(f"mmdufs imported from {mm.__file__}, expected {expected}")


def measure(mm, wl: Workload, job: Job, seconds: float, tracer=None) -> dict:
    """Timed passes until ``seconds`` are used (at least MIN_PASSES), with checks.

    With a tracer, every second pass runs with the tracer installed, so each
    pair's repeat compares a traced pass with an untraced one.
    """
    warm_up(mm, job)
    plain, traced, problems = [], [], []
    references, scores = {}, {}
    failed, last = 0, 0.0
    trace_first = len(tracer.spans) if tracer is not None else 0
    start = time.perf_counter()
    i = 0
    while i < MIN_PASSES or time.perf_counter() - start + last <= seconds:
        with_trace = tracer is not None and i % 2 == 1
        issues = []
        try:
            if with_trace:
                before = tr.snapshot()
                first = len(tracer.spans)
                with tracer.installed():
                    t0 = time.perf_counter()
                    out = run_pass(mm, job, i)
                    last = time.perf_counter() - t0
                fired = {span[0] for span in tracer.spans[first:]}
                issues += [f"wrapper {n} did not fire" for n in wl.fires if n not in fired]
                issues += [f"wrapper {n} fired" for n in wl.silent if n in fired]
                issues += [f"{n} not restored" for n in tr.unrestored(before)]
            else:
                t0 = time.perf_counter()
                out = run_pass(mm, job, i)
                last = time.perf_counter() - t0
            (traced if with_trace else plain).append(last)
            found, fingerprint, pass_scores = check_pass(job, i, out)
            issues += found
            pair = i % PAIRS
            if not found:
                if references.setdefault(pair, fingerprint) != fingerprint:
                    issues.append(f"output differs from an earlier pass on pair {pair}")
                scores.setdefault(pair, pass_scores)
        except Exception:
            traceback.print_exc()
            issues.append("raised")
        if issues:
            failed += 1
            problems += [f"pass {i}: {issue}" for issue in issues]
        i += 1
        if i == MIN_PASSES:
            # Peak memory over a fixed amount of work, not over a time budget.
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    f1_x, f1_y = pooled_f1(scores)
    if f1_x < wl.f1_floor[0] or f1_y < wl.f1_floor[1]:
        # The floor is a check on the run's output as a whole.
        failed = i
        problems.append(f"F1 {f1_x:.3f}/{f1_y:.3f} below floor {wl.f1_floor}")
    result = {
        "pass_s": plain,
        "traced_pass_s": traced,
        "epochs": job.epochs,
        "f1_x": f1_x,
        "f1_y": f1_y,
        "attempted": i,
        "failed": failed,
        "problems": problems,
        "peak_rss_mb": peak_rss_mb,
    }
    if tracer is not None:
        result["layers"] = layer_metrics(tracer, trace_first, job.epochs, plain, traced)
    return result


def _quantile(values, q):
    """Nearest-rank quantile; 0 for no values."""
    if not values:
        return 0.0
    values = sorted(values)
    return values[min(len(values) - 1, max(0, math.ceil(q * len(values)) - 1))]


def layer_metrics(tracer, first, epochs_per_pass, plain, traced) -> dict:
    """Per-layer metrics of the traced passes (spans from ``first`` on).

    ``*_per_epoch`` divides by all traced epochs and is 0 on a workload that
    does not train; ``.s`` metrics are seconds per traced pass, except the
    generator's, which is seconds per pair generated at set-up.
    """
    total, self_s, calls = tracer.summary(first)
    setup_total, _, _ = tracer.summary(0)
    counts = tracer.counts
    epochs = epochs_per_pass * len(traced)
    passes = len(traced)

    def ms_epoch(seconds):
        return seconds * 1000.0 / epochs if epochs else 0.0

    def per_epoch(count, scale=1):
        return count / (epochs * scale) if epochs else 0.0

    def per_pass(seconds):
        return seconds / passes if passes else 0.0

    epoch_s = tracer.epoch_durations(first)
    out = {
        "tape.backward.ms_per_epoch": ms_epoch(total["tape.backward"]),
        "tape.backward.calls_per_epoch": per_epoch(calls["tape.backward"]),
        "tape.nodes_per_epoch": per_epoch(counts["tape.nodes"]),
        "tape.recorded_mb_per_epoch": per_epoch(counts["tape.recorded_bytes"], 10**6),
        "tape.matmul.ms_per_epoch": ms_epoch(total["tape.matmul"]),
        "tape.matmul.gflop_per_epoch": per_epoch(counts["tape.matmul.flop"], 10**9),
        "graph.median_bandwidth.calls_per_epoch": per_epoch(calls["graph.median_bandwidth"]),
        "graph.median_bandwidth.ms_per_epoch": ms_epoch(total["graph.median_bandwidth"]),
        "graph.build_graph_pair.self_ms_per_epoch": ms_epoch(self_s["graph.build_graph_pair"]),
        "graph.kernel_on_tape.ms_per_epoch": ms_epoch(total["graph.kernel_on_tape"]),
        "trainer.train.self_ms_per_epoch": ms_epoch(self_s["trainer.train"]),
        "trainer.epoch_ms.p50": 1000.0 * _quantile(epoch_s, 0.50),
        "trainer.epoch_ms.p95": 1000.0 * _quantile(epoch_s, 0.95),
        "gates.draw_noise.calls_per_epoch": per_epoch(calls["gates.draw_noise"]),
        "gates.select_features.ms_per_epoch": ms_epoch(total["gates.select_features"]),
        "bench.run_experiment.self_s": per_pass(self_s["bench.run_experiment"]),
        "trace.overhead_pct": 100.0 * (statistics.median(traced) / statistics.median(plain) - 1.0),
    }
    for name in ("tape.inverse", "tape.sq_dists", "tape.exp", "tape.sym_normalize",
                 "operators.shared_operator", "operators.differential_operator",
                 "trainer.shared_loss", "trainer.differential_loss"):
        out[f"{name}.ms_per_epoch"] = ms_epoch(total[name])
    for name in ("graph.gaussian_kernel", "graph.normalized_laplacian", "graph.median_bandwidth",
                 "operators.score_all_features", "bench.baseline_select.MC",
                 "bench.baseline_select.mmKS", "bench.baseline_select.mmKP"):
        out[f"{name}.s"] = per_pass(total[name])
    for name in ("datagen.gen_gaussian_mixture", "datagen.gen_tree"):
        out[f"{name}.s"] = (setup_total[name] - total[name]) / PAIRS
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--phase", choices=("setup", "measure"), default="measure")
    args = parser.parse_args(argv)
    wl = WORKLOADS[args.workload]

    tracer = None
    t0 = time.perf_counter()
    import mmdufs

    if args.trace:
        tracer = tr.Tracer()
        with tracer.installed():
            job = prepare(mmdufs, wl, args.seed)
    else:
        job = prepare(mmdufs, wl, args.seed)
    setup_s = time.perf_counter() - t0
    check_source(mmdufs)

    result = {"setup_s": setup_s}
    if args.phase == "measure":
        result.update(measure(mmdufs, wl, job, args.seconds, tracer))
        result["env"] = environment(args.seed)
    print(json.dumps(result))
    return 1 if result.get("failed") else 0


if __name__ == "__main__":
    sys.exit(main())
