"""mmdufs benchmark: one workload (or all of them), each in fresh processes.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload gaussian-shared --seed 0 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 0

With ``--trace 0`` it prints the end-to-end metrics of BENCHMARK.json, with
``--trace 1`` the per-layer ones. The last line of standard output is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``. The exit code is 0
only when every pass passed its checks.

This file imports no numpy: BLAS threads are pinned in each child's
environment before numpy loads there.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BLAS_THREADS = "1"
SETUP_CHILDREN = 2  # set-up-only processes per run; the measuring one adds a third sample
CHILD_TIMEOUT_S = 170


def child_env() -> dict:
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = BLAS_THREADS
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    return env


def run_child(args: list[str], timeout: float) -> dict:
    """Run worker.py to completion and return its last-line JSON.

    Exits this process with the child's code when the child prints no result.
    """
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), *args],
        cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, text=True, timeout=timeout,
    )
    lines = proc.stdout.strip().splitlines()
    try:
        return json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        sys.stderr.write(proc.stdout)
        sys.stderr.write(f"worker {' '.join(args)} exited {proc.returncode} without a result\n")
        raise SystemExit(proc.returncode or 1)


def end_to_end(res: dict, setup: list[float]) -> dict:
    run_s = statistics.median(res["pass_s"])
    return {
        "setup_s": statistics.median(setup),
        "run_s": run_s,
        # A baseline pass has no epochs; it counts as one.
        "epoch_ms": 1000.0 * run_s / max(res["epochs"], 1),
        "f1_x": res["f1_x"],
        "f1_y": res["f1_y"],
        "peak_rss_mb": res["peak_rss_mb"],
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool, spec: dict) -> dict:
    common = ["--workload", name, "--seed", str(seed)]
    setup = []
    if not trace:
        for _ in range(SETUP_CHILDREN):
            setup.append(run_child(common + ["--phase", "setup"], CHILD_TIMEOUT_S)["setup_s"])
    res = run_child(common + ["--seconds", str(seconds), "--trace", str(int(trace))],
                    CHILD_TIMEOUT_S)
    setup.append(res["setup_s"])
    values = res["layers"] if trace else end_to_end(res, setup)
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}

    print(f"env: {json.dumps(res['env'])}")
    print(f"workload {name}: closed loop, one client; {len(res['pass_s'])} untraced passes"
          + (f", {len(res['traced_pass_s'])} traced" if trace else "")
          + (f", {res['epochs']} epochs each" if res["epochs"] else ""))
    for key, m in metrics.items():
        note = ""
        if key == "setup_s":
            note = f"median of {len(setup)} processes"
        elif key in ("run_s", "epoch_ms"):
            note = f"median of {len(res['pass_s'])} passes"
        print(f"  {key:<44} {m['value']:>12.6g} {m['unit']:<12} {note}")
    print(f"  {'fail_ratio':<44} {res['failed'] / res['attempted']:>12.6g} "
          f"{'ratio':<12} {res['failed']}/{res['attempted']} passes")
    print(f"  pass seconds: {', '.join(f'{t:.4f}' for t in res['pass_s'])}")
    for problem in res["problems"]:
        print(f"  FAILED {problem}")
    return {
        "correct": res["failed"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": metrics,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="mmdufs benchmark")
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measured seconds per workload (default: BENCHMARK.json run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # Turn SIGTERM into an exception, so subprocess.run kills and reaps the worker.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if not (ROOT / "src" / "mmdufs" / "__init__.py").is_file():
        sys.stderr.write(f"no mmdufs sources under {ROOT / 'src'}\n")
        return 2
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]

    results = {n: run_workload(n, args.seed, seconds, bool(args.trace), spec) for n in names}
    if len(names) == 1:
        summary = results[names[0]]
    else:
        summary = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}/{k}": m for n, r in results.items() for k, m in r["metrics"].items()},
        }
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
