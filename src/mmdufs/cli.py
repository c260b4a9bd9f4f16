"""Command-line front end.

Verbs: generate, train, tune, select, baseline, evaluate, reproduce.
Exit codes: 0 success, 1 numerical failure, 2 usage or configuration error.
The environment variable MMDUFS_SEED provides a global seed fallback.
"""

from __future__ import annotations

import csv
import json
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import replace
from pathlib import Path

import click
import numpy as np

from .bench import (
    BASELINES,
    DATASET_PRESETS,
    SHARED_HYPERPARAMS,
    baseline_select,
    format_report,
    run_experiment,
    write_rows_csv,
)
from .datagen import IngestionError, ModalPair, gen_cube, load_pair, save_pair
from .gates import f1, load_gates_csv, save_gates_csv, select_features
from .graph import data_laplacian
from .operators import shared_operator_array
from .tape import ContractError, NumericalError, SingularMatrixError, eigh_descending
from .trainer import RunConfig, TrainingDiverged, train, warmup_tune

GENERATOR_PRESETS = dict(DATASET_PRESETS)
GENERATOR_PRESETS["cube"] = lambda seed: gen_cube(seed)

_NUMERICAL_ERRORS = (NumericalError, SingularMatrixError, TrainingDiverged)
_USAGE_ERRORS = (ContractError, IngestionError, ValueError, KeyError, OSError)


def _default_seed() -> int:
    env = os.environ.get("MMDUFS_SEED")
    if env is None:
        return 0
    try:
        return int(env)
    except ValueError:
        raise click.UsageError(f"MMDUFS_SEED must be an integer, got '{env}'")


def _resolve_seed(seed: int | None) -> int:
    return _default_seed() if seed is None else seed


def _guard_overwrite(paths: list[Path], force: bool) -> None:
    existing = [str(p) for p in paths if p.exists()]
    if existing and not force:
        raise click.UsageError(
            f"refusing to overwrite existing artifacts (use --force): {', '.join(existing)}"
        )


def _emit(text: str, out_path: Path | None, force: bool) -> None:
    """Echo text, or write it to out_path (guarded against overwriting)."""
    if out_path is None:
        click.echo(text)
    else:
        _guard_overwrite([out_path], force)
        Path(out_path).write_text(text)


def _write_csv(path: Path, rows: list[dict]) -> None:
    """rows as CSV under a header of the first row's keys."""
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
        writer.writeheader()
        writer.writerows(rows)


def _load_config(config_path, seed: int | None, overrides: dict) -> RunConfig:
    """RunConfig from the file or defaults; seed: --seed, the file's, MMDUFS_SEED, else 0."""
    cfg = RunConfig()
    if config_path is not None:
        try:
            fields = json.loads(Path(config_path).read_text())
            cfg = RunConfig(**fields)
        except (json.JSONDecodeError, TypeError) as exc:
            raise click.UsageError(f"bad config {config_path}: {exc}")
        if seed is None and "seed" in fields:
            seed = cfg.seed
    clean = {k: v for k, v in overrides.items() if v is not None}
    return replace(cfg, seed=_resolve_seed(seed), **clean)


def _run(body) -> None:
    """Shared error-to-exit-code mapping for command bodies."""
    try:
        body()
    except click.ClickException:
        raise
    except _NUMERICAL_ERRORS as exc:
        click.echo(f"numerical failure: {exc}", err=True)
        sys.exit(1)
    except _USAGE_ERRORS as exc:
        raise click.UsageError(str(exc))


@click.group()
def main() -> None:
    """Multi-modal differentiable unsupervised feature selection."""


@main.command()
@click.option("--preset", required=True, help=f"one of {sorted(GENERATOR_PRESETS)}")
@click.option("--out", "outdir", required=True, type=click.Path(path_type=Path))
@click.option("--seed", type=int, default=None, help="generator seed (default: MMDUFS_SEED or 0)")
@click.option("--force", is_flag=True, help="overwrite existing artifacts")
def generate(preset: str, outdir: Path, seed: int | None, force: bool) -> None:
    """Write a synthetic dataset (X.csv, Y.csv, truth files, manifest.json)."""
    if preset not in GENERATOR_PRESETS:
        raise click.UsageError(f"unknown preset '{preset}'; choose from {sorted(GENERATOR_PRESETS)}")

    def body():
        _guard_overwrite([outdir / "manifest.json"], force)
        pair = GENERATOR_PRESETS[preset](_resolve_seed(seed))
        save_pair(pair, outdir)
        click.echo(f"wrote {preset} dataset to {outdir}")

    _run(body)


def _load_data(datadir: Path) -> ModalPair:
    if not (Path(datadir) / "X.csv").exists():
        raise click.UsageError(f"no dataset found in {datadir} (missing X.csv)")
    return load_pair(datadir)


@main.command(name="train")
@click.option("--data", "datadir", required=True, type=click.Path(path_type=Path))
@click.option("--config", "config_path", type=click.Path(path_type=Path), default=None,
              help="RunConfig JSON (see `mmdufs train --help`)")
@click.option("--out", "outdir", required=True, type=click.Path(path_type=Path))
@click.option("--seed", type=int, default=None)
@click.option("--epochs", type=int, default=None, help="override config epochs")
@click.option("--mode", type=click.Choice(["shared", "differential"]), default=None)
@click.option("--force", is_flag=True)
def train_cmd(datadir, config_path, outdir, seed, epochs, mode, force) -> None:
    """Train gate vectors; write gates, train log, selection, and manifest."""

    def body():
        cfg = _load_config(config_path, seed, {"epochs": epochs, "mode": mode})
        pair = _load_data(datadir)
        outdir.mkdir(parents=True, exist_ok=True)
        artifacts = [outdir / n for n in ("gates_x.csv", "gates_y.csv", "train_log.csv",
                                          "selection.json", "run_manifest.json")]
        _guard_overwrite(artifacts, force)

        result = train(pair, cfg, ground_truth=dict(zip("xy", pair.truth(cfg.mode))))

        save_gates_csv(result.gates_x, outdir / "gates_x.csv")
        save_gates_csv(result.gates_y, outdir / "gates_y.csv")
        _write_csv(outdir / "train_log.csv", result.log.rows)
        k_x, k_y = pair.selection_sizes(cfg.mode)
        selection = {
            "x": select_features(result.gates_x, "top-k", k=k_x),
            "y": select_features(result.gates_y, "top-k", k=k_y),
            "converged_x": select_features(result.gates_x, "converged"),
            "converged_y": select_features(result.gates_y, "converged"),
        }
        (outdir / "selection.json").write_text(json.dumps(selection, indent=2))
        (outdir / "run_manifest.json").write_text(cfg.to_json())
        last = result.log.last
        click.echo(f"trained {cfg.epochs} epochs; final record: {last}")

    _run(body)


@main.command()
@click.option("--data", "datadir", required=True, type=click.Path(path_type=Path))
@click.option("--config", "config_path", type=click.Path(path_type=Path), default=None)
@click.option("--out", "outdir", required=True, type=click.Path(path_type=Path))
@click.option("--grid", default="1e-6,1e-5,1e-4,1e-3,1e-2,1e-1,1,10,100",
              help="comma-separated lambda grid")
@click.option("--warmup-epochs", type=int, default=1000)
@click.option("--seed", type=int, default=None)
@click.option("--force", is_flag=True)
def tune(datadir, config_path, outdir, grid, warmup_epochs, seed, force) -> None:
    """Warm-up lambda tuning: short runs over a grid, score table + choice."""

    def body():
        try:
            values = [float(v) for v in grid.split(",") if v.strip()]
        except ValueError:
            raise click.UsageError(f"bad --grid '{grid}'")
        cfg = _load_config(config_path, seed, {})
        pair = _load_data(datadir)
        outdir.mkdir(parents=True, exist_ok=True)
        _guard_overwrite([outdir / "lambda_grid.csv", outdir / "chosen_lambda.json"], force)

        lam_x, lam_y, records = warmup_tune(pair, cfg, values, warmup_epochs=warmup_epochs)
        _write_csv(outdir / "lambda_grid.csv", records)
        (outdir / "chosen_lambda.json").write_text(
            json.dumps({"lambda_x": lam_x, "lambda_y": lam_y}, indent=2)
        )
        click.echo(f"chosen lambda_x={lam_x} lambda_y={lam_y}")

    _run(body)


@main.command()
@click.option("--gates", "gates_path", required=True, type=click.Path(path_type=Path))
@click.option("--policy", type=click.Choice(["top-k", "converged"]), default="top-k")
@click.option("--k", type=int, default=None)
@click.option("--out", "out_path", type=click.Path(path_type=Path), default=None,
              help="write selection JSON here (default: stdout)")
@click.option("--force", is_flag=True)
def select(gates_path, policy, k, out_path, force) -> None:
    """Feature selection from a saved gates CSV."""

    def body():
        if not Path(gates_path).exists():
            raise click.UsageError(f"no gates file at {gates_path}")
        state = load_gates_csv(gates_path)
        chosen = select_features(state, policy, k=k)
        _emit(json.dumps({"policy": policy, "k": k, "selected": chosen}, indent=2), out_path, force)

    _run(body)


@main.command()
@click.option("--data", "datadir", required=True, type=click.Path(path_type=Path))
@click.option("--method", type=click.Choice(list(BASELINES)), required=True)
@click.option("--k-x", type=int, default=None, help="default: size of shared truth for X")
@click.option("--k-y", type=int, default=None)
@click.option("--out", "out_path", type=click.Path(path_type=Path), default=None)
@click.option("--force", is_flag=True)
def baseline(datadir, method, k_x, k_y, out_path, force) -> None:
    """Run a kernel-fusion baseline selector on a saved dataset."""

    def body():
        pair = _load_data(datadir)
        kx, ky = pair.selection_sizes("shared")
        res = baseline_select(pair, method, kx if k_x is None else k_x, ky if k_y is None else k_y)
        payload = {
            "method": res.method,
            "selected_x": res.selected_x,
            "selected_y": res.selected_y,
            "f1_x": res.f1_x,
            "f1_y": res.f1_y,
        }
        _emit(json.dumps(payload, indent=2), out_path, force)

    _run(body)


@main.command()
@click.option("--selection", "selection_path", required=True, type=click.Path(path_type=Path),
              help="selection JSON with 'x'/'y' index lists")
@click.option("--data", "datadir", required=True, type=click.Path(path_type=Path))
@click.option("--mode", type=click.Choice(["shared", "differential"]), default="shared")
@click.option("--out", "out_path", type=click.Path(path_type=Path), default=None)
@click.option("--force", is_flag=True)
def evaluate(selection_path, datadir, mode, out_path, force) -> None:
    """F1 of a saved selection against a dataset's ground truth."""

    def body():
        if not Path(selection_path).exists():
            raise click.UsageError(f"no selection file at {selection_path}")
        sel = json.loads(Path(selection_path).read_text())
        pair = _load_data(datadir)
        rows = [
            {"modality": mod, "f1": f1(sel[mod], truth), "selected": len(sel[mod]),
             "truth": len(truth)}
            for mod, truth in zip("xy", pair.truth(mode))
            if truth is not None and mod in sel
        ]
        if not rows:
            raise click.UsageError("nothing to evaluate: no matching truth/selection entries")
        _emit(json.dumps(rows, indent=2), out_path, force)

    _run(body)


def _experiment_cell(args):
    spec, methods, seed = args
    return run_experiment({**spec, "methods": methods, "seeds": [seed]})


def _run_cells(spec: dict, jobs: int) -> list[dict]:
    """run_experiment(spec)'s rows, in its (seed, method) order, from up to jobs processes.

    A cell is one seed's baselines, which share that seed's Laplacians, or one other run.
    """
    methods = spec.get("methods", list(BASELINES) + ["mmDUFS"])
    seeds = spec.get("seeds", [0])
    groups = [[m for m in methods if m in BASELINES]] + [[m] for m in methods if m not in BASELINES]
    groups = [g for g in groups if g]
    cells = [(spec, group, s) for s in seeds for group in groups]
    if jobs <= 1 or len(cells) <= 1:
        return run_experiment(spec)
    rows: list[dict] = []
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        results = pool.map(_experiment_cell, cells)
        for _ in seeds:
            seed_rows = [row for _ in groups for row in next(results)]
            rows.extend(sorted(seed_rows, key=lambda row: methods.index(row["method"])))
    return rows


_TABLE_DATASETS = {
    "gaussian_table": ["gaussian", "gaussian+10", "gaussian+30", "gaussian+50"],
    "tree_table": ["tree"],
}


def _reproduce_table(outdir: Path, stem: str, seed: int, jobs: int, epochs: int | None) -> None:
    rows = []
    for ds in _TABLE_DATASETS[stem]:
        spec = {"dataset": ds, "seeds": [seed, seed + 1, seed + 2]}
        if epochs is not None:
            spec["epochs"] = epochs
        rows.extend(_run_cells(spec, jobs))
    write_rows_csv(rows, outdir / f"{stem}.csv")
    report = format_report(rows)
    (outdir / f"{stem}.txt").write_text(report + "\n")
    click.echo(report)


def _reproduce_cube_figure(outdir: Path, seed: int) -> None:
    pair = gen_cube(seed)
    l_s = pair.meta["l_s"]
    lx, ly = data_laplacian(pair.x, 1.0), data_laplacian(pair.y, 1.0)
    p_shared = shared_operator_array(lx, ly)
    _, vecs_p = eigh_descending(p_shared)
    _, vecs_x = eigh_descending(lx)
    theta_s = pair.latent[:, 0]
    rows = []
    for i in range(pair.n_samples):
        row = {"theta_s": theta_s[i], "theta_a": pair.latent[i, 1], "theta_b": pair.latent[i, 2]}
        for j in range(1, 4):
            row[f"p_shared_vec{j}"] = vecs_p[i, j]
            row[f"l_x_vec{j}"] = vecs_x[i, j]
            row[f"cos{j}"] = np.cos(np.pi * j * theta_s[i] / l_s)
        rows.append(row)
    _write_csv(outdir / "cube_figure.csv", rows)
    # R^2 of each operator eigenvector against the matching shared-mode cosine
    summary = []
    for j in range(1, 4):
        cos = np.cos(np.pi * j * theta_s / l_s)
        for name, vecs in (("p_shared", vecs_p), ("l_x", vecs_x)):
            v = vecs[:, j]
            a = np.column_stack([cos, np.ones_like(cos)])
            coef, _, _, _ = np.linalg.lstsq(a, v, rcond=None)
            resid = v - a @ coef
            r2 = 1.0 - resid.var() / v.var()
            summary.append({"operator": name, "mode": j, "r_squared": float(r2)})
    _write_csv(outdir / "cube_r2.csv", summary)
    click.echo(json.dumps(summary, indent=2))


def _reproduce_lambda_grid(outdir: Path, seed: int, epochs: int | None) -> None:
    from .datagen import gen_gaussian_mixture

    pair = gen_gaussian_mixture(seed)
    cfg = replace(SHARED_HYPERPARAMS["gaussian"], seed=seed)
    grid = [1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1.0, 10.0, 100.0]
    warmup = 1000
    lam_x, _, records = warmup_tune(pair, cfg, grid, warmup_epochs=warmup)
    # full(er) training per grid value for the F1 column
    full_epochs = epochs if epochs is not None else 3000
    rows = []
    for rec in records:
        lam = rec["lambda"]
        run_cfg = replace(cfg, lambda_x=lam, lambda_y=lam, epochs=full_epochs)
        result = train(pair, run_cfg)
        sel_x = select_features(result.gates_x, "top-k", k=len(pair.truth_shared_x))
        sel_y = select_features(result.gates_y, "top-k", k=len(pair.truth_shared_y))
        rows.append({
            "lambda": lam,
            "score_shared": rec["score_shared"],
            "f1_x": f1(sel_x, pair.truth_shared_x),
            "f1_y": f1(sel_y, pair.truth_shared_y),
            "chosen": lam == lam_x,
        })
    _write_csv(outdir / "lambda_grid.csv", rows)
    click.echo(f"chosen lambda={lam_x}; wrote {outdir / 'lambda_grid.csv'}")


@main.command()
@click.argument("target", type=click.Choice(
    ["gaussian-table", "tree-table", "cube-figure", "lambda-grid"]))
@click.option("--out", "outdir", required=True, type=click.Path(path_type=Path))
@click.option("--seed", type=int, default=None)
@click.option("--jobs", type=int, default=None, help="worker processes (default: logical cores)")
@click.option("--epochs", type=int, default=None, help="override training epochs (smoke runs)")
@click.option("--force", is_flag=True)
def reproduce(target, outdir, seed, jobs, epochs, force) -> None:
    """One-command reproduction of a desk-scale result."""

    def body():
        outdir.mkdir(parents=True, exist_ok=True)
        stem = target.replace("-", "_")  # each target's main artifact is <stem>.csv
        _guard_overwrite([outdir / f"{stem}.csv"], force)
        s = _resolve_seed(seed)
        n_jobs = jobs if jobs is not None else (os.cpu_count() or 1)
        if stem in _TABLE_DATASETS:
            _reproduce_table(outdir, stem, s, n_jobs, epochs)
        elif target == "cube-figure":
            _reproduce_cube_figure(outdir, s)
        else:
            _reproduce_lambda_grid(outdir, s, epochs)

    _run(body)


if __name__ == "__main__":
    main()
