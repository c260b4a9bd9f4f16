"""Command-line front end.

Verbs: generate, train, tune, select, baseline, evaluate, reproduce.
Exit codes: 0 success, 1 numerical failure, 2 usage or configuration error.
The environment variable MMDUFS_SEED provides a global seed fallback.
"""

from __future__ import annotations

import functools
import json
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import replace
from itertools import islice
from pathlib import Path

import click
import numpy as np

from .bench import (
    BASELINES,
    DATASET_PRESETS,
    ROW_FIELDS,
    SHARED_HYPERPARAMS,
    baseline_select,
    format_report,
    run_experiment,
    write_rows_csv,
)
from .datagen import DATASET_FILES, check_indices, gen_cube, load_pair, read_json, save_pair
from .gates import f1, load_gates_csv, save_gates_csv, select_features, selection_f1
from .graph import data_laplacian
from .operators import shared_operator_array
from .tape import ContractError, NumericalError, SingularMatrixError, eigh_descending
from .trainer import (LAMBDA_GRID, WARMUP_EPOCHS, RunConfig, TrainingDiverged, best_lambda, run,
                      train, warmup_record, warmup_tune)

GENERATOR_PRESETS = {**DATASET_PRESETS, "cube": gen_cube}

_NUMERICAL_ERRORS = (NumericalError, SingularMatrixError, TrainingDiverged)
_USAGE_ERRORS = (ContractError, ValueError, KeyError, OSError)  # ValueError: IngestionError too


def _seed(seed: int | None) -> int:
    """seed if given, else the MMDUFS_SEED environment variable, else 0."""
    if seed is not None:
        return seed
    env = os.environ.get("MMDUFS_SEED", "0")
    try:
        return int(env)
    except ValueError:
        raise click.UsageError(f"MMDUFS_SEED must be an integer, got '{env}'")


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
    return replace(cfg, seed=_seed(seed), **clean)


def _exit_codes(command):
    """Map a command's failures to exit codes: numerical 1, usage or configuration 2."""

    @functools.wraps(command)
    def wrapper(*args, **kwargs):
        try:
            return command(*args, **kwargs)
        except _NUMERICAL_ERRORS as exc:
            click.echo(f"numerical failure: {exc}", err=True)
            sys.exit(1)
        except _USAGE_ERRORS as exc:
            raise click.UsageError(str(exc))

    return wrapper


@click.group()
def main() -> None:
    """Multi-modal differentiable unsupervised feature selection."""


@main.command()
@click.option("--preset", type=click.Choice(list(GENERATOR_PRESETS)), required=True)
@click.option("--out", "outdir", required=True, type=click.Path(path_type=Path))
@click.option("--seed", type=int, default=None, help="generator seed (default: MMDUFS_SEED or 0)")
@click.option("--force", is_flag=True, help="overwrite existing artifacts")
@_exit_codes
def generate(preset: str, outdir: Path, seed: int | None, force: bool) -> None:
    """Write a synthetic dataset (X.csv, Y.csv, truth files, manifest.json)."""
    dataset_files = [outdir / name for name in DATASET_FILES]
    _guard_overwrite(dataset_files, force)
    pair = GENERATOR_PRESETS[preset](_seed(seed))
    for path in dataset_files:  # under --force, no file of the dataset it replaces stays
        path.unlink(missing_ok=True)
    save_pair(pair, outdir)
    click.echo(f"wrote {preset} dataset to {outdir}")


@main.command(name="train")
@click.option("--data", "datadir", required=True, type=click.Path(path_type=Path))
@click.option("--config", "config_path", type=click.Path(path_type=Path), default=None,
              help="RunConfig JSON (see `mmdufs train --help`)")
@click.option("--out", "outdir", required=True, type=click.Path(path_type=Path))
@click.option("--seed", type=int, default=None)
@click.option("--epochs", type=int, default=None, help="override config epochs")
@click.option("--mode", type=click.Choice(["shared", "differential"]), default=None)
@click.option("--force", is_flag=True)
@_exit_codes
def train_cmd(datadir, config_path, outdir, seed, epochs, mode, force) -> None:
    """Train gate vectors; write gates, train log, selection, and manifest."""
    cfg = _load_config(config_path, seed, {"epochs": epochs, "mode": mode})
    pair = load_pair(datadir)
    outdir.mkdir(parents=True, exist_ok=True)
    artifacts = [outdir / n for n in ("gates_x.csv", "gates_y.csv", "train_log.csv",
                                      "selection.json", "run_manifest.json")]
    _guard_overwrite(artifacts, force)

    result = train(pair, cfg, truth=pair.truth(cfg.mode))

    save_gates_csv(result.gates_x, outdir / "gates_x.csv")
    save_gates_csv(result.gates_y, outdir / "gates_y.csv")
    write_rows_csv(result.log, outdir / "train_log.csv")
    k_x, k_y = pair.selection_sizes(cfg.mode)
    selection = {
        "x": select_features(result.gates_x, "top-k", k=k_x),
        "y": select_features(result.gates_y, "top-k", k=k_y),
        "converged_x": select_features(result.gates_x, "converged"),
        "converged_y": select_features(result.gates_y, "converged"),
    }
    (outdir / "selection.json").write_text(json.dumps(selection, indent=2))
    (outdir / "run_manifest.json").write_text(cfg.to_json())
    click.echo(f"trained {cfg.epochs} epochs; final record: {result.log[-1]}")


@main.command()
@click.option("--data", "datadir", required=True, type=click.Path(path_type=Path))
@click.option("--config", "config_path", type=click.Path(path_type=Path), default=None)
@click.option("--out", "outdir", required=True, type=click.Path(path_type=Path))
@click.option("--grid", default=",".join(map(str, LAMBDA_GRID)),
              help="comma-separated lambda grid")
@click.option("--warmup-epochs", type=int, default=WARMUP_EPOCHS)
@click.option("--seed", type=int, default=None)
@click.option("--force", is_flag=True)
@_exit_codes
def tune(datadir, config_path, outdir, grid, warmup_epochs, seed, force) -> None:
    """Warm-up lambda tuning: short runs over a grid, score table + choice."""
    try:
        values = [float(v) for v in grid.split(",") if v.strip()]
    except ValueError:
        raise click.UsageError(f"bad --grid '{grid}'")
    cfg = _load_config(config_path, seed, {})
    pair = load_pair(datadir)
    outdir.mkdir(parents=True, exist_ok=True)
    _guard_overwrite([outdir / "lambda_grid.csv", outdir / "chosen_lambda.json"], force)

    lam_x, lam_y, records = warmup_tune(pair, cfg, values, warmup_epochs=warmup_epochs)
    write_rows_csv(records, outdir / "lambda_grid.csv")
    (outdir / "chosen_lambda.json").write_text(
        json.dumps({"lambda_x": lam_x, "lambda_y": lam_y}, indent=2)
    )
    click.echo(f"chosen lambda_x={lam_x} lambda_y={lam_y}")


@main.command()
@click.option("--gates", "gates_path", required=True, type=click.Path(path_type=Path))
@click.option("--policy", type=click.Choice(["top-k", "converged"]), default="top-k")
@click.option("--k", type=int, default=None)
@click.option("--out", "out_path", type=click.Path(path_type=Path), default=None,
              help="write selection JSON here (default: stdout)")
@click.option("--force", is_flag=True)
@_exit_codes
def select(gates_path, policy, k, out_path, force) -> None:
    """Feature selection from a saved gates CSV."""
    chosen = select_features(load_gates_csv(gates_path), policy, k=k)
    _emit(json.dumps({"policy": policy, "k": k, "selected": chosen}, indent=2), out_path, force)


@main.command()
@click.option("--data", "datadir", required=True, type=click.Path(path_type=Path))
@click.option("--method", type=click.Choice(list(BASELINES)), required=True)
@click.option("--k-x", type=int, default=None, help="default: size of shared truth for X")
@click.option("--k-y", type=int, default=None)
@click.option("--out", "out_path", type=click.Path(path_type=Path), default=None)
@click.option("--force", is_flag=True)
@_exit_codes
def baseline(datadir, method, k_x, k_y, out_path, force) -> None:
    """Run a kernel-fusion baseline selector on a saved dataset."""
    pair = load_pair(datadir)
    kx, ky = pair.selection_sizes("shared")
    selected = baseline_select(pair, method, kx if k_x is None else k_x, ky if k_y is None else k_y)
    f1_x, f1_y = selection_f1(selected, pair.truth("shared"))
    payload = {"method": method, "selected_x": selected[0], "selected_y": selected[1],
               "f1_x": f1_x, "f1_y": f1_y}
    _emit(json.dumps(payload, indent=2), out_path, force)


@main.command()
@click.option("--selection", "selection_path", required=True, type=click.Path(path_type=Path),
              help="selection JSON with 'x'/'y' index lists")
@click.option("--data", "datadir", required=True, type=click.Path(path_type=Path))
@click.option("--mode", type=click.Choice(["shared", "differential"]), default="shared")
@click.option("--out", "out_path", type=click.Path(path_type=Path), default=None)
@click.option("--force", is_flag=True)
@_exit_codes
def evaluate(selection_path, datadir, mode, out_path, force) -> None:
    """F1 of a saved selection against a dataset's ground truth."""
    sel = read_json(selection_path)
    if not isinstance(sel, dict):
        raise click.UsageError(f"{selection_path}: expected a JSON object with 'x'/'y' index lists")
    pair = load_pair(datadir)
    for mod, data in zip("xy", (pair.x, pair.y)):
        indices = sel.get(mod, [])
        # type(), not isinstance(): JSON true would pass as the index 1
        if not (isinstance(indices, list) and all(type(i) is int for i in indices)):
            raise click.UsageError(f"{selection_path}: '{mod}' must be a list of feature indices")
        check_indices(f"{selection_path}: '{mod}'", indices, data.shape[1])
    rows = [
        {"modality": mod, "f1": f1(sel[mod], truth), "selected": len(sel[mod]),
         "truth": len(truth)}
        for mod, truth in zip("xy", pair.truth(mode))
        if truth is not None and mod in sel
    ]
    if not rows:
        raise click.UsageError("nothing to evaluate: no matching truth/selection entries")
    _emit(json.dumps(rows, indent=2), out_path, force)


_TABLE_DATASETS = {
    "gaussian_table": ["gaussian", "gaussian+10", "gaussian+30", "gaussian+50"],
    "tree_table": ["tree"],
}


def _map(fn, items, jobs: int) -> list:
    """fn over items, results in order: in-process at jobs <= 1, else on a pool of jobs workers."""
    if jobs <= 1:
        return list(map(fn, items))
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        return list(pool.map(fn, items))


def _reproduce_table(outdir: Path, stem: str, seed: int, jobs: int, epochs: int | None) -> None:
    """run_experiment on one spec per (dataset, seed) cell."""
    override = {} if epochs is None else {"epochs": epochs}
    specs = [{"dataset": ds, "seeds": [s], **override}
             for ds in _TABLE_DATASETS[stem] for s in (seed, seed + 1, seed + 2)]
    rows = [row for cell in _map(run_experiment, specs, jobs) for row in cell]
    write_rows_csv(rows, outdir / f"{stem}.csv", ROW_FIELDS)
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
    write_rows_csv(rows, outdir / "cube_figure.csv")
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
    write_rows_csv(summary, outdir / "cube_r2.csv")
    click.echo(json.dumps(summary, indent=2))


def _lambda_grid_row(seed: int, lam: float, warmup_epochs: int, epochs: int) -> dict:
    """One gaussian run at lambda: its warm-up score at warmup_epochs, its F1 at epochs."""
    pair = DATASET_PRESETS["gaussian"](seed)
    cfg = replace(SHARED_HYPERPARAMS["gaussian"], seed=seed, epochs=epochs,
                  lambda_x=lam, lambda_y=lam)
    for epoch, result in enumerate(islice(run(pair, cfg, pair.truth("shared")), epochs), 1):
        if epoch == warmup_epochs:
            row = warmup_record(pair, cfg, result)
    final = result.log[-1]
    return {**row, "f1_x": final["f1_x"], "f1_y": final["f1_y"]}


def _reproduce_lambda_grid(outdir: Path, seed: int, jobs: int, epochs: int | None) -> None:
    """One run per lambda of epochs (default 3000), warm-up scored at min(WARMUP_EPOCHS, epochs)."""
    epochs = 3000 if epochs is None else epochs
    grid_row = functools.partial(_lambda_grid_row, seed,
                                 warmup_epochs=min(WARMUP_EPOCHS, epochs), epochs=epochs)
    rows = _map(grid_row, LAMBDA_GRID, jobs)
    chosen = best_lambda(rows, "score_shared")  # LAMBDA_GRID is ascending
    rows = [{**r, "chosen": r["lambda"] == chosen} for r in rows]
    write_rows_csv(rows, outdir / "lambda_grid.csv")
    click.echo(f"chosen lambda={chosen}; wrote {outdir / 'lambda_grid.csv'}")


@main.command()
@click.argument("target", type=click.Choice(
    ["gaussian-table", "tree-table", "cube-figure", "lambda-grid"]))
@click.option("--out", "outdir", required=True, type=click.Path(path_type=Path))
@click.option("--seed", type=int, default=None)
@click.option("--jobs", type=click.IntRange(min=1), default=None,
              help="worker processes for the tables and lambda-grid (default: logical cores)")
@click.option("--epochs", type=click.IntRange(min=1), help="override training epochs (smoke runs)")
@click.option("--force", is_flag=True)
@_exit_codes
def reproduce(target, outdir, seed, jobs, epochs, force) -> None:
    """One-command reproduction of a desk-scale result."""
    outdir.mkdir(parents=True, exist_ok=True)
    stem = target.replace("-", "_")  # each target's main artifact is <stem>.csv
    _guard_overwrite([outdir / f"{stem}.csv"], force)
    s = _seed(seed)
    n_jobs = jobs if jobs is not None else (os.cpu_count() or 1)
    if stem in _TABLE_DATASETS:
        _reproduce_table(outdir, stem, s, n_jobs, epochs)
    elif target == "cube-figure":
        _reproduce_cube_figure(outdir, s)
    else:
        _reproduce_lambda_grid(outdir, s, n_jobs, epochs)


if __name__ == "__main__":
    main()
