"""Baseline selectors, F1 evaluation, and the experiment harness.

Baselines are kernel-fusion variants of the Laplacian Score: MC scores
against the Laplacian of the column-concatenated data, mmKS against
L_x + L_y, and mmKP against L_x L_y. mmKS and mmKP share one Laplacian per
modality and never form an n x n operator. The harness runs (method x seed)
grids over dataset presets and reports per-modality F1.
"""

from __future__ import annotations

import csv
import functools
import time
from dataclasses import dataclass, replace

import numpy as np

from .datagen import ModalPair, gen_gaussian_mixture, gen_tree
from .gates import f1, select_features, top_k
from .graph import data_laplacian
from .operators import score_all_features, zscore_columns
from .tape import ContractError
from .trainer import RunConfig, train

__all__ = [
    "SelectionResult",
    "baseline_select",
    "run_experiment",
    "format_report",
    "DATASET_PRESETS",
    "SHARED_HYPERPARAMS",
    "DIFFERENTIAL_HYPERPARAMS",
]

BASELINES = ("MC", "mmKS", "mmKP")

# Baselines build kernels once on the raw data, where adding noisy features
# inflates all pairwise distances; a fraction of the median keeps the kernel
# resolving cluster-scale structure instead of saturating toward uniformity.
BASELINE_BANDWIDTH_FACTOR = 0.3


@dataclass
class SelectionResult:
    method: str
    selected_x: list[int]
    selected_y: list[int]
    f1_x: float | None = None
    f1_y: float | None = None
    wall_time: float = 0.0

    def score_against(self, truth: tuple) -> "SelectionResult":
        """Set f1_x and f1_y against (truth_x, truth_y); None where a set is absent."""
        self.f1_x, self.f1_y = (
            None if t is None else f1(sel, t)
            for sel, t in zip((self.selected_x, self.selected_y), truth)
        )
        return self


def _modality_products(pair: ModalPair) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(Z, L_x Z, L_y Z) with Z = zscore_columns([X Y]): what mmKS and mmKP score from.

    Both Laplacians are built before Z and the products, so the second one's
    temporaries never sit beside the products; L_x is dropped once P_x exists.
    """
    l_x = data_laplacian(pair.x, BASELINE_BANDWIDTH_FACTOR)
    l_y = data_laplacian(pair.y, BASELINE_BANDWIDTH_FACTOR)
    z = zscore_columns(np.hstack([pair.x, pair.y]))
    p_x = l_x @ z
    del l_x
    return z, p_x, l_y @ z


def baseline_select(
    pair: ModalPair, method: str, k_x: int, k_y: int, products=None
) -> SelectionResult:
    """Top-k features per modality under a kernel-fusion baseline operator.

    mmKS and mmKP score each z-scored column z_j from P_x = L_x Z and
    P_y = L_y Z: z_j^T (L_x + L_y) z_j = z_j^T P_x[:, j] + z_j^T P_y[:, j],
    and, as L_x is symmetric, z_j^T L_x L_y z_j = P_x[:, j]^T P_y[:, j].
    products is a zero-argument callable returning _modality_products(pair);
    run_experiment passes one cached per pair. F1 is against the shared
    truth; run_experiment rescores each row against the truth of its mode.
    """
    if method not in BASELINES:
        raise ContractError(f"unknown baseline '{method}'")
    start = time.perf_counter()
    if method == "MC":
        op = data_laplacian(np.hstack([pair.x, pair.y]), BASELINE_BANDWIDTH_FACTOR)
        scores_x = score_all_features(zscore_columns(pair.x), op)
        scores_y = score_all_features(zscore_columns(pair.y), op)
    else:
        z, p_x, p_y = products() if products is not None else _modality_products(pair)
        if method == "mmKS":
            scores = np.einsum("ij,ij->j", z, p_x) + np.einsum("ij,ij->j", z, p_y)
        else:
            scores = np.einsum("ij,ij->j", p_x, p_y)
        scores_x, scores_y = np.split(scores, [pair.x.shape[1]])
    return SelectionResult(
        method=method,
        selected_x=top_k(scores_x, k_x),
        selected_y=top_k(scores_y, k_y),
        wall_time=time.perf_counter() - start,
    ).score_against(pair.truth("shared"))


DATASET_PRESETS = {
    "gaussian": lambda seed: gen_gaussian_mixture(seed, 0),
    "gaussian+10": lambda seed: gen_gaussian_mixture(seed, 10),
    "gaussian+30": lambda seed: gen_gaussian_mixture(seed, 30),
    "gaussian+50": lambda seed: gen_gaussian_mixture(seed, 50),
    "tree": lambda seed: gen_tree(seed),
}

# Desk-scale settings for the shared-operator runs. Learning rate and the
# sparsity weights follow the published recipes; epoch counts are set to where
# the gate ranking has converged under this implementation's adaptive
# bandwidth (training past that point only adds saturation jitter), and the
# kernel bandwidth uses the calibrated 0.4 x median policy.
SHARED_HYPERPARAMS = {
    "gaussian": RunConfig(mode="shared", learning_rate=2.0, epochs=1000, lambda_x=1e-4, lambda_y=1e-4, b=1.0, bandwidth_scale=0.4),
    "gaussian+10": RunConfig(mode="shared", learning_rate=2.0, epochs=1000, lambda_x=1e-4, lambda_y=1e-4, b=1.0, bandwidth_scale=0.4),
    "gaussian+30": RunConfig(mode="shared", learning_rate=2.0, epochs=1000, lambda_x=1e-4, lambda_y=1e-4, b=1.0, bandwidth_scale=0.4),
    "gaussian+50": RunConfig(mode="shared", learning_rate=2.0, epochs=1000, lambda_x=1e-3, lambda_y=1e-4, b=1.0, bandwidth_scale=0.4),
    "tree": RunConfig(mode="shared", learning_rate=2.0, epochs=2000, lambda_x=1e-4, lambda_y=1e-4, b=1.0, batch_size=250, bandwidth_scale=0.4),
}

DIFFERENTIAL_HYPERPARAMS = {
    "gaussian": RunConfig(mode="differential", learning_rate=1.0, epochs=10000, lambda_x=0.4, lambda_y=0.4, c=1e-1, b=1e-1),
    "tree": RunConfig(mode="differential", learning_rate=2.0, epochs=10000, lambda_x=4.0, lambda_y=2.0, c=1e-3, b=1e-3),
}


def _mmdufs_select(pair: ModalPair, cfg: RunConfig, k_x: int, k_y: int) -> SelectionResult:
    start = time.perf_counter()
    result = train(pair, cfg)
    return SelectionResult(
        method="mmDUFS",
        selected_x=select_features(result.gates_x, "top-k", k=k_x),
        selected_y=select_features(result.gates_y, "top-k", k=k_y),
        wall_time=time.perf_counter() - start,
    )


def run_experiment(spec: dict) -> list[dict]:
    """Run every (method x seed) cell of an experiment and collect F1 rows.

    spec keys:
      dataset: preset name, or a ModalPair used for every seed
      name:    the rows' dataset label for a ModalPair (default "custom")
      methods: subset of {MC, mmKS, mmKP, mmDUFS}
      seeds:   list of seeds
      mode:    "shared" (default) or "differential": the truth set that sets
               every row's k and F1, and the operator mmDUFS trains against
      epochs:  optional override of the preset epoch count
    mmDUFS trains with the mode's preset (RunConfig() if none; a ModalPair
    takes "gaussian"). Numerical and contract failures (ArithmeticError,
    ValueError, ContractError) are recorded per cell, as the message in
    "error" and the exception's class name in "error_type", and the
    experiment continues; any other exception propagates.

    mmKS and mmKP of one seed share its two Laplacians' products with the
    data (_modality_products), built by the first of them to run: in the
    default order mmKS pays, and mmKP's wall_time reads about 1 ms. A failed
    build is not kept, so it is recorded on each cell that needs it.
    """
    dataset = spec["dataset"]
    methods = spec.get("methods", list(BASELINES) + ["mmDUFS"])
    seeds = spec.get("seeds", [0])
    mode = spec.get("mode", "shared")
    if isinstance(dataset, ModalPair):
        name = spec.get("name", "custom")
    elif dataset in DATASET_PRESETS:
        name = dataset
    else:
        raise ContractError(f"unknown dataset preset '{dataset}'")
    table = SHARED_HYPERPARAMS if mode == "shared" else DIFFERENTIAL_HYPERPARAMS
    preset = table.get(dataset if isinstance(dataset, str) else "gaussian", RunConfig())
    overrides = {"epochs": spec["epochs"]} if "epochs" in spec else {}

    rows = []
    for seed in seeds:
        pair = dataset if isinstance(dataset, ModalPair) else DATASET_PRESETS[dataset](seed)
        truth = pair.truth(mode)
        k_x, k_y = pair.selection_sizes(mode)
        products = functools.cache(functools.partial(_modality_products, pair))
        for method in methods:
            row = {"dataset": name, "method": method, "seed": seed}
            try:
                if method == "mmDUFS":
                    cfg = replace(preset, mode=mode, seed=seed, **overrides)
                    res = _mmdufs_select(pair, cfg, k_x, k_y)
                else:
                    res = baseline_select(pair, method, k_x, k_y, products=products)
                res.score_against(truth)
                row.update(f1_x=res.f1_x, f1_y=res.f1_y, wall_time=res.wall_time)
            except (ArithmeticError, ValueError, ContractError) as exc:
                # Numerical and contract failures of one cell are recorded and
                # the grid goes on; anything else is a bug and propagates.
                row.update(
                    f1_x=None, f1_y=None, wall_time=None,
                    error=str(exc), error_type=type(exc).__name__,
                )
            rows.append(row)
    return rows


def mean_f1(rows: list[dict]) -> dict:
    """Mean F1 per (dataset, method, modality) over seeds, skipping failures."""
    acc: dict[tuple, list] = {}
    for row in rows:
        for mod in ("x", "y"):
            v = row.get(f"f1_{mod}")
            if v is not None:
                acc.setdefault((row["dataset"], row["method"], mod), []).append(v)
    return {k: float(np.mean(v)) for k, v in acc.items()}


def write_rows_csv(rows: list[dict], path) -> None:
    fields = ["dataset", "method", "seed", "f1_x", "f1_y", "wall_time", "error", "error_type"]
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=fields, extrasaction="ignore")
        writer.writeheader()
        writer.writerows(rows)


def format_report(rows: list[dict]) -> str:
    """Fixed-width mean-F1 table, one line per (dataset, modality)."""
    means = mean_f1(rows)
    datasets = list(dict.fromkeys(r["dataset"] for r in rows))
    methods = list(dict.fromkeys(r["method"] for r in rows))
    lines = []
    header = f"{'dataset':<16}{'mod':<5}" + "".join(f"{m:>10}" for m in methods)
    lines.append(header)
    lines.append("-" * len(header))
    for ds in datasets:
        for mod in ("x", "y"):
            cells = []
            for m in methods:
                v = means.get((ds, m, mod))
                cells.append(f"{v:>10.4f}" if v is not None else f"{'-':>10}")
            lines.append(f"{ds:<16}{mod.upper():<5}" + "".join(cells))
    return "\n".join(lines)
