"""Stochastic feature gates.

A gate for feature i is z_i = clamp01(0.5 + mu_i + eps_i) with
eps_i ~ N(0, sigma^2) during training and eps_i = 0 at evaluation time;
sigma is fixed at SIGMA = 0.5, as in the stochastic-gate relaxation.
The expected number of open gates, sum_i Phi((0.5 + mu_i)/sigma), serves as
a differentiable sparsity regularizer. Selections made from the gates are
scored against ground-truth index sets by F1.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field

import numpy as np
from scipy.special import ndtr

from .tape import ContractError

__all__ = [
    "SIGMA",
    "GateState",
    "expected_l0",
    "select_features",
    "top_k",
    "f1",
    "save_gates_csv",
    "load_gates_csv",
]

CONVERGED_TOL = 1e-6
SIGMA = 0.5


@dataclass
class GateState:
    """Per-feature gate parameters; the noise scale is the constant SIGMA."""

    mu: np.ndarray
    seed: int = 0
    _rng: np.random.Generator = field(init=False, repr=False)

    def __post_init__(self):
        self.mu = np.asarray(self.mu, dtype=np.float64).copy()
        self._rng = np.random.default_rng(self.seed)

    @classmethod
    def zeros(cls, n_features: int, seed: int = 0) -> "GateState":
        return cls(mu=np.zeros(n_features), seed=seed)

    @property
    def n_features(self) -> int:
        return self.mu.size

    def draw_noise(self) -> np.ndarray:
        return self._rng.normal(0.0, SIGMA, size=self.mu.size)

    def eval_gates(self) -> np.ndarray:
        return np.clip(0.5 + self.mu, 0.0, 1.0)


def expected_l0(state: GateState) -> float:
    """Exact expectation of the number of gates with z > 0."""
    return float(ndtr((0.5 + state.mu) / SIGMA).sum())


def select_features(state: GateState, policy: str = "top-k", k: int | None = None) -> list[int]:
    """Selected feature indices.

    "converged": gates whose deterministic value reached 1.
    "top-k": indices of the k largest raw mu, ties broken by lower index.
    """
    if policy == "converged":
        return [int(i) for i in np.flatnonzero(state.eval_gates() >= 1.0 - CONVERGED_TOL)]
    if policy == "top-k":
        return top_k(state.mu, k)
    raise ContractError(f"unknown selection policy '{policy}'")


def top_k(scores: np.ndarray, k: int | None) -> list[int]:
    """Indices of the k largest scores, ascending; ties go to the lower index."""
    if k is None or k < 0 or k > scores.size:
        raise ContractError(f"top-k needs 0 <= k <= {scores.size}, got {k}")
    # stable sort on -scores keeps lower indices first among ties
    order = np.argsort(-scores, kind="stable")
    return sorted(int(i) for i in order[:k])


def f1(selected, truth) -> float:
    """Standard F1 = 2TP / (2TP + FP + FN) on index sets."""
    tru = set(int(i) for i in truth)
    if not tru:
        raise ContractError("truth set must be nonempty")
    sel = set(int(i) for i in selected)
    tp = len(sel & tru)
    fp = len(sel - tru)
    fn = len(tru - sel)
    return 2 * tp / (2 * tp + fp + fn)


def save_gates_csv(state: GateState, path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["feature", "mu", "eval_gate"])
        for i, (m, z) in enumerate(zip(state.mu, state.eval_gates())):
            writer.writerow([i, repr(float(m)), repr(float(z))])


def load_gates_csv(path) -> GateState:
    mus = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        next(reader)  # header
        for row in reader:
            mus.append(float(row[1]))
    return GateState(mu=np.array(mus))
