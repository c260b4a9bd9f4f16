"""Stochastic feature gates, the one home of the gate relaxation.

A gate for feature i is z_i = clamp01(0.5 + mu_i + eps_i) with
eps_i ~ N(0, sigma^2) during training and eps_i = 0 at evaluation time;
sigma is fixed at SIGMA = 0.5, as in the stochastic-gate relaxation.
The expected number of open gates, sum_i Phi((0.5 + mu_i)/sigma), serves as
a differentiable sparsity regularizer (expected_l0, expected_l0_grad).
Selections made from the gates are scored against ground-truth index sets by F1.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field

import numpy as np

from .datagen import IngestionError, read_matrix
from .tape import ContractError

__all__ = [
    "SIGMA",
    "GateState",
    "expected_l0",
    "expected_l0_grad",
    "select_features",
    "top_k",
    "f1",
    "selection_f1",
    "save_gates_csv",
    "load_gates_csv",
]

CONVERGED_TOL = 1e-6
SIGMA = 0.5
_SQRT1_2 = math.sqrt(0.5)


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

    def draw_noise(self) -> np.ndarray:
        return self._rng.normal(0.0, SIGMA, size=self.mu.size)

    def sample(self, noise: np.ndarray | float | None = None) -> tuple[np.ndarray, np.ndarray]:
        """(z, mask) at noise, by default a fresh draw_noise: z = clamp01(0.5 + mu + noise), and
        the mask 0 < 0.5 + mu + noise < 1 is dz/dmu, the subgradient of the clamp."""
        if noise is None:
            noise = self.draw_noise()
        shifted = 0.5 + (self.mu + noise)
        return np.clip(shifted, 0.0, 1.0), (shifted > 0.0) & (shifted < 1.0)

    def eval_gates(self) -> np.ndarray:
        return self.sample(0.0)[0]


def normal_cdf(t: np.ndarray) -> np.ndarray:
    """Standard normal CDF of each entry of a 1-D array: Phi(t) = erfc(-t/sqrt(2)) / 2.

    Built on math.erfc, without scipy. Callers pass one entry per gate, so the
    Python-level map costs tens of microseconds.
    """
    arg = np.multiply(t, -_SQRT1_2)
    return 0.5 * np.fromiter(map(math.erfc, arg.tolist()), np.float64, arg.size)


def expected_l0(state: GateState) -> float:
    """Exact expectation of the number of gates with z > 0."""
    return float(normal_cdf((0.5 + state.mu) / SIGMA).sum())


def expected_l0_grad(state: GateState) -> np.ndarray:
    """d expected_l0 / d mu_i = phi((0.5 + mu_i)/SIGMA) / SIGMA, phi the standard normal density."""
    t = (0.5 + state.mu) / SIGMA
    return np.exp(-0.5 * t * t) / (np.sqrt(2.0 * np.pi) * SIGMA)


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


def selection_f1(selected, truth) -> tuple[float | None, float | None]:
    """F1 of (selected_x, selected_y) against (truth_x, truth_y); None for an absent truth set."""
    return tuple(None if t is None else f1(sel, t) for sel, t in zip(selected, truth))


def save_gates_csv(state: GateState, path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["feature", "mu", "eval_gate"])
        for i, (m, z) in enumerate(zip(state.mu, state.eval_gates())):
            writer.writerow([i, repr(float(m)), repr(float(z))])


def load_gates_csv(path) -> GateState:
    """Gates (mu, column 1) from a save_gates_csv file, read and checked by read_matrix."""
    table = read_matrix(path)
    if table.shape[1] < 2:
        raise IngestionError(f"{path}: expected feature,mu,eval_gate columns, got one column")
    return GateState(mu=table[:, 1])
