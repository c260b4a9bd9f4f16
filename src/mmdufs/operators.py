"""Shared and differential graph operators, and per-feature operator scores.

The shared operator b*(L_x L_y + L_y L_x) amplifies structure present in both
modalities; the differential operator b*(L_other + cI)^{-1} L_target
(L_other + cI)^{-1} amplifies structure unique to the target modality.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .tape import ContractError, DimensionError, Node, Tape

__all__ = [
    "shared_operator",
    "DifferentialOperator",
    "differential_operator",
    "shared_operator_array",
    "differential_operator_array",
    "score_all_features",
    "zscore_columns",
]


def shared_operator(tape: Tape, l_x: Node, l_y: Node, b: float = 1.0) -> Node:
    """b * (L_x L_y + L_y L_x), on tape."""
    if l_x.value.shape != l_y.value.shape:
        raise DimensionError("Laplacians must share shape")
    # L_y L_x = (L_x L_y)^T for symmetric Laplacians: one product, and P is
    # exactly symmetric.
    m = tape.matmul(l_x, l_y)
    p = tape.add(m, tape.transpose(m))
    return tape.scale(p, b) if b != 1.0 else p


class DifferentialOperator(NamedTuple):
    """Q = b * A^{-1} L_target A^{-1} with A = L_other + cI, kept in factors.

    Q itself is never formed: scoring needs only products with the n x d data.
    """

    inv: Node  # A^{-1}, symmetric
    l_target: Node
    b: float

    def score(self, tape: Tape, gated: Node) -> Node:
        """Tr[X~^T Q X~] = b * <L_target W, W> with W = A^{-1} X~."""
        w = tape.matmul(self.inv, gated)
        s = tape.inner(tape.matmul(self.l_target, w), w)
        return tape.scale(s, self.b) if self.b != 1.0 else s


def differential_operator(
    tape: Tape, l_target: Node, l_other: Node, c: float, b: float = 1.0
) -> DifferentialOperator:
    """b * (L_other + cI)^{-1} L_target (L_other + cI)^{-1}, on tape, in factored form.

    L_other + cI is symmetric positive definite (the normalized Gaussian
    kernel is PSD and c > 0), so one Cholesky inverse is all the n^3 work.
    Gradients flow into both Laplacian nodes; pass l_other as a tape constant
    to differentiate with respect to the target modality only.
    """
    if l_target.value.shape != l_other.value.shape:
        raise DimensionError("Laplacians must share shape")
    if c <= 0:
        raise ContractError("regularization constant c must be positive")
    return DifferentialOperator(tape.inverse(l_other, shift=c), l_target, float(b))


def shared_operator_array(l_x: np.ndarray, l_y: np.ndarray, b: float = 1.0) -> np.ndarray:
    p = l_x @ l_y + l_y @ l_x
    return 0.5 * b * (p + p.T)


def differential_operator_array(
    l_target: np.ndarray, l_other: np.ndarray, c: float, b: float = 1.0
) -> np.ndarray:
    if c <= 0:
        raise ContractError("regularization constant c must be positive")
    inv = np.linalg.inv(l_other + c * np.eye(l_other.shape[0]))
    q = b * (inv @ l_target @ inv)
    return 0.5 * (q + q.T)


def zscore_columns(data: np.ndarray) -> np.ndarray:
    """Zero-mean unit-variance columns; constant columns map to zero."""
    data = np.asarray(data, dtype=np.float64)
    mu = data.mean(axis=0)
    sd = data.std(axis=0)
    sd = np.where(sd > 0, sd, 1.0)
    return (data - mu) / sd


def score_all_features(data: np.ndarray, op: np.ndarray) -> np.ndarray:
    """Per-column generalized Laplacian scores f_j^T Op f_j, i.e. diag(X^T Op X)."""
    data = np.asarray(data, dtype=np.float64)
    if op.shape[0] != data.shape[0]:
        raise DimensionError("operator size does not match sample count")
    return np.einsum("ij,ij->j", data, op @ data)
