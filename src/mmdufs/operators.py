"""Shared and differential graph operators, and per-feature operator scores.

The shared operator b*(L_x L_y + L_y L_x) amplifies structure present in both
modalities; the differential operator b*(L_other + cI)^{-1} L_target
(L_other + cI)^{-1} amplifies structure unique to the target modality. On the
tape both stay in factors; the *_array functions form them as plain arrays.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .tape import ContractError, DimensionError, Node, Tape

__all__ = [
    "SharedOperator",
    "shared_operator",
    "DifferentialOperator",
    "differential_operator",
    "shared_operator_array",
    "differential_operator_array",
    "score_all_features",
    "zscore_columns",
]


class SharedOperator(NamedTuple):
    """P = b * (M + M^T) with M = L_x L_y (L_y L_x = M^T), kept in factors: P is never formed."""

    m: Node  # L_x L_y
    b: float

    def score(self, tape: Tape, gram: Node) -> Node:
        """Tr[X~^T P X~] = <P, G> = 2b * <M, G> for the exactly symmetric G = gram(X~)."""
        return tape.scale(tape.inner(self.m, gram), 2.0 * self.b)


def shared_operator(tape: Tape, l_x: Node, l_y: Node, b: float = 1.0) -> SharedOperator:
    """b * (L_x L_y + L_y L_x), on tape, in factored form: one product."""
    if l_x.value.shape != l_y.value.shape:
        raise DimensionError("Laplacians must share shape")
    return SharedOperator(tape.matmul(l_x, l_y), float(b))


class DifferentialOperator(NamedTuple):
    """Q = b * A^{-1} L_target A^{-1} with A = L_other + cI, kept in factors.

    Q itself is never formed: scoring needs only products with the n x d data.
    """

    inv: Node  # A^{-1}, symmetric, with no inputs
    l_target: Node
    b: float

    def score(self, tape: Tape, gated: Node) -> Node:
        """Tr[X~^T Q X~] = b * <L_target W, W> with W = A^{-1} X~."""
        return tape.scale(tape.quad_form(self.l_target, tape.matmul(self.inv, gated)), self.b)


def differential_operator(
    tape: Tape, l_target: Node, l_other: np.ndarray, c: float, b: float = 1.0
) -> DifferentialOperator:
    """b * (L_other + cI)^{-1} L_target (L_other + cI)^{-1}, on tape, in factored form.

    L_other + cI is symmetric positive definite (the normalized Gaussian
    kernel is PSD and c > 0), so one SPD inverse (Tape.inverse, numpy's
    Cholesky on its smallest blocks) is all the n^3 work. l_other is data, the
    other modality's Laplacian values: gradients flow into l_target only.
    """
    if l_target.value.shape != l_other.shape:
        raise DimensionError("Laplacians must share shape")
    if c <= 0:
        raise ContractError("regularization constant c must be positive")
    return DifferentialOperator(tape.inverse(l_other, shift=c), l_target, float(b))


def shared_operator_array(l_x: np.ndarray, l_y: np.ndarray, b: float = 1.0) -> np.ndarray:
    """b * (M + M^T) from the one product M = L_x L_y that shared_operator records: exactly
    symmetric, and L_x L_y + L_y L_x to rounding, as both Laplacians are symmetric."""
    m = l_x @ l_y
    return b * (m + m.T)


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
