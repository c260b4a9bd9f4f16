"""Subspace oracles for the operator tests: eigenspaces and principal angles."""

import numpy as np

from mmdufs.tape import eigh_descending


def principal_angle_degrees(basis_a: np.ndarray, basis_b: np.ndarray) -> float:
    """Largest principal angle between the column spans, in degrees."""
    qa, _ = np.linalg.qr(np.asarray(basis_a, dtype=np.float64))
    qb, _ = np.linalg.qr(np.asarray(basis_b, dtype=np.float64))
    sv = np.linalg.svd(qa.T @ qb, compute_uv=False)
    sv = np.clip(sv, -1.0, 1.0)
    return float(np.degrees(np.arccos(sv.min())))


def top_eigenspace(op: np.ndarray, k: int) -> np.ndarray:
    """Orthonormal basis of the eigenspace of the k largest eigenvalues."""
    _, vecs = eigh_descending(op)
    return vecs[:, :k]
