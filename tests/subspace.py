"""Oracles for the operator tests: ideal block Laplacians, eigenspaces, principal angles."""

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


def block_laplacian(sizes):
    """Normalized Laplacian of an ideal (all-ones block) cluster kernel, and its indicator basis.

    For this kernel the Laplacian equals the sum of v v^T over the normalized
    cluster indicators v: the exact orthogonal projector onto their span,
    which makes every spectral quantity of the operators built from it
    available in closed form.
    """
    n = sum(sizes)
    k = np.zeros((n, n))
    basis = []
    start = 0
    for s in sizes:
        k[start : start + s, start : start + s] = 1.0
        v = np.zeros(n)
        v[start : start + s] = 1.0 / np.sqrt(s)
        basis.append(v)
        start += s
    d = k.sum(axis=1)
    l = k / np.sqrt(d)[:, None] / np.sqrt(d)[None, :]
    return l, np.column_stack(basis)
