"""Gaussian affinity kernels and normalized graph Laplacians.

Everything here can be built either as plain arrays or on a differentiation
tape, so that gradients flow from Laplacian-based losses back to the feature
gates that scaled the data.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .tape import ContractError, DimensionError, Node, NumericalError, Tape
from .tape import _sym_normalize, pairwise_sq_dists

__all__ = [
    "GraphPair",
    "gaussian_kernel",
    "median_bandwidth",
    "normalized_laplacian",
    "data_laplacian",
    "kernel_on_tape",
    "build_graph_pair",
]


@dataclass
class GraphPair:
    """Laplacians and Gram matrices (tape nodes) plus resolved bandwidths of both modalities."""

    l_x: Node
    l_y: Node
    gram_x: Node
    gram_y: Node
    bandwidth_x: float
    bandwidth_y: float


def median_bandwidth(d2: np.ndarray) -> float:
    """Median of nonzero pairwise Euclidean distances; 1.0 if all coincide.

    d2 is the symmetric matrix of pairwise squared distances, clamped at
    zero, as made by pairwise_sq_dists; only its strict upper triangle is
    read, gathered into one copy that is partitioned in place.
    """
    d2 = np.asarray(d2, dtype=np.float64)
    if d2.ndim != 2 or d2.shape[0] != d2.shape[1]:
        raise DimensionError(f"median bandwidth needs a square distance matrix, got {d2.shape}")
    if d2.shape[0] < 2:
        raise ContractError("median bandwidth needs at least two rows")
    upper = np.concatenate([row[i + 1:] for i, row in enumerate(d2[:-1])])
    m = np.count_nonzero(upper)
    if m == 0:
        return 1.0
    # The zeros sort first, and sqrt is monotone, so one partition of the
    # squares finds the middle nonzero distance (or the two middle ones, for
    # an even count).
    mid = upper.size - m + m // 2
    upper.partition(mid)
    hi = np.sqrt(upper[mid])
    if m % 2:
        return float(hi)
    return float((np.sqrt(upper[:mid].max()) + hi) / 2)


def _kernel_factor(bandwidth: float) -> float:
    """-1/(2 sigma^2): the one factor both kernels multiply the squared distances by."""
    if bandwidth <= 0:
        raise ContractError("bandwidth must be positive")
    return -1.0 / (2.0 * bandwidth**2)


def gaussian_kernel(d2: np.ndarray, bandwidth: float, out=None) -> np.ndarray:
    """K_ij = exp(d2_ij * (-1/(2 sigma^2))) from pairwise squared distances d2.

    Plain-array version of kernel_on_tape, bit for bit; d2 is made by
    pairwise_sq_dists, which is exactly symmetric, and so is K. out, if
    given, receives K and may be d2 itself; every check runs before it is
    written.
    """
    d2 = np.asarray(d2, dtype=np.float64)
    if not np.isfinite(d2).all():
        raise NumericalError("kernel input contains non-finite entries")
    if d2.ndim != 2 or d2.shape[0] != d2.shape[1]:
        raise DimensionError(f"kernel needs a square distance matrix, got {d2.shape}")
    if d2.shape[0] < 2:
        raise ContractError("kernel needs at least two rows")
    k = np.multiply(d2, _kernel_factor(bandwidth), out=out)
    return np.exp(k, out=k)


def normalized_laplacian(k: np.ndarray, out=None) -> np.ndarray:
    """L = D^{-1/2} K D^{-1/2}. Plain-array version of Tape.sym_normalize.

    out, if given, receives L and may be k itself; the row sums are taken and
    checked before it is written.
    """
    return _sym_normalize(np.asarray(k, dtype=np.float64), out)[0]


def data_laplacian(data: np.ndarray, scale: float) -> np.ndarray:
    """Normalized Laplacian of the data's Gaussian kernel at scale x median bandwidth.

    Plain-array version, for baselines and analysis. d2, K and L are built in
    turn in the one n x n buffer that data @ data.T returned, so the call
    holds one n x n array beside the median's upper-triangle copy, and L is
    bit for bit normalized_laplacian(gaussian_kernel(d2, bandwidth)). The
    squared distances feed both the bandwidth and the kernel.
    """
    d2 = pairwise_sq_dists(np.asarray(data, dtype=np.float64))
    k = gaussian_kernel(d2, scale * median_bandwidth(d2), out=d2)
    return normalized_laplacian(k, out=k)


def kernel_on_tape(tape: Tape, d2: Node, bandwidth: float) -> Node:
    """Gaussian kernel, on the tape, from d2 = tape.sq_dists(tape.gram(gated data))."""
    return tape.exp(d2, _kernel_factor(bandwidth))


def build_graph_pair(
    tape: Tape,
    gated_x: Node,
    gated_y: Node,
    scale: float,
    bandwidth_x: float | None = None,
    bandwidth_y: float | None = None,
) -> GraphPair:
    """Kernels and normalized Laplacians for both modalities from the gated data nodes.

    The Gram node X~X~^T of each modality feeds its squared distances and is
    returned for the scores <Op, X~X~^T>. Each bandwidth is scale x the median
    of those distances, unless a frozen value is passed in; either way it is
    a constant for differentiation.
    """
    if gated_x.value.shape[0] != gated_y.value.shape[0]:
        raise DimensionError("modalities must share the sample count")
    gram_x, gram_y = tape.gram(gated_x), tape.gram(gated_y)
    d2_x, d2_y = tape.sq_dists(gram_x), tape.sq_dists(gram_y)
    bw_x = bandwidth_x if bandwidth_x is not None else scale * median_bandwidth(d2_x.value)
    bw_y = bandwidth_y if bandwidth_y is not None else scale * median_bandwidth(d2_y.value)
    return GraphPair(
        l_x=tape.sym_normalize(kernel_on_tape(tape, d2_x, bw_x)),
        l_y=tape.sym_normalize(kernel_on_tape(tape, d2_y, bw_y)),
        gram_x=gram_x,
        gram_y=gram_y,
        bandwidth_x=bw_x,
        bandwidth_y=bw_y,
    )
