"""Synthetic multi-modal datasets, and their reading and writing as CSV directories.

Generators cover a two-modality Gaussian mixture with shared and
modality-specific clusters, a bifurcating developmental-tree surrogate with
negative-binomial counts, and uniform samples from a 3-D box whose first
coordinate is shared between the modalities.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .operators import zscore_columns
from .tape import ContractError

__all__ = [
    "ModalPair",
    "IngestionError",
    "gen_gaussian_mixture",
    "gen_tree",
    "gen_cube",
    "save_pair",
    "load_pair",
    "read_matrix",
    "check_indices",
    "read_json",
]


class IngestionError(ValueError):
    """Raised for malformed input files."""


_TRUTH_FIELDS = ("truth_shared_x", "truth_shared_y", "truth_diff_x", "truth_diff_y")
# Every file save_pair may write; load_pair reads each one that exists.
DATASET_FILES = ("X.csv", "Y.csv", *(f"{name}.csv" for name in _TRUTH_FIELDS),
                 "labels.csv", "latent.csv", "manifest.json")


@dataclass
class ModalPair:
    """Two registered data matrices plus optional ground truth and labels."""

    x: np.ndarray
    y: np.ndarray
    truth_shared_x: np.ndarray | None = None
    truth_shared_y: np.ndarray | None = None
    truth_diff_x: np.ndarray | None = None
    truth_diff_y: np.ndarray | None = None
    labels: np.ndarray | None = None
    latent: np.ndarray | None = None
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        self.x = np.asarray(self.x, dtype=np.float64)
        self.y = np.asarray(self.y, dtype=np.float64)
        if self.x.shape[0] != self.y.shape[0]:
            raise IngestionError(
                f"modalities disagree on sample count: {self.x.shape[0]} vs {self.y.shape[0]}"
            )
        for name in _TRUTH_FIELDS:
            v = getattr(self, name)
            if v is None:
                continue
            v = check_indices(name, v, (self.x if name.endswith("_x") else self.y).shape[1])
            # k = len(truth) sets the selection size: an empty set leaves F1 undefined.
            if v.size == 0:
                raise IngestionError(f"{name} is empty")
            setattr(self, name, v)
        for name in ("labels", "latent"):
            v = getattr(self, name)
            if v is not None and np.shape(v)[:1] != (self.n_samples,):
                raise IngestionError(
                    f"{name} has shape {np.shape(v)}, expected {self.n_samples} rows"
                )

    @property
    def n_samples(self) -> int:
        return self.x.shape[0]

    def truth(self, mode: str) -> tuple[np.ndarray | None, np.ndarray | None]:
        """(x, y) truth indices of mode "shared" or "differential"; None where absent."""
        if mode == "shared":
            return self.truth_shared_x, self.truth_shared_y
        if mode == "differential":
            return self.truth_diff_x, self.truth_diff_y
        raise ContractError(f"unknown mode '{mode}'")

    def selection_sizes(self, mode: str) -> tuple[int, int]:
        """(k_x, k_y): each modality's truth size in mode, else its feature count."""
        return tuple(
            len(t) if t is not None else data.shape[1]
            for t, data in zip(self.truth(mode), (self.x, self.y))
        )


def gen_gaussian_mixture(seed: int = 0, extra_noise_features: int = 0) -> ModalPair:
    """Two-modality Gaussian mixture with shared and modality-specific clusters.

    260 samples. Groups A and B (65 rows each) are distinct clusters in both
    modalities: cluster 1 and cluster 2, the shared structure. Each modality
    additionally has its own third cluster drawn from the remaining 130
    samples — cluster 3 (65 rows) in X, cluster 4 (65 rows) in Y. The two
    subsets are sampled so that their overlap equals the value expected under
    independence (32 of 65); membership in cluster 3 then carries no
    information about membership in cluster 4, so the third cluster of each
    modality is genuinely modality-specific rather than mirrored.

    Informative features are N(mu, 1) with cluster means drawn once from
    U(2, 4); everything else, plus any appended extra features, is N(0, 1).
    X has 130 features (cluster 1: 0-19, cluster 2: 20-29, cluster 3: 30-69);
    Y has 90 (cluster 1: 0-9, cluster 2: 10-19, cluster 4: 20-59).
    """
    rng = np.random.default_rng(seed)
    n = 260
    group = np.repeat(np.arange(3), [65, 65, 130])
    rest = np.flatnonzero(group == 2)
    rows_c3 = rng.permutation(rest)[:65]
    other = np.setdiff1d(rest, rows_c3)
    # overlap fixed at round(65 * 65 / 130) so the two partitions are uncorrelated
    rows_c4 = np.concatenate(
        [rng.permutation(rows_c3)[:32], rng.permutation(other)[:33]]
    )

    def build(total_feats, blocks):
        data = rng.standard_normal((n, total_feats))
        truth = {}
        col = 0
        for name, rows, m in blocks:
            mu = rng.uniform(2.0, 4.0, size=m)
            data[np.ix_(rows, np.arange(col, col + m))] = mu[None, :] + rng.standard_normal(
                (len(rows), m)
            )
            truth[name] = np.arange(col, col + m)
            col += m
        return data, truth

    rows_a = np.flatnonzero(group == 0)
    rows_b = np.flatnonzero(group == 1)
    x, tx = build(
        130 + extra_noise_features,
        [("c1", rows_a, 20), ("c2", rows_b, 10), ("c3", rows_c3, 40)],
    )
    y, ty = build(
        90 + extra_noise_features,
        [("c1", rows_a, 10), ("c2", rows_b, 10), ("c4", rows_c4, 40)],
    )
    return ModalPair(
        x=x,
        y=y,
        truth_shared_x=np.concatenate([tx["c1"], tx["c2"]]),
        truth_shared_y=np.concatenate([ty["c1"], ty["c2"]]),
        truth_diff_x=tx["c3"],
        truth_diff_y=ty["c4"],
        labels=group,
        meta={"generator": "gaussian_mixture", "seed": seed, "extra_noise": extra_noise_features},
    )


def _nb_counts(rng, mean, dispersion, size):
    """Negative binomial with mean mu and variance mu + dispersion*mu^2."""
    mean = np.broadcast_to(np.asarray(mean, dtype=np.float64), size)
    r = 1.0 / dispersion
    p = r / (r + mean)
    return rng.negative_binomial(r, p, size=size).astype(np.float64)


def gen_tree(seed: int = 0) -> ModalPair:
    """Bifurcating developmental trajectory with six branch groups.

    The latent tree has a trunk (groups G5, G6 along its length) that splits
    at one branch point into two branches; one branch holds G1 and G2, the
    other G3 and G4. Shared features are negative-binomial counts whose means
    vary smoothly with tree position, split between the modalities. A block of
    differential count features separates G1 from G2 only in X and G3 from G4
    only in Y. Counts are library-normalized to 1e4, log1p-transformed and
    z-scored, then pure N(0,1) noise features are appended.

    1000 samples; each modality has 50 shared, 50 differential and 200 noise
    features, in that column order.
    """
    n, shared_features, diff_features, noise_features = 1000, 50, 50, 200
    rng = np.random.default_rng(seed)

    # Latent positions: trunk [0, 1], branches [1, 2]; branch id in {0, 1, 2}.
    seg = rng.choice(3, size=n, p=[0.4, 0.3, 0.3])
    t = rng.uniform(0.0, 1.0, size=n)
    depth = np.where(seg == 0, t, 1.0 + t)

    labels = np.empty(n, dtype=np.int64)
    trunk = seg == 0
    labels[trunk & (t < 0.5)] = 4  # G5
    labels[trunk & (t >= 0.5)] = 5  # G6
    # G1/G2 split branch 1, G3/G4 split branch 2; within a branch the split
    # is random so the groups are mixed in the shared geometry.
    for branch, (ga, gb) in ((1, (0, 1)), (2, (2, 3))):
        rows = np.flatnonzero(seg == branch)
        half = rng.permutation(rows)
        labels[half[: rows.size // 2]] = ga
        labels[half[rows.size // 2 :]] = gb

    # Smooth positive mean profiles along the tree: per feature a random
    # quadratic in depth plus a random per-branch offset.
    total_shared = 2 * shared_features
    coef = rng.normal(0.0, 1.0, size=(3, total_shared))
    branch_fx = rng.normal(0.0, 1.5, size=(3, total_shared))
    logmean = (
        coef[0][None, :]
        + coef[1][None, :] * depth[:, None]
        + coef[2][None, :] * 0.5 * depth[:, None] ** 2
        + branch_fx[seg, :]
    )
    means = np.exp(logmean - logmean.mean(axis=0, keepdims=True)) * 10.0
    shared_counts = _nb_counts(rng, means, 1.0 / 50.0, (n, total_shared))

    def modality(shared_block, low_group):
        diff = _nb_counts(rng, 20.0, 0.1, (n, diff_features))
        low = labels == low_group
        diff[low] = _nb_counts(rng, 4.0, 0.1, (low.sum(), diff_features))
        counts = np.hstack([shared_block, diff])
        lib = counts.sum(axis=1, keepdims=True)
        lib[lib == 0] = 1.0
        z = zscore_columns(np.log1p(counts / lib * 1e4))
        return np.hstack([z, rng.standard_normal((n, noise_features))])

    x = modality(shared_counts[:, :shared_features], low_group=0)  # G1 bifurcates in X
    y = modality(shared_counts[:, shared_features:], low_group=2)  # G3 bifurcates in Y

    shared_idx = np.arange(shared_features)
    diff_idx = np.arange(shared_features, shared_features + diff_features)
    return ModalPair(
        x=x,
        y=y,
        truth_shared_x=shared_idx,
        truth_shared_y=shared_idx.copy(),
        truth_diff_x=diff_idx,
        truth_diff_y=diff_idx.copy(),
        labels=labels,
        latent=np.column_stack([depth, seg.astype(np.float64)]),
        meta={"generator": "tree", "seed": seed, "n": n},
    )


# gen_cube's sample count and box sides.
_CUBE_N = 1000
_CUBE_SIDES = {"l_s": 2.0, "l_a": 0.5, "l_b": 1.0}


def gen_cube(seed: int = 0) -> ModalPair:
    """1000 uniform samples from [0,l_s] x [0,l_a] x [0,l_b] = [0,2] x [0,0.5] x [0,1].

    Y observes (theta_s, theta_a) and X observes (theta_s, theta_b); the first
    coordinate is the shared latent variable. Full latent coordinates are kept
    for downstream analysis. The side lengths make the shared coordinate
    dominate the joint spectrum (l_s largest) while X retains a clear
    modality-specific mode in theta_b; the short theta_a side keeps
    cross-modal product modes out of the leading shared eigenspace.
    """
    rng = np.random.default_rng(seed)
    theta = rng.uniform(0.0, 1.0, size=(_CUBE_N, 3)) * np.array(list(_CUBE_SIDES.values()))
    return ModalPair(
        x=theta[:, [0, 2]].copy(),
        y=theta[:, [0, 1]].copy(),
        latent=theta,
        meta={"generator": "cube", "seed": seed, "n": _CUBE_N, **_CUBE_SIDES},
    )


def _is_number(cell: str) -> bool:
    try:
        float(cell)
    except ValueError:
        return False
    return True


def read_matrix(path) -> np.ndarray:
    """Headerless or single-header CSV into a dense float matrix.

    Line 1 is a header only when none of its cells is a number; any other
    non-numeric or non-finite (nan, inf) cell is an IngestionError that
    names its line.
    """
    rows = []
    width = None
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            cells = line.split(",")
            if lineno == 1 and not any(map(_is_number, cells)):
                continue  # header line
            if width is None:
                width = len(cells)
            if len(cells) != width:
                raise IngestionError(f"{path}:{lineno}: expected {width} cells, got {len(cells)}")
            try:
                row = [float(c) for c in cells]
            except ValueError as exc:
                raise IngestionError(f"{path}:{lineno}: non-numeric cell ({exc})") from exc
            if not all(map(math.isfinite, row)):
                raise IngestionError(f"{path}:{lineno}: non-finite cell")
            rows.append(row)
    if not rows:
        raise IngestionError(f"{path}: no data rows")
    return np.array(rows, dtype=np.float64)


def _read_indices(path) -> np.ndarray:
    """A one-column file of int64 values (truth indices, labels), read by read_matrix."""
    table = read_matrix(path)
    if table.shape[1] != 1 or np.any(table != np.trunc(table)) or np.abs(table).max() >= 2**63:
        raise IngestionError(f"{path}: expected one integer per line")
    return table[:, 0].astype(np.int64)


def check_indices(name: str, values, width: int) -> np.ndarray:
    """values as int64 indices of distinct columns in [0, width); IngestionError names name."""
    v = np.asarray(values)
    if v.size and (v.min() < 0 or v.max() >= width):  # before the cast, so nothing wraps
        raise IngestionError(f"{name} has indices outside [0, {width})")
    v = v.astype(np.int64)
    if np.unique(v).size != v.size:
        raise IngestionError(f"{name} has duplicate indices")
    return v


def read_json(path):
    """The JSON document in path; one that does not parse is an IngestionError naming path."""
    try:
        return json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise IngestionError(f"{path}: {exc}") from exc


_FMT = "%.17g"


def save_pair(pair: ModalPair, outdir) -> Path:
    """Write X.csv, Y.csv, truth index files, labels, and a manifest."""
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    np.savetxt(outdir / "X.csv", pair.x, delimiter=",", fmt=_FMT)
    np.savetxt(outdir / "Y.csv", pair.y, delimiter=",", fmt=_FMT)
    for name in (*_TRUTH_FIELDS, "labels"):
        if getattr(pair, name) is not None:
            np.savetxt(outdir / f"{name}.csv", getattr(pair, name), fmt="%d")
    if pair.latent is not None:
        np.savetxt(outdir / "latent.csv", pair.latent, delimiter=",", fmt=_FMT)
    manifest = {
        "shape_x": list(pair.x.shape),
        "shape_y": list(pair.y.shape),
        **{k: (v if not isinstance(v, np.generic) else v.item()) for k, v in pair.meta.items()},
    }
    (outdir / "manifest.json").write_text(json.dumps(manifest, indent=2))
    return outdir


def load_pair(indir) -> ModalPair:
    """The dataset save_pair wrote to indir; any file but X.csv and Y.csv may be absent."""
    indir = Path(indir)

    def optional(name, read):
        return read(indir / name) if (indir / name).exists() else None

    return ModalPair(
        x=read_matrix(indir / "X.csv"),
        y=read_matrix(indir / "Y.csv"),
        **{name: optional(f"{name}.csv", _read_indices) for name in (*_TRUTH_FIELDS, "labels")},
        latent=optional("latent.csv", read_matrix),
        meta=optional("manifest.json", read_json) or {},
    )
