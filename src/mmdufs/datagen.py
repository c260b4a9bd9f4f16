"""Synthetic multi-modal datasets and CSV ingestion.

Generators cover a two-modality Gaussian mixture with shared and
modality-specific clusters, a bifurcating developmental-tree surrogate with
negative-binomial counts, and uniform samples from a 3-D box whose first
coordinate is shared between the modalities.
"""

from __future__ import annotations

import json
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
    "ingest",
    "save_pair",
    "load_pair",
]


class IngestionError(ValueError):
    """Raised for malformed input files."""


_TRUTH_FIELDS = ("truth_shared_x", "truth_shared_y", "truth_diff_x", "truth_diff_y")


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
            v = np.asarray(v, dtype=np.int64)
            width = (self.x if name.endswith("_x") else self.y).shape[1]
            # k = len(truth) sets the selection size, so a repeated index
            # would cap F1 below 1 and an empty set leaves F1 undefined.
            if v.size == 0:
                raise IngestionError(f"{name} is empty")
            if v.min() < 0 or v.max() >= width:
                raise IngestionError(f"{name} has indices outside [0, {width})")
            if np.unique(v).size != v.size:
                raise IngestionError(f"{name} has duplicate indices")
            setattr(self, name, v)

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


def gen_cube(
    seed: int = 0,
    n: int = 1000,
    l_s: float = 2.0,
    l_a: float = 0.5,
    l_b: float = 1.0,
) -> ModalPair:
    """Uniform samples from [0,l_s] x [0,l_a] x [0,l_b].

    Y observes (theta_s, theta_a) and X observes (theta_s, theta_b); the first
    coordinate is the shared latent variable. Full latent coordinates are kept
    for downstream analysis. The default side lengths make the shared
    coordinate dominate the joint spectrum (l_s largest) while X retains a
    clear modality-specific mode in theta_b; the short theta_a side keeps
    cross-modal product modes out of the leading shared eigenspace.
    """
    if n < 10:
        raise ValueError("cube generator needs n >= 10")
    rng = np.random.default_rng(seed)
    theta = rng.uniform(0.0, 1.0, size=(n, 3)) * np.array([l_s, l_a, l_b])
    return ModalPair(
        x=theta[:, [0, 2]].copy(),
        y=theta[:, [0, 1]].copy(),
        latent=theta,
        meta={"generator": "cube", "seed": seed, "n": n, "l_s": l_s, "l_a": l_a, "l_b": l_b},
    )


def _read_matrix(path) -> np.ndarray:
    """Headerless or single-header CSV into a dense float matrix."""
    rows = []
    width = None
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            cells = line.split(",")
            if lineno == 1:
                try:
                    rows.append([float(c) for c in cells])
                    width = len(cells)
                except ValueError:
                    continue  # header line
                continue
            if width is None:
                width = len(cells)
            if len(cells) != width:
                raise IngestionError(f"{path}:{lineno}: expected {width} cells, got {len(cells)}")
            try:
                rows.append([float(c) for c in cells])
            except ValueError as exc:
                raise IngestionError(f"{path}:{lineno}: non-numeric cell ({exc})") from exc
    if not rows:
        raise IngestionError(f"{path}: no data rows")
    return np.array(rows, dtype=np.float64)


def _read_indices(path) -> np.ndarray:
    vals = []
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                vals.append(int(line))
            except ValueError as exc:
                raise IngestionError(f"{path}:{lineno}: expected an integer index") from exc
    return np.array(vals, dtype=np.int64)


def ingest(
    path_x,
    path_y,
    truth_shared_x=None,
    truth_shared_y=None,
    truth_diff_x=None,
    truth_diff_y=None,
) -> ModalPair:
    """Load two CSV matrices (and optional truth index files) as a ModalPair."""
    x = _read_matrix(path_x)
    y = _read_matrix(path_y)
    if x.shape[0] != y.shape[0]:
        raise IngestionError(
            f"row-count mismatch: {path_x} has {x.shape[0]}, {path_y} has {y.shape[0]}"
        )
    paths = (truth_shared_x, truth_shared_y, truth_diff_x, truth_diff_y)
    truths = {
        name: _read_indices(p) if p is not None else None for name, p in zip(_TRUTH_FIELDS, paths)
    }
    return ModalPair(x=x, y=y, meta={"source_x": str(path_x), "source_y": str(path_y)}, **truths)


_FMT = "%.17g"


def save_pair(pair: ModalPair, outdir) -> Path:
    """Write X.csv, Y.csv, truth index files, labels, and a manifest."""
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    np.savetxt(outdir / "X.csv", pair.x, delimiter=",", fmt=_FMT)
    np.savetxt(outdir / "Y.csv", pair.y, delimiter=",", fmt=_FMT)
    for name in _TRUTH_FIELDS:
        idx = getattr(pair, name)
        if idx is not None:
            np.savetxt(outdir / f"{name}.csv", idx, fmt="%d")
    if pair.labels is not None:
        np.savetxt(outdir / "labels.csv", pair.labels, fmt="%d")
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
    indir = Path(indir)
    kwargs = {}
    for name in _TRUTH_FIELDS:
        p = indir / f"{name}.csv"
        if p.exists():
            kwargs[name] = _read_indices(p)
    labels = indir / "labels.csv"
    latent = indir / "latent.csv"
    manifest = indir / "manifest.json"
    return ModalPair(
        x=_read_matrix(indir / "X.csv"),
        y=_read_matrix(indir / "Y.csv"),
        labels=_read_indices(labels) if labels.exists() else None,
        latent=_read_matrix(latent) if latent.exists() else None,
        meta=json.loads(manifest.read_text()) if manifest.exists() else {},
        **kwargs,
    )
