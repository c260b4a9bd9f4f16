"""Training loop for gate optimization with the shared and differential losses.

Each epoch samples stochastic gates, evaluates the mode's objective on a new
tape (kernels, Laplacians and graph operators rebuilt from the gated data),
and backpropagates to the gate parameters. The new tape is built with
Tape(reuse=) of the previous epoch's, so it writes into that tape's arrays
and a run allocates one buffer set. run yields after every epoch; train stops
it at cfg.epochs. A warm-up grid search over the sparsity weight lambda
scores the same objective at deterministic gates.
"""

from __future__ import annotations

import json
from collections.abc import Iterator
from dataclasses import asdict, dataclass, replace
from itertools import count, islice

import numpy as np

from .gates import SIGMA, GateState, expected_l0, f1, select_features
from .graph import build_graph_pair
from .operators import DifferentialOperator, differential_operator, shared_operator, zscore_columns
from .tape import ContractError, Node, Tape
from .datagen import ModalPair

__all__ = [
    "RunConfig",
    "TrainResult",
    "TrainingDiverged",
    "shared_loss",
    "differential_loss",
    "run",
    "train",
    "warmup_record",
    "warmup_tune",
]


@dataclass
class RunConfig:
    """All hyperparameters of one training run."""

    mode: str = "shared"  # "shared" | "differential"
    lambda_x: float = 1e-4
    lambda_y: float = 1e-4
    c: float = 0.1
    b: float = 1.0
    learning_rate: float = 1.0
    epochs: int = 1000
    batch_size: int | None = None  # None = full batch
    seed: int = 0
    bandwidth_scale: float = 0.5

    def __post_init__(self):
        for name in ("seed", "epochs", "batch_size"):
            value = getattr(self, name)
            is_int = isinstance(value, (int, np.integer)) and not isinstance(value, bool)
            if not (is_int or (name == "batch_size" and value is None)):
                raise ContractError(f"{name} must be an integer, got {value!r}")
        if self.mode not in ("shared", "differential"):
            raise ContractError(f"unknown mode '{self.mode}'")
        if self.epochs < 1:
            raise ContractError("epochs must be >= 1")
        if self.lambda_x < 0 or self.lambda_y < 0:
            raise ContractError("lambda must be nonnegative")
        if self.c <= 0 or self.b <= 0:
            raise ContractError("c and b must be positive")
        if self.learning_rate <= 0:
            raise ContractError("learning rate must be positive")
        if self.batch_size is not None and self.batch_size < 2:
            raise ContractError("batch size must be >= 2")
        if self.bandwidth_scale <= 0:
            raise ContractError("bandwidth scale must be positive")

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2)


@dataclass
class TrainResult:
    gates_x: GateState
    gates_y: GateState
    log: list[dict]  # one record per epoch
    bandwidth_x: float
    bandwidth_y: float


class TrainingDiverged(ArithmeticError):
    """An SGD step made the gate parameters non-finite; carries the epoch and last record."""

    def __init__(self, epoch: int, last_record: dict | None):
        self.epoch = epoch
        self.last_record = last_record
        super().__init__(f"non-finite gates after epoch {epoch}; last record: {last_record}")


def shared_loss(
    tape: Tape,
    gram_x: Node,
    gram_y: Node,
    p_shared: Node,
    mu_x: Node,
    mu_y: Node,
    lambda_x: float,
    lambda_y: float,
) -> tuple[Node, Node, Node]:
    """-(1/n)Tr[X~T P X~] - (1/n)Tr[Y~T P Y~] + lam_x E|z_x|_0 + lam_y E|z_y|_0.

    Returns (loss, score_x, score_y): the raw traces, as <P, gram> of each modality.
    """
    n = gram_x.value.shape[0]
    score_x = tape.inner(p_shared, gram_x)
    score_y = tape.inner(p_shared, gram_y)
    loss = tape.add(tape.scale(score_x, -1.0 / n), tape.scale(score_y, -1.0 / n))
    loss = tape.add(loss, tape.scale(tape.open_gate_expectation(mu_x, SIGMA), lambda_x))
    loss = tape.add(loss, tape.scale(tape.open_gate_expectation(mu_y, SIGMA), lambda_y))
    return loss, score_x, score_y


def differential_loss(
    tape: Tape,
    gated: Node,
    q_op: DifferentialOperator,
    mu: Node,
    lam: float,
) -> tuple[Node, Node]:
    """(1/n)(-Tr[D~T Q D~] + lam E|z|_0), the trace by q_op.score. Returns (loss, score).

    Unlike the shared objective, the whole differential objective — including
    the regularizer — is normalized per sample. The published regularization
    strengths for differential runs are calibrated against score terms that
    grow with the sample count; keeping the regularizer on the same per-sample
    scale preserves that balance for any n and yields gradual gate dynamics
    instead of a first-step collapse.
    """
    n = gated.value.shape[0]
    score = q_op.score(tape, gated)
    loss = tape.add(
        tape.scale(score, -1.0 / n),
        tape.scale(tape.open_gate_expectation(mu, SIGMA), lam / n),
    )
    return loss, score


def unit_norm_columns(data: np.ndarray) -> np.ndarray:
    """Z-score columns, then rescale so every column has unit Euclidean norm.

    This is the normalized-feature convention of the Laplacian Score: each
    feature contributes on the same scale regardless of sample count, which
    keeps the score term commensurate with the gate regularizer.
    """
    z = zscore_columns(np.asarray(data, dtype=np.float64))
    return z / np.sqrt(data.shape[0])


def _objective(tape, xb, yb, z_x, z_y, mu_x, mu_y, cfg, bandwidths=(None, None)):
    """(loss, score_x, score_y, graphs) of cfg's mode on arrays xb, yb gated by nodes z_x, z_y.

    mu_x, mu_y are the gate-parameter nodes of the regularizer. bandwidths
    freezes the kernel bandwidths; None takes each from the gated data, as
    build_graph_pair does. In differential mode each Q takes the other modality's Laplacian as
    a constant: loss_x then reaches only mu_x and loss_y only mu_y, so one
    sweep of their sum skips the inverses and the other modality's kernel chain.
    """
    gated_x = tape.col_gate(tape.constant(xb), z_x)
    gated_y = tape.col_gate(tape.constant(yb), z_y)
    graphs = build_graph_pair(tape, gated_x, gated_y, cfg.bandwidth_scale, *bandwidths)
    if cfg.mode == "shared":
        p = shared_operator(tape, graphs.l_x, graphs.l_y, b=cfg.b)
        loss, s_x, s_y = shared_loss(
            tape, graphs.gram_x, graphs.gram_y, p, mu_x, mu_y, cfg.lambda_x, cfg.lambda_y
        )
        return loss, s_x, s_y, graphs
    const_l_x = tape.constant(graphs.l_x.value)
    const_l_y = tape.constant(graphs.l_y.value)
    q_x = differential_operator(tape, graphs.l_x, const_l_y, c=cfg.c, b=cfg.b)
    q_y = differential_operator(tape, graphs.l_y, const_l_x, c=cfg.c, b=cfg.b)
    loss_x, s_x = differential_loss(tape, gated_x, q_x, mu_x, cfg.lambda_x)
    loss_y, s_y = differential_loss(tape, gated_y, q_y, mu_y, cfg.lambda_y)
    return tape.add(loss_x, loss_y), s_x, s_y, graphs


def run(pair: ModalPair, cfg: RunConfig, ground_truth: dict | None = None) -> Iterator[TrainResult]:
    """Optimize both gate vectors by SGD, deterministic for a fixed config and seed.

    After each epoch, yields the run so far: one TrainResult, which the next
    epoch updates in place. cfg.epochs is not read; the caller stops the run.
    Each epoch takes its kernel bandwidths from that epoch's gated data and
    appends one row to the log. ground_truth maps "x"/"y" to index arrays (or
    None); for each array given, top-k selection F1 (k = truth size) is logged.

    In differential mode each modality's gates follow only their own loss:
    the other modality's Laplacian enters Q_x (and Q_y) as a constant, so one
    reverse sweep of loss_x + loss_y gives both gradients. A step that makes
    the gate parameters non-finite raises TrainingDiverged.
    """
    n = pair.n_samples
    if cfg.batch_size is not None and cfg.batch_size > n:
        raise ContractError(f"batch size {cfg.batch_size} exceeds sample count {n}")
    for name, data in (("x", pair.x), ("y", pair.y)):
        if np.all(data == data[0]):
            raise ContractError(f"modality {name} is constant: every sample has the same values")

    data_x, data_y = unit_norm_columns(pair.x), unit_norm_columns(pair.y)

    gates_x = GateState.zeros(pair.x.shape[1], seed=cfg.seed)
    gates_y = GateState.zeros(pair.y.shape[1], seed=cfg.seed + 1)
    batch_rng = np.random.default_rng(cfg.seed + 2)
    log = []
    result = TrainResult(gates_x, gates_y, log, bandwidth_x=np.nan, bandwidth_y=np.nan)

    tape = None
    for epoch in count():
        if cfg.batch_size is None or cfg.batch_size >= n:
            xb, yb = data_x, data_y
        else:
            idx = batch_rng.choice(n, size=cfg.batch_size, replace=False)
            xb, yb = data_x[idx], data_y[idx]

        tape = Tape(reuse=tape)
        mu_x = tape.leaf(gates_x.mu, trainable=True)
        mu_y = tape.leaf(gates_y.mu, trainable=True)
        z_x = tape.hard_sigmoid(tape.add(mu_x, tape.constant(gates_x.draw_noise())))
        z_y = tape.hard_sigmoid(tape.add(mu_y, tape.constant(gates_y.draw_noise())))
        loss, s_x, s_y, graphs = _objective(tape, xb, yb, z_x, z_y, mu_x, mu_y, cfg)
        grads = tape.backward(loss)
        # A step to inf/nan ends in TrainingDiverged, not a numpy warning.
        with np.errstate(over="ignore", invalid="ignore"):
            gates_x.mu -= cfg.learning_rate * grads[mu_x.idx]
            gates_y.mu -= cfg.learning_rate * grads[mu_y.idx]
        if not (np.isfinite(gates_x.mu).all() and np.isfinite(gates_y.mu).all()):
            raise TrainingDiverged(epoch, log[-1] if log else None)

        record = {
            "epoch": epoch,
            "loss": float(loss.value),
            "score_x": float(s_x.value),
            "score_y": float(s_y.value),
            "reg_x": expected_l0(gates_x),
            "reg_y": expected_l0(gates_y),
            "open_x": int(np.count_nonzero(gates_x.eval_gates() > 0)),
            "open_y": int(np.count_nonzero(gates_y.eval_gates() > 0)),
        }
        if ground_truth:
            for key, gates in (("x", gates_x), ("y", gates_y)):
                truth = ground_truth.get(key)
                if truth is not None:
                    sel = select_features(gates, "top-k", k=len(truth))
                    record[f"f1_{key}"] = f1(sel, truth)
        log.append(record)
        result.bandwidth_x, result.bandwidth_y = graphs.bandwidth_x, graphs.bandwidth_y
        yield result


def train(pair: ModalPair, cfg: RunConfig, ground_truth: dict | None = None) -> TrainResult:
    """run(pair, cfg, ground_truth) stopped after cfg.epochs epochs."""
    return next(islice(run(pair, cfg, ground_truth), cfg.epochs - 1, None))


def _eval_scores(pair: ModalPair, cfg: RunConfig, result: TrainResult) -> tuple[float, float]:
    """Raw trace scores Tr[X~T Op X~], Tr[Y~T Op Y~] of the full data.

    The run's objective, at its deterministic gates and final bandwidths.
    """
    tape = Tape()
    gates = (result.gates_x, result.gates_y)
    z_x, z_y = (tape.constant(g.eval_gates()) for g in gates)
    mu_x, mu_y = (tape.constant(g.mu) for g in gates)
    data_x, data_y = unit_norm_columns(pair.x), unit_norm_columns(pair.y)
    bandwidths = (result.bandwidth_x, result.bandwidth_y)
    _, s_x, s_y, _ = _objective(tape, data_x, data_y, z_x, z_y, mu_x, mu_y, cfg, bandwidths)
    return float(s_x.value), float(s_y.value)


# Warm-up tuning's defaults: the lambda grid the CLI searches and the epochs per grid point.
LAMBDA_GRID = (1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1.0, 10.0, 100.0)
WARMUP_EPOCHS = 1000


def warmup_record(pair: ModalPair, cfg: RunConfig, result: TrainResult) -> dict:
    """Warm-up row for cfg's lambda: _eval_scores per sample and selected feature.

    Shared mode records the two modalities' mean; differential mode each one.
    """
    n = pair.n_samples
    d_x, d_y = pair.selection_sizes(cfg.mode)
    tr_x, tr_y = _eval_scores(pair, cfg, result)
    if cfg.mode == "shared":
        return {"lambda": cfg.lambda_x, "score_shared": (tr_x / d_x + tr_y / d_y) / (2.0 * n)}
    return {"lambda": cfg.lambda_x, "score_x": tr_x / (d_x * n), "score_y": tr_y / (d_y * n)}


def warmup_tune(
    pair: ModalPair,
    cfg_template: RunConfig,
    lambda_grid,
    warmup_epochs: int = WARMUP_EPOCHS,
) -> tuple[float, float, list[dict]]:
    """Short-run grid search over lambda maximizing the mean operator scores.

    For each grid value, trains for warmup_epochs with lambda_x = lambda_y =
    that value, one train call per value, and scores the run by
    warmup_record. Shared mode maximizes the combined score (one lambda for
    both modalities); differential mode picks lambda_x and lambda_y from
    their own scores. The grid is searched in ascending order and ties
    resolve to the smaller lambda.

    Returns (lambda_x, lambda_y, per-grid-point records).
    """
    grid = sorted(float(v) for v in lambda_grid)
    if not grid:
        raise ContractError("lambda grid must be nonempty")

    records = []
    for lam in grid:
        cfg = replace(cfg_template, lambda_x=lam, lambda_y=lam, epochs=warmup_epochs)
        records.append(warmup_record(pair, cfg, train(pair, cfg)))

    def argmax(key):  # max keeps the first of equal scores: the smaller lambda
        return max(records, key=lambda r: r[key])["lambda"]

    if cfg_template.mode == "shared":
        lam = argmax("score_shared")
        return lam, lam, records
    return argmax("score_x"), argmax("score_y"), records
