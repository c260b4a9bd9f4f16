"""Oracle of the training objective: the loss as a forward-only function of the gate parameters mu,
at frozen gate noise and bandwidths, built from the package's primitives without trainer._objective,
GateState or gates.expected_l0; and the mu-gradients that trainer.run applies at the same point.

The oracle's gates are np.clip(0.5 + mu + noise, 0, 1) and its regularizer scipy's ndtr, so central
differences of loss_for_mu check the gate's clamp, open mask and expected-L0 derivative against code
of their own. Its shared score is <P, X~X~^T> of the formed array P (np.vdot), not
SharedOperator.score, and its differential score is built from matmul and inner, not by
DifferentialOperator.score (Tape.quad_form). The data are plain arrays, not tape nodes, as in
trainer.run."""

from typing import NamedTuple

import numpy as np
from scipy.special import ndtr

from mmdufs.gates import SIGMA, GateState, expected_l0
from mmdufs.graph import build_graph_pair
from mmdufs.operators import DifferentialOperator, differential_operator, shared_operator_array
from mmdufs.tape import Tape
from mmdufs.trainer import RunConfig, _objective, _regularized, unit_norm_columns

# The configs of the gradient checks: both regularizers at 1e-2 in shared mode; c = 0.1 and
# lambda 0.4 per modality in differential mode.
CONFIGS = {
    "shared": RunConfig(mode="shared", lambda_x=1e-2, lambda_y=1e-2),
    "differential": RunConfig(mode="differential", lambda_x=0.4, lambda_y=0.4, c=0.1),
}


class ChainScore(NamedTuple):
    """q_op with its score b <L_target W, W>, W = A^{-1} X~, as matmul -> matmul -> inner."""

    q_op: DifferentialOperator

    def score(self, tape, gated):
        w = tape.matmul(self.q_op.inv, gated)
        s = tape.inner(tape.matmul(self.q_op.l_target, w), w)
        return tape.scale(s, self.q_op.b) if self.q_op.b != 1.0 else s


def gated_graphs(pair, z_x_val, z_y_val, bw_x, bw_y):
    """Gate leaves z, gated data and Laplacians on a fresh tape (frozen bandwidths)."""
    tape = Tape()
    z_x = tape.leaf(z_x_val, trainable=True)
    z_y = tape.leaf(z_y_val, trainable=True)
    gated_x = tape.col_gate(unit_norm_columns(pair.x), z_x)
    gated_y = tape.col_gate(unit_norm_columns(pair.y), z_y)
    graphs = build_graph_pair(tape, gated_x, gated_y, 1.0, bandwidth_x=bw_x, bandwidth_y=bw_y)
    return tape, z_x, z_y, gated_x, gated_y, graphs


def coupled_scores(pair, cfg, z_x_val, z_y_val, bw_x, bw_y):
    """Both differential scores on one tape, each Q built from the other Laplacian's values,
    each score by matmul and inner rather than Tape.quad_form. Returns (tape, s_x, s_y, z_x, z_y).

    As in training, the other Laplacian is data. It depends only on the other modality's
    gates, so each score's gradient w.r.t. its own gates is the one a Q built from both
    Laplacian nodes would give, and the forward values, all that loss_for_mu reads, are too."""
    tape, z_x, z_y, gated_x, gated_y, graphs = gated_graphs(pair, z_x_val, z_y_val, bw_x, bw_y)
    q_x = differential_operator(tape, graphs.l_x, graphs.l_y.value, c=cfg.c, b=cfg.b)
    q_y = differential_operator(tape, graphs.l_y, graphs.l_x.value, c=cfg.c, b=cfg.b)
    s_x = ChainScore(q_x).score(tape, gated_x)
    s_y = ChainScore(q_y).score(tape, gated_y)
    return tape, s_x, s_y, z_x, z_y


def loss_for_mu(pair, mu_x, mu_y, cfg, noise_x, noise_y, bw_x, bw_y):
    """(loss seen by mu_x, loss seen by mu_y) at frozen noise and bandwidths, forward only.

    Shared mode: both are -(1/n)(Tr[X~T P X~] + Tr[Y~T P Y~]) + lam_x E|z_x|_0 + lam_y E|z_y|_0.
    Differential mode: each modality's own (1/n)(-Tr[D~T Q D~] + lam E|z|_0), the loss its
    gates follow in training.
    """
    n = pair.n_samples
    z_x, z_y = (np.clip(0.5 + mu + e, 0.0, 1.0) for mu, e in ((mu_x, noise_x), (mu_y, noise_y)))
    reg_x, reg_y = (float(ndtr((0.5 + mu) / SIGMA).sum()) for mu in (mu_x, mu_y))
    if cfg.mode == "shared":
        *_, graphs = gated_graphs(pair, z_x, z_y, bw_x, bw_y)
        p = shared_operator_array(graphs.l_x.value, graphs.l_y.value, b=cfg.b)
        s_x, s_y = (float(np.vdot(p, g.value)) for g in (graphs.gram_x, graphs.gram_y))
        loss = -(s_x + s_y) / n + cfg.lambda_x * reg_x + cfg.lambda_y * reg_y
        return loss, loss
    _, s_x, s_y, _, _ = coupled_scores(pair, cfg, z_x, z_y, bw_x, bw_y)
    return ((-float(s_x.value) + cfg.lambda_x * reg_x) / n,
            (-float(s_y.value) + cfg.lambda_y * reg_y) / n)


def run_step(pair, mu_x, mu_y, cfg, noise_x, noise_y, bandwidths, tape=None):
    """(loss, (grad_x, grad_y)) as run computes them at gate parameters mu and this noise:
    trainer._objective on tape (a new one by default) differentiated w.r.t. the gates that
    GateState.sample gives, then trainer._regularized. bandwidths is an (x, y) pair; None
    takes each from the gated data."""
    tape = Tape() if tape is None else tape
    gates = (GateState(mu=mu_x), GateState(mu=mu_y))
    samples = tuple(g.sample(e) for g, e in zip(gates, (noise_x, noise_y)))
    z_x, z_y = (tape.leaf(z, trainable=True) for z, _ in samples)
    xb, yb = unit_norm_columns(pair.x), unit_norm_columns(pair.y)
    loss, s_x, s_y, _ = _objective(tape, xb, yb, z_x, z_y, cfg, bandwidths)
    z_grads = tape.backward(loss)
    return _regularized(cfg, len(xb), gates, tuple(map(expected_l0, gates)), samples,
                        (float(s_x.value), float(s_y.value)), (z_grads[z_x.idx], z_grads[z_y.idx]))
