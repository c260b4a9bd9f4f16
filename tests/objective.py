"""Oracle of the training objective: the gated graphs and the loss on a fresh tape, at frozen
gate noise and bandwidths, built from the package's primitives without trainer._objective.

The differential score is built from matmul and inner here, not by DifferentialOperator.score
(Tape.quad_form), so that gradients checked against this oracle check that reverse rule against
an independent one."""

from typing import NamedTuple

from mmdufs.graph import build_graph_pair
from mmdufs.operators import DifferentialOperator, differential_operator, shared_operator
from mmdufs.tape import Tape
from mmdufs.trainer import differential_loss, shared_loss, unit_norm_columns


class ChainScore(NamedTuple):
    """q_op with its score b <L_target W, W>, W = A^{-1} X~, as matmul -> matmul -> inner."""

    q_op: DifferentialOperator

    def score(self, tape, gated):
        w = tape.matmul(self.q_op.inv, gated)
        s = tape.inner(tape.matmul(self.q_op.l_target, w), w)
        return tape.scale(s, self.q_op.b) if self.q_op.b != 1.0 else s


def gated_graphs(pair, mu_x_val, mu_y_val, noise_x, noise_y, bw_x, bw_y):
    """Gate leaves, gated data and Laplacians on a fresh tape (frozen noise/bandwidth)."""
    tape = Tape()
    mu_x = tape.leaf(mu_x_val, trainable=True)
    mu_y = tape.leaf(mu_y_val, trainable=True)
    z_x = tape.hard_sigmoid(tape.add(mu_x, tape.constant(noise_x)))
    z_y = tape.hard_sigmoid(tape.add(mu_y, tape.constant(noise_y)))
    gated_x = tape.col_gate(tape.constant(unit_norm_columns(pair.x)), z_x)
    gated_y = tape.col_gate(tape.constant(unit_norm_columns(pair.y)), z_y)
    graphs = build_graph_pair(tape, gated_x, gated_y, 1.0, bandwidth_x=bw_x, bandwidth_y=bw_y)
    return tape, mu_x, mu_y, gated_x, gated_y, graphs


def loss_for_mu(pair, mu_x_val, mu_y_val, mode, noise_x, noise_y, bw_x, bw_y, lam=1e-2):
    """Deterministic loss as a function of gate parameters (frozen noise/bandwidth).

    Shared mode weighs both regularizers by lam; differential mode uses c = 0.1 and
    lambda 0.4 per modality. Returns (tape, loss, mu_x, mu_y).
    """
    tape, mu_x, mu_y, gated_x, gated_y, graphs = gated_graphs(
        pair, mu_x_val, mu_y_val, noise_x, noise_y, bw_x, bw_y
    )
    if mode == "shared":
        p = shared_operator(tape, graphs.l_x, graphs.l_y)
        loss, _, _ = shared_loss(tape, graphs.gram_x, graphs.gram_y, p, mu_x, mu_y, lam, lam)
    else:
        q_x = differential_operator(tape, graphs.l_x, graphs.l_y, c=0.1)
        q_y = differential_operator(tape, graphs.l_y, graphs.l_x, c=0.1)
        lx, _ = differential_loss(tape, gated_x, ChainScore(q_x), mu_x, 0.4)
        ly, _ = differential_loss(tape, gated_y, ChainScore(q_y), mu_y, 0.4)
        loss = tape.add(lx, ly)
    return tape, loss, mu_x, mu_y
