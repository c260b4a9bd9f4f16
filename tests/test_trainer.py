"""Training loop: losses, gradients, determinism, config contracts, warm-up tuning."""

import dataclasses
import gc
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mmdufs.datagen import ModalPair, gen_gaussian_mixture
from mmdufs.gates import SIGMA, GateState
from mmdufs.graph import (
    build_graph_pair,
    gaussian_kernel,
    median_bandwidth,
    normalized_laplacian,
)
from mmdufs.operators import (
    DifferentialOperator,
    differential_operator,
    differential_operator_array,
    shared_operator_array,
)
from mmdufs.tape import ContractError, NumericalError, Tape, pairwise_sq_dists
from objective import ChainScore, gated_graphs, loss_for_mu
from mmdufs import trainer
from mmdufs.trainer import (
    RunConfig,
    TrainingDiverged,
    _eval_scores,
    _objective,
    differential_loss,
    run,
    train,
    unit_norm_columns,
    warmup_tune,
)

RNG = np.random.default_rng(99)


def tiny_pair(seed=0, n=14, dx=5, dy=4):
    rng = np.random.default_rng(seed)
    return ModalPair(x=rng.normal(size=(n, dx)), y=rng.normal(size=(n, dy)))


def frozen_bandwidth_scores(pair, seed, learning_rate, epochs=40, scale=0.4):
    """Shared score per epoch of SGD on the lam=0 objective at frozen bandwidths.

    The bandwidths are scale x the median distance at the initial gates
    (z = 0.5), and stay fixed; train() recomputes them every epoch.
    """
    bw_x, bw_y = (
        scale * median_bandwidth(pairwise_sq_dists(0.5 * unit_norm_columns(data)))
        for data in (pair.x, pair.y)
    )
    gates_x = GateState.zeros(pair.x.shape[1], seed=seed)
    gates_y = GateState.zeros(pair.y.shape[1], seed=seed + 1)
    scores = []
    for _ in range(epochs):
        tape, loss, mu_x, mu_y = loss_for_mu(
            pair, gates_x.mu, gates_y.mu, "shared", gates_x.draw_noise(), gates_y.draw_noise(),
            bw_x, bw_y, lam=0.0,
        )
        grads = tape.backward(loss)
        scores.append(-pair.n_samples * float(loss.value))  # lam = 0: loss = -(s_x + s_y)/n
        gates_x.mu -= learning_rate * grads[mu_x.idx]
        gates_y.mu -= learning_rate * grads[mu_y.idx]
    return scores


class TestLosses:
    def test_shared_loss_value(self):
        """Loss equals -(1/n)(Tr[X'PX] + Tr[Y'PY]) + lam*(E|z_x|0 + E|z_y|0)."""
        from scipy.special import ndtr

        pair = tiny_pair()
        n = pair.n_samples
        noise = np.zeros(5), np.zeros(4)
        tape, loss, mu_x, mu_y = loss_for_mu(
            pair, np.full(5, 0.2), np.full(4, -0.1), "shared", *noise, 1.0, 1.0
        )
        # reconstruct by hand from plain arrays
        x = unit_norm_columns(pair.x) * np.clip(0.7, 0, 1)
        y = unit_norm_columns(pair.y) * np.clip(0.4, 0, 1)
        from mmdufs.graph import gaussian_kernel, normalized_laplacian
        from mmdufs.operators import shared_operator_array

        lx = normalized_laplacian(gaussian_kernel(pairwise_sq_dists(x), 1.0))
        ly = normalized_laplacian(gaussian_kernel(pairwise_sq_dists(y), 1.0))
        p = shared_operator_array(lx, ly)
        expect = (
            -(np.trace(x.T @ p @ x) + np.trace(y.T @ p @ y)) / n
            + 1e-2 * ndtr((0.5 + 0.2) / 0.5) * 5
            + 1e-2 * ndtr((0.5 - 0.1) / 0.5) * 4
        )
        assert float(loss.value) == pytest.approx(expect, rel=1e-10)

    def test_differential_loss_identity_operator(self):
        """With Q = I the score is the squared Frobenius norm of the gated data."""
        pair = tiny_pair()
        n = pair.n_samples
        tape = Tape()
        mu = tape.leaf(np.zeros(5), trainable=True)
        gated = tape.col_gate(tape.constant(unit_norm_columns(pair.x)), tape.hard_sigmoid(mu))
        eye = tape.constant(np.eye(n))
        q = DifferentialOperator(inv=eye, l_target=eye, b=1.0)
        loss, score = differential_loss(tape, gated, q, mu, 0.0)
        frob2 = np.sum((unit_norm_columns(pair.x) * 0.5) ** 2)
        assert float(score.value) == pytest.approx(frob2, rel=1e-10)
        assert float(loss.value) == pytest.approx(-frob2 / n, rel=1e-10)


class TestGradientCheck:
    @pytest.mark.parametrize("mode", ["shared", "differential"])
    def test_matches_finite_differences(self, mode):
        pair = tiny_pair(seed=3)
        rng = np.random.default_rng(0)
        mu_x0 = rng.uniform(-0.3, 0.3, 5)
        mu_y0 = rng.uniform(-0.3, 0.3, 4)
        noise_x = rng.normal(0, 0.5, 5)
        noise_y = rng.normal(0, 0.5, 4)
        bw_x = median_bandwidth(pairwise_sq_dists(unit_norm_columns(pair.x)))
        bw_y = median_bandwidth(pairwise_sq_dists(unit_norm_columns(pair.y)))

        tape, loss, mu_x, mu_y = loss_for_mu(pair, mu_x0, mu_y0, mode, noise_x, noise_y, bw_x, bw_y)
        grads = tape.backward(loss)
        h = 1e-5
        for leaf, base, which in ((mu_x, mu_x0, "x"), (mu_y, mu_y0, "y")):
            g = grads[leaf.idx]
            for i in range(base.size):
                up, dn = base.copy(), base.copy()
                up[i] += h
                dn[i] -= h
                if which == "x":
                    _, lu, _, _ = loss_for_mu(pair, up, mu_y0, mode, noise_x, noise_y, bw_x, bw_y)
                    _, ld, _, _ = loss_for_mu(pair, dn, mu_y0, mode, noise_x, noise_y, bw_x, bw_y)
                else:
                    _, lu, _, _ = loss_for_mu(pair, mu_x0, up, mode, noise_x, noise_y, bw_x, bw_y)
                    _, ld, _, _ = loss_for_mu(pair, mu_x0, dn, mode, noise_x, noise_y, bw_x, bw_y)
                fd = (float(lu.value) - float(ld.value)) / (2 * h)
                denom = max(abs(fd), abs(g[i]), 1e-8)
                assert abs(g[i] - fd) / denom < 1e-3


def coupled_differential(pair, cfg, mu_x_val, mu_y_val, noise_x, noise_y, bw_x, bw_y):
    """Both differential losses on one tape, each Q built from both Laplacian nodes, each
    score by matmul and inner rather than Tape.quad_form."""
    tape, mu_x, mu_y, gated_x, gated_y, graphs = gated_graphs(
        pair, mu_x_val, mu_y_val, noise_x, noise_y, bw_x, bw_y
    )
    q_x = differential_operator(tape, graphs.l_x, graphs.l_y, c=cfg.c, b=cfg.b)
    q_y = differential_operator(tape, graphs.l_y, graphs.l_x, c=cfg.c, b=cfg.b)
    lx, _ = differential_loss(tape, gated_x, ChainScore(q_x), mu_x, cfg.lambda_x)
    ly, _ = differential_loss(tape, gated_y, ChainScore(q_y), mu_y, cfg.lambda_y)
    return tape, lx, ly, mu_x, mu_y


class TestDifferentialSingleSweep:
    """train's one reverse sweep against per-modality gradients of the coupled losses."""

    CFG = RunConfig(
        mode="differential", epochs=1, learning_rate=1.0, lambda_x=0.4, lambda_y=0.2,
        c=0.1, b=0.5, seed=5,
    )

    def first_epoch(self, pair):
        """Gradients of train's first epoch, with that epoch's noise and bandwidths."""
        cfg = self.CFG
        res = train(pair, cfg)
        # one SGD step from mu = 0 at learning rate 1 leaves exactly mu = -grad
        grads = (-res.gates_x.mu, -res.gates_y.mu)
        # train seeds the gate states with seed and seed + 1
        noise_x = GateState.zeros(pair.x.shape[1], seed=cfg.seed).draw_noise()
        noise_y = GateState.zeros(pair.y.shape[1], seed=cfg.seed + 1).draw_noise()
        return grads, (noise_x, noise_y), (res.bandwidth_x, res.bandwidth_y)

    def test_matches_per_modality_oracle(self):
        pair = tiny_pair(seed=3)
        (gx, gy), noise, bws = self.first_epoch(pair)
        zeros_x, zeros_y = np.zeros(pair.x.shape[1]), np.zeros(pair.y.shape[1])
        tape, lx, ly, mu_x, mu_y = coupled_differential(
            pair, self.CFG, zeros_x, zeros_y, *noise, *bws
        )
        oracle_x = tape.backward(lx)[mu_x.idx]
        oracle_y = tape.backward(ly)[mu_y.idx]
        assert np.count_nonzero(oracle_x) > 0 and np.count_nonzero(oracle_y) > 0
        np.testing.assert_allclose(gx, oracle_x, rtol=1e-12, atol=0)
        np.testing.assert_allclose(gy, oracle_y, rtol=1e-12, atol=0)

    def test_own_loss_matches_finite_differences(self):
        """d loss_x / d mu_x by central differences, mu_y held fixed."""
        pair = tiny_pair(seed=3)
        (gx, _), noise, bws = self.first_epoch(pair)
        zeros_y = np.zeros(pair.y.shape[1])

        def loss_x(mu_x_val):
            _, lx, _, _, _ = coupled_differential(pair, self.CFG, mu_x_val, zeros_y, *noise, *bws)
            return float(lx.value)

        h = 1e-5
        fd = np.zeros_like(gx)
        for i in range(gx.size):
            step = np.zeros_like(gx)
            step[i] = h
            fd[i] = (loss_x(step) - loss_x(-step)) / (2 * h)
        np.testing.assert_allclose(gx, fd, rtol=1e-6, atol=1e-9)


def dense_q_score(tape, l_target, l_other, gram, c, b):
    """The differential score through the formed operator: <b A^-1 L A^-1, X~X~^T>.

    A = L_other + cI. This chain builds the n x n Q; the factored score never does.
    """
    n = l_other.value.shape[0]
    inv = tape.inverse(tape.add(l_other, tape.constant(c * np.eye(n))))
    q = tape.scale(tape.matmul(inv, tape.matmul(l_target, inv)), b)
    return tape.inner(q, gram)


def assert_first_epoch_permutation_invariant(mode, seed, n, dx, dy, b):
    """train's first epoch in mode: same scores, loss and gradients (mu after
    one unit step from 0) when the samples are reordered."""
    rng = np.random.default_rng(seed)
    pair = ModalPair(x=rng.normal(size=(n, dx)), y=rng.normal(size=(n, dy)))
    perm = rng.permutation(n)
    permuted = ModalPair(x=pair.x[perm], y=pair.y[perm])
    cfg = RunConfig(mode=mode, epochs=1, lambda_x=0.3, lambda_y=0.1, b=b, seed=seed)
    ref, got = train(pair, cfg), train(permuted, cfg)
    for key in ("loss", "score_x", "score_y"):
        assert got.log[0][key] == pytest.approx(ref.log[0][key], rel=1e-10)
    for g_ref, g_got in ((ref.gates_x.mu, got.gates_x.mu), (ref.gates_y.mu, got.gates_y.mu)):
        np.testing.assert_allclose(g_got, g_ref, rtol=1e-9, atol=1e-12 * np.abs(g_ref).max())


class TestFactoredDifferentialScore:
    """b Tr[W^T L W], W = (L_other + cI)^{-1} X~, against the dense-Q chain."""

    @pytest.mark.parametrize("coupled", [False, True], ids=["constant", "coupled"])
    @pytest.mark.parametrize("b", [1.0, 0.37])
    def test_matches_dense_q_oracle(self, coupled, b):
        pair = tiny_pair(seed=8, n=11, dx=6, dy=13)  # dy > n
        rng = np.random.default_rng(3)
        mu_x0, mu_y0 = rng.uniform(-0.3, 0.3, 6), rng.uniform(-0.3, 0.3, 13)
        noise_x, noise_y = rng.normal(0, 0.5, 6), rng.normal(0, 0.5, 13)
        tape, mu_x, mu_y, gated_x, gated_y, graphs = gated_graphs(
            pair, mu_x0, mu_y0, noise_x, noise_y, 0.8, 1.3
        )
        c = 0.2
        for l_t, l_o, gated, gram in (
            (graphs.l_x, graphs.l_y, gated_x, graphs.gram_x),
            (graphs.l_y, graphs.l_x, gated_y, graphs.gram_y),
        ):
            if not coupled:
                l_o = tape.constant(l_o.value)
            score = differential_operator(tape, l_t, l_o, c=c, b=b).score(tape, gated)
            oracle = dense_q_score(tape, l_t, l_o, gram, c, b)
            assert float(score.value) == pytest.approx(float(oracle.value), rel=1e-10)
            got, want = tape.backward(score), tape.backward(oracle)
            for leaf in (mu_x, mu_y):
                np.testing.assert_allclose(got[leaf.idx], want[leaf.idx], rtol=1e-10, atol=0)
            # the other modality's gates are reached only through a coupled L_other
            other = mu_y if l_t is graphs.l_x else mu_x
            assert np.any(got[other.idx] != 0) == coupled

    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(0, 2**16),
        n=st.integers(3, 9),
        dx=st.integers(1, 6),
        dy=st.integers(1, 12),
        b=st.sampled_from([1.0, 0.3]),
    )
    def test_invariant_under_sample_permutation(self, seed, n, dx, dy, b):
        assert_first_epoch_permutation_invariant("differential", seed, n, dx, dy, b)


class TestSharedFusedEpoch:
    """train's shared gradients against the two-product, trace-chain composition."""

    CFG = RunConfig(
        mode="shared", epochs=1, learning_rate=1.0, lambda_x=0.3, lambda_y=0.1, b=1.5, seed=4
    )

    def test_matches_trace_chain_oracle(self):
        pair = tiny_pair(seed=6, n=12, dx=7, dy=15)  # dy > n
        cfg = self.CFG
        res = train(pair, cfg)
        # one SGD step from mu = 0 at learning rate 1 leaves exactly mu = -grad
        gx, gy = -res.gates_x.mu, -res.gates_y.mu
        noise_x = GateState.zeros(pair.x.shape[1], seed=cfg.seed).draw_noise()
        noise_y = GateState.zeros(pair.y.shape[1], seed=cfg.seed + 1).draw_noise()
        tape, mu_x, mu_y, gated_x, gated_y, graphs = gated_graphs(
            pair, np.zeros(7), np.zeros(15), noise_x, noise_y, res.bandwidth_x, res.bandwidth_y
        )
        l_x, l_y = graphs.l_x, graphs.l_y
        p = tape.scale(tape.add(tape.matmul(l_x, l_y), tape.matmul(l_y, l_x)), cfg.b)

        def score(gated):
            return tape.trace(tape.matmul(tape.transpose(gated), tape.matmul(p, gated)))

        def reg(mu, lam):
            return tape.scale(tape.open_gate_expectation(mu, SIGMA), lam)

        n = pair.n_samples
        loss = tape.add(tape.scale(score(gated_x), -1 / n), tape.scale(score(gated_y), -1 / n))
        loss = tape.add(tape.add(loss, reg(mu_x, cfg.lambda_x)), reg(mu_y, cfg.lambda_y))
        grads = tape.backward(loss)
        assert np.count_nonzero(gx) > 0 and np.count_nonzero(gy) > 0
        np.testing.assert_allclose(gx, grads[mu_x.idx], rtol=1e-10, atol=0)
        np.testing.assert_allclose(gy, grads[mu_y.idx], rtol=1e-10, atol=0)

    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(0, 2**16),
        n=st.integers(3, 9),
        dx=st.integers(1, 6),
        dy=st.integers(1, 12),
        b=st.sampled_from([1.0, 0.3]),
    )
    def test_invariant_under_sample_permutation(self, seed, n, dx, dy, b):
        assert_first_epoch_permutation_invariant("shared", seed, n, dx, dy, b)


class TestSharedScoreSwap:
    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(3, 14), d_x=st.integers(1, 5),
           d_y=st.integers(1, 5))
    def test_symmetric_under_swapping_x_and_y(self, seed, n, d_x, d_y):
        """The shared objective of (Y, X) gives (score_y, score_x) of (X, Y)."""
        rng = np.random.default_rng(seed)
        x, y = rng.normal(size=(n, d_x)), rng.normal(size=(n, d_y))
        mu_x, mu_y = rng.uniform(-0.6, 0.6, d_x), rng.uniform(-0.6, 0.6, d_y)
        cfg = RunConfig(mode="shared", lambda_x=0.3, lambda_y=0.3)

        def scores(a, b, mu_a, mu_b):
            tape = Tape()
            z_a, z_b = (tape.constant(np.clip(0.5 + mu, 0.0, 1.0)) for mu in (mu_a, mu_b))
            loss, s_a, s_b, _ = _objective(
                tape, unit_norm_columns(a), unit_norm_columns(b), z_a, z_b,
                tape.constant(mu_a), tape.constant(mu_b), cfg)
            return [float(loss.value), float(s_a.value), float(s_b.value)]

        loss, s_x, s_y = scores(x, y, mu_x, mu_y)
        # atol: when one modality's gates are all closed, the other's score is 0 up to rounding
        np.testing.assert_allclose(scores(y, x, mu_y, mu_x), [loss, s_y, s_x],
                                   rtol=1e-12, atol=1e-15)


class TestFeaturePermutation:
    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(3, 14), d_x=st.integers(1, 6),
           d_y=st.integers(1, 5), mode=st.sampled_from(["shared", "differential"]))
    def test_gradient_is_equivariant(self, seed, n, d_x, d_y, mode):
        """Permuting X's columns, with mu_x and noise_x alike, permutes the mu_x-gradient."""
        rng = np.random.default_rng(seed)
        pair = ModalPair(x=rng.normal(size=(n, d_x)), y=rng.normal(size=(n, d_y)))
        mu_x, mu_y = rng.uniform(-0.6, 0.6, d_x), rng.uniform(-0.6, 0.6, d_y)
        noise_x, noise_y = rng.normal(0, SIGMA, d_x), rng.normal(0, SIGMA, d_y)
        perm = rng.permutation(d_x)

        def grads(p, m_x, e_x):
            tape, loss, leaf_x, leaf_y = loss_for_mu(p, m_x, mu_y, mode, e_x, noise_y, 0.7, 0.9)
            g = tape.backward(loss)
            return g[leaf_x.idx], g[leaf_y.idx]

        g_x, g_y = grads(pair, mu_x, noise_x)
        permuted = ModalPair(x=pair.x[:, perm], y=pair.y)
        gp_x, gp_y = grads(permuted, mu_x[perm], noise_x[perm])
        np.testing.assert_allclose(gp_x, g_x[perm], rtol=1e-10)
        np.testing.assert_allclose(gp_y, g_y, rtol=1e-10)


DEGENERATE_CASES = ["n=2", "duplicate-rows", "d=1", "d=n", "d>n", "constant-column"]


def degenerate_pair(case):
    """n = 2 samples; 10 rows that repeat 5 distinct ones; or 8 rows with one feature,
    as many features as rows (n x d and n x n arrays then share a free-list key), more
    features than rows, or a constant column."""
    rng = np.random.default_rng(3)
    if case == "n=2":
        return ModalPair(x=rng.normal(size=(2, 3)), y=rng.normal(size=(2, 2)))
    if case == "duplicate-rows":
        return ModalPair(x=np.tile(rng.normal(size=(5, 4)), (2, 1)),
                         y=np.tile(rng.normal(size=(5, 3)), (2, 1)))
    d_x = {"d=1": 1, "d=n": 8, "d>n": 11, "constant-column": 4}[case]
    x = rng.normal(size=(8, d_x))
    if case == "constant-column":
        x[:, 1] = 3.0
    return ModalPair(x=x, y=rng.normal(size=(8, 3)))


class TestTapeReuse:
    """Tape(reuse=prev), as train chains it: the arrays change hands, the bits do not."""

    @staticmethod
    def record(tape, pair, cfg):
        """Values of every node and the gate gradients of one epoch's objective, copied."""
        rng = np.random.default_rng(5)
        mu_x = tape.leaf(rng.uniform(-0.3, 0.3, pair.x.shape[1]), trainable=True)
        mu_y = tape.leaf(rng.uniform(-0.3, 0.3, pair.y.shape[1]), trainable=True)
        z_x = tape.hard_sigmoid(tape.add(mu_x, tape.constant(rng.normal(0, 0.5, mu_x.shape))))
        z_y = tape.hard_sigmoid(tape.add(mu_y, tape.constant(rng.normal(0, 0.5, mu_y.shape))))
        xb, yb = unit_norm_columns(pair.x), unit_norm_columns(pair.y)
        loss, _, _, _ = _objective(tape, xb, yb, z_x, z_y, mu_x, mu_y, cfg)
        grads = tape.backward(loss)
        values = [np.array(node.value) for node in tape.nodes]
        return loss, values, grads[mu_x.idx].copy(), grads[mu_y.idx].copy()

    @pytest.mark.parametrize("mode", ["shared", "differential"])
    def test_bit_identical_to_a_fresh_tape(self, mode):
        pair = tiny_pair(seed=4, n=12, dx=6, dy=14)  # dy > n
        cfg = RunConfig(mode=mode, lambda_x=0.2, lambda_y=0.1, b=0.7, c=0.2)
        _, want, want_gx, want_gy = self.record(Tape(), pair, cfg)
        tape = loss = None
        for _ in range(3):
            prev, prev_loss = tape, loss
            tape = Tape(reuse=prev)
            pool = [arr for arrs in tape._free.values() for arr in arrs]
            loss, got, gx, gy = self.record(tape, pair, cfg)
            assert len(got) == len(want)
            for a, b in zip(got, want):
                assert np.array_equal(a, b)
            assert np.array_equal(gx, want_gx) and np.array_equal(gy, want_gy)
            if prev is not None:
                # every array the tape handed out came from the superseded tape ...
                pooled = {id(arr) for arr in pool}
                assert all(id(arr) in pooled for arr in tape._taken.values())
                # ... which no longer differentiates
                with pytest.raises(ContractError, match="different tape"):
                    prev.backward(prev_loss)

    @pytest.mark.parametrize("mode", ["shared", "differential"])
    def test_buffer_set_stops_growing(self, mode):
        """From the third chained tape on, the pool (handed out plus free) is one set of
        arrays: the same set each epoch, no array in it twice, and of a pinned size.

        The sizes are the peak count of arrays alive at once; a sweep that kept every
        gradient it formed would hold 49 and 55."""
        pair = tiny_pair(seed=4, n=12, dx=6, dy=14)
        cfg = RunConfig(mode=mode, lambda_x=0.2, lambda_y=0.1, b=0.7, c=0.2)
        tape, pools = None, []
        for _ in range(5):
            tape = Tape(reuse=tape)
            self.record(tape, pair, cfg)
            pool = [*tape._taken.values(), *(arr for arrs in tape._free.values() for arr in arrs)]
            ids = {id(arr) for arr in pool}
            assert len(ids) == len(pool)
            pools.append(ids)
        assert pools[2] == pools[3] == pools[4]
        assert len(pools[2]) == {"shared": 34, "differential": 42}[mode]

    @pytest.mark.parametrize("mode", ["shared", "differential"])
    @pytest.mark.parametrize("case", DEGENERATE_CASES)
    def test_chained_tapes_match_finite_differences(self, mode, case):
        """Gate gradients on three chained tapes, each against central differences of
        fresh tapes' losses, at frozen bandwidths and gates inside (0, 1). In differential
        mode each gate vector follows its own loss, built by the chain oracle."""
        pair = degenerate_pair(case)
        cfg = RunConfig(mode=mode, lambda_x=0.2, lambda_y=0.1, b=0.7, c=0.2)
        xb, yb = unit_norm_columns(pair.x), unit_norm_columns(pair.y)
        bws = (0.8, 1.3)
        rng = np.random.default_rng(11)
        mu = [rng.uniform(-0.3, 0.3, d) for d in (xb.shape[1], yb.shape[1])]
        noise = [rng.uniform(-0.1, 0.1, d) for d in (xb.shape[1], yb.shape[1])]

        def objective(tape, mu_x_val, mu_y_val):
            mu_x, mu_y = tape.leaf(mu_x_val, trainable=True), tape.leaf(mu_y_val, trainable=True)
            z_x, z_y = (tape.hard_sigmoid(tape.add(leaf, tape.constant(e)))
                        for leaf, e in zip((mu_x, mu_y), noise))
            loss, _, _, _ = _objective(tape, xb, yb, z_x, z_y, mu_x, mu_y, cfg, bws)
            return loss, mu_x, mu_y

        def own_loss(which, mu_x_val, mu_y_val):
            if mode == "shared":
                return float(objective(Tape(), mu_x_val, mu_y_val)[0].value)
            _, lx, ly, _, _ = coupled_differential(pair, cfg, mu_x_val, mu_y_val, *noise, *bws)
            return float((lx, ly)[which].value)

        h, want = 1e-6, []
        for which, base in enumerate(mu):
            fd = np.empty_like(base)
            for i in range(base.size):
                ends = []
                for step in (h, -h):
                    args = [m.copy() for m in mu]
                    args[which][i] += step
                    ends.append(own_loss(which, *args))
                fd[i] = (ends[0] - ends[1]) / (2 * h)
            want.append(fd)
        tape = None
        for _ in range(3):
            tape = Tape(reuse=tape)
            loss, mu_x, mu_y = objective(tape, *mu)
            grads = tape.backward(loss)
            for leaf, fd in zip((mu_x, mu_y), want):
                np.testing.assert_allclose(grads[leaf.idx], fd, rtol=1e-5, atol=1e-8)


# Short runs of both modes on the gaussian presets (n=260, large enough for BLAS
# to split work across threads); saves each mode's mu and top-k selections to argv[1].
_THREADED_RUN = """
import sys
from dataclasses import replace
import numpy as np
from mmdufs.bench import DIFFERENTIAL_HYPERPARAMS, SHARED_HYPERPARAMS
from mmdufs.datagen import gen_gaussian_mixture
from mmdufs.gates import select_features
from mmdufs.trainer import train
pair = gen_gaussian_mixture(0)
saved = {}
for mode, table in (("shared", SHARED_HYPERPARAMS), ("differential", DIFFERENTIAL_HYPERPARAMS)):
    res = train(pair, replace(table["gaussian"], epochs=30))
    for key, gates, truth in zip("xy", (res.gates_x, res.gates_y), pair.truth(mode)):
        saved[f"{mode}_mu_{key}"] = gates.mu
        saved[f"{mode}_sel_{key}"] = select_features(gates, "top-k", k=len(truth))
np.savez(sys.argv[1], **saved)
"""


class TestBlasThreadDeterminism:
    def test_one_and_two_threads_agree(self, tmp_path):
        """Equal top-k and |delta mu| <= 1e-12 at OPENBLAS_NUM_THREADS=1 and =2, in both modes."""
        src = str(Path(__file__).resolve().parent.parent / "src")
        runs = []
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
            env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
            out = tmp_path / f"threads{threads}.npz"
            subprocess.run(
                [sys.executable, "-c", _THREADED_RUN, str(out)], env=env, check=True, timeout=300
            )
            with np.load(out) as saved:
                runs.append(dict(saved))
        one, two = runs
        assert len(one) == 8 and one.keys() == two.keys()
        for key in one:
            if "_sel_" in key:
                np.testing.assert_array_equal(one[key], two[key], err_msg=key)
            else:
                np.testing.assert_allclose(one[key], two[key], rtol=0, atol=1e-12, err_msg=key)


class TestRunConfig:
    def test_validation(self):
        with pytest.raises(ContractError):
            RunConfig(mode="both")
        with pytest.raises(ContractError):
            RunConfig(epochs=0)
        with pytest.raises(ContractError):
            RunConfig(lambda_x=-1.0)
        with pytest.raises(ContractError):
            RunConfig(c=0.0)
        with pytest.raises(ContractError):
            RunConfig(learning_rate=0.0)
        with pytest.raises(ContractError):
            RunConfig(batch_size=1)
        with pytest.raises(ContractError):
            RunConfig(bandwidth_scale=0.0)
        # a float, bool or string count is a contract error, not a TypeError mid-run
        for field in ("seed", "epochs", "batch_size"):
            for value in ("7", 7.0, 2.5, True):
                with pytest.raises(ContractError, match=f"{field} must be an integer"):
                    RunConfig(**{field: value})
            assert getattr(RunConfig(**{field: np.int64(4)}), field) == 4

    @pytest.mark.parametrize(
        "field", ["lambda_x", "lambda_y", "c", "b", "learning_rate", "bandwidth_scale"]
    )
    def test_non_finite_hyperparameter(self, field):
        """nan and inf name the field, in either mode, before any epoch could run on them."""
        for mode in ("shared", "differential"):
            for value in (np.nan, np.inf, -np.inf, "0.1", True):
                with pytest.raises(ContractError, match=f"{field} must be a finite number"):
                    RunConfig(mode=mode, **{field: value})
        assert getattr(RunConfig(**{field: np.float64(0.5)}), field) == 0.5

    def test_readme_config_table_lists_every_field(self):
        """README's `train --config` table names each RunConfig field exactly once."""
        readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
        table = readme.split("| field | default | meaning |\n| --- | --- | --- |\n", 1)[1]
        rows = table.split("\n\n", 1)[0].splitlines()
        listed = [name for row in rows for name in re.findall(r"`(\w+)`", row.split("|")[1])]
        assert sorted(listed) == sorted(f.name for f in dataclasses.fields(RunConfig))

    def test_json_round_trip(self):
        cfg = RunConfig(mode="differential", lambda_x=0.4, epochs=7, seed=11)
        back = RunConfig(**json.loads(cfg.to_json()))  # as `train --config` reads it
        assert back == cfg


def no_epoch(gates):
    """Stands in for GateState.draw_noise where no epoch may start."""
    raise AssertionError("an epoch started")


class TestDegenerateInputs:
    """The outcomes the README's "Degenerate inputs" paragraph documents."""

    @pytest.mark.parametrize("mode", ["shared", "differential"])
    @pytest.mark.parametrize("case", ["n=2", "duplicate-rows"])
    def test_trains(self, mode, case):
        res = train(degenerate_pair(case), RunConfig(mode=mode, epochs=30))
        assert len(res.log) == 30
        assert all(np.isfinite(v) for row in res.log for v in row.values())
        assert np.isfinite(res.gates_x.mu).all() and np.isfinite(res.gates_y.mu).all()
        assert res.bandwidth_x > 0 and res.bandwidth_y > 0

    @pytest.mark.parametrize("mode", ["shared", "differential"])
    def test_every_gate_closed_returns_normally(self, mode):
        """At lambda 1e3 every gate closes, the score is 0 and the bandwidth is the fallback's."""
        cfg = RunConfig(mode=mode, epochs=30, lambda_x=1e3, lambda_y=1e3)
        res = train(gen_gaussian_mixture(0), cfg)
        last = res.log[-1]
        assert last["open_x"] == last["open_y"] == 0
        assert last["score_x"] == last["score_y"] == 0.0
        # all gated rows coincide, so median_bandwidth falls back to 1.0
        assert res.bandwidth_x == res.bandwidth_y == cfg.bandwidth_scale * 1.0


class TestTrain:
    def test_deterministic_logs(self):
        pair = tiny_pair(seed=1)
        cfg = RunConfig(epochs=5, learning_rate=0.5, seed=7)
        r1 = train(pair, cfg)
        r2 = train(pair, cfg)
        assert r1.log == r2.log
        np.testing.assert_array_equal(r1.gates_x.mu, r2.gates_x.mu)

    def test_seed_changes_trajectory(self):
        pair = tiny_pair(seed=1)
        r1 = train(pair, RunConfig(epochs=5, seed=0))
        r2 = train(pair, RunConfig(epochs=5, seed=1))
        assert not np.array_equal(r1.gates_x.mu, r2.gates_x.mu)

    def test_minibatch(self):
        pair = tiny_pair(seed=2, n=20)
        cfg = RunConfig(epochs=4, batch_size=10, learning_rate=0.1)
        res = train(pair, cfg)
        assert len(res.log) == 4

    def test_batch_size_too_large(self, monkeypatch):
        """An oversized batch fails before the first epoch draws gate noise."""
        monkeypatch.setattr(GateState, "draw_noise", no_epoch)
        pair = tiny_pair(n=8)
        with pytest.raises(ContractError, match="exceeds sample count"):
            train(pair, RunConfig(epochs=1, batch_size=9))

    @pytest.mark.parametrize("mode", ["shared", "differential"])
    def test_constant_modality_rejected(self, mode, monkeypatch):
        """A modality whose every column is constant fails before the first epoch."""
        pair = tiny_pair(seed=2)
        with monkeypatch.context() as patch:
            patch.setattr(GateState, "draw_noise", no_epoch)
            const = ModalPair(x=pair.x, y=np.full_like(pair.y, 0.1))
            with pytest.raises(ContractError, match="modality y"):
                train(const, RunConfig(mode=mode, epochs=1))
            const = ModalPair(x=np.tile(pair.x[:1], (pair.n_samples, 1)), y=pair.y)
            with pytest.raises(ContractError, match="modality x"):
                train(const, RunConfig(mode=mode, epochs=1))
        # one constant column among varying ones still trains
        x = pair.x.copy()
        x[:, 0] = 3.0
        assert len(train(ModalPair(x=x, y=pair.y), RunConfig(mode=mode, epochs=1)).log) == 1

    def test_f1_logged_with_ground_truth(self):
        pair = tiny_pair()
        res = train(pair, RunConfig(epochs=2), truth=([0, 1], [0]))
        assert "f1_x" in res.log[0] and "f1_y" in res.log[0]

    def test_f1_logged_only_for_a_present_truth_set(self):
        res = train(tiny_pair(), RunConfig(epochs=2), truth=([0, 1], None))
        assert all("f1_x" in r and "f1_y" not in r for r in res.log)
        assert all("f1_x" not in r for r in train(tiny_pair(), RunConfig(epochs=1)).log)

    def test_score_nondecreasing_without_regularizer(self):
        """With lam=0 and frozen bandwidth the score trend is upward."""
        ok = 0
        for seed in range(10):
            s = frozen_bandwidth_scores(gen_gaussian_mixture(seed=seed), seed, learning_rate=2.0)
            if s[-1] >= s[0]:
                ok += 1
        assert ok >= 9

    def test_monotone_sparsity_in_lambda(self):
        """10x larger lambda never yields more converged-open gates."""
        pair = tiny_pair(seed=5, n=16, dx=6, dy=5)
        opens = []
        for lam in (1e-4, 1e-3, 1e-2, 1e-1, 1e0, 1e1):
            cfg = RunConfig(epochs=60, learning_rate=1.0, lambda_x=lam, lambda_y=lam, seed=0)
            res = train(pair, cfg)
            opens.append(res.log[-1]["open_x"] + res.log[-1]["open_y"])
        assert all(a >= b for a, b in zip(opens, opens[1:]))

    def test_no_tape_left_for_the_cycle_collector(self):
        """Each epoch's tape is freed by reference counting alone: no Node <-> Tape cycle."""
        gc.collect()
        gc.disable()
        try:
            before = sum(isinstance(obj, Tape) for obj in gc.get_objects())
            train(tiny_pair(seed=3), RunConfig(epochs=3))
            after = sum(isinstance(obj, Tape) for obj in gc.get_objects())
        finally:
            gc.enable()
        assert after == before

    def test_overflowing_regularizer_raises_numerical_error(self):
        pair = tiny_pair()
        # a regularizer weight near the float64 ceiling overflows the loss on
        # the first epoch; the failure must surface as a typed error, not nan
        cfg = RunConfig(epochs=200, learning_rate=1.0, lambda_x=1e308, lambda_y=1e308)
        with pytest.raises(NumericalError, match="non-finite"):
            train(pair, cfg)

    def test_nonfinite_step_raises_diverged(self):
        """A step to infinite gates on the last epoch is an error, not a returned result."""
        cfg = RunConfig(mode="differential", epochs=1, learning_rate=1e308)
        with pytest.raises(TrainingDiverged) as info:
            train(tiny_pair(seed=0), cfg)
        assert info.value.epoch == 0 and info.value.last_record is None

    def test_overflowing_warmup_score_raises_numerical_error(self):
        """Warm-up scoring runs under train's errstate: an overflow is the tape's typed error."""
        pair = gen_gaussian_mixture(seed=0)
        cfg = RunConfig(mode="differential", epochs=2)
        result = train(pair, cfg)
        with pytest.raises(NumericalError, match="non-finite"):
            _eval_scores(pair, dataclasses.replace(cfg, b=1.7e308), result)


def tuning_pair(seed):
    """tiny_pair with truth sets of 3 (X) and 2 (Y) features: the sizes warm-up scores divide by."""
    p = tiny_pair(seed=seed)
    x3, y2 = np.arange(3), np.arange(2)
    return ModalPair(x=p.x, y=p.y, truth_shared_x=x3, truth_shared_y=y2,
                     truth_diff_x=x3, truth_diff_y=y2)


class TestRun:
    """run is train's epoch loop: stopping it after E epochs is train at E epochs."""

    @pytest.mark.parametrize("cfg", [
        RunConfig(mode="shared", learning_rate=0.5, lambda_x=0.05, seed=3),
        RunConfig(mode="shared", batch_size=10, learning_rate=0.5, seed=3),
        RunConfig(mode="differential", lambda_x=0.3, lambda_y=0.2, c=0.2, seed=3),
    ], ids=["shared", "shared-minibatch", "differential"])
    def test_prefix_of_run_is_train(self, cfg, monkeypatch):
        seen = []  # each epoch's bandwidths, as its own graphs resolved them

        def recording_graph_pair(*args, **kwargs):
            graphs = build_graph_pair(*args, **kwargs)
            seen.append((graphs.bandwidth_x, graphs.bandwidth_y))
            return graphs

        monkeypatch.setattr(trainer, "build_graph_pair", recording_graph_pair)
        pair = tiny_pair(seed=2, n=20)
        truth = ([0, 1], [2])
        epochs = run(pair, cfg, truth=truth)
        first = next(epochs)
        for e in range(1, 6):
            result = first if e == 1 else next(epochs)
            assert result is first  # one TrainResult, updated in place
            assert (result.bandwidth_x, result.bandwidth_y) == seen[-1]
            want = train(pair, dataclasses.replace(cfg, epochs=e), truth=truth)
            assert result.log == want.log and len(want.log) == e
            assert np.array_equal(result.gates_x.mu, want.gates_x.mu)
            assert np.array_equal(result.gates_y.mu, want.gates_y.mu)
            assert (result.bandwidth_x, result.bandwidth_y) == (want.bandwidth_x, want.bandwidth_y)


class TestWarmupTune:
    def test_returns_grid_member_and_records(self):
        pair = tuning_pair(seed=4)
        cfg = RunConfig(epochs=3)
        grid = [1e-4, 1e-2, 1e0]
        lx, ly, records = warmup_tune(pair, cfg, grid, warmup_epochs=3)
        assert lx in grid and ly in grid
        assert [r["lambda"] for r in records] == sorted(grid)
        assert all("score_shared" in r for r in records)

    def test_argmax_property(self):
        pair = tuning_pair(seed=4)
        lx, _, records = warmup_tune(pair, RunConfig(epochs=3), [1e-3, 1e-1], warmup_epochs=3)
        best = max(r["score_shared"] for r in records)
        chosen = next(r for r in records if r["lambda"] == lx)
        assert chosen["score_shared"] == best

    def test_tie_prefers_smaller_lambda(self, monkeypatch):
        """Equal scores at every grid value choose the smallest lambda, in any grid order."""
        monkeypatch.setattr(trainer, "_eval_scores", lambda pair, cfg, result: (1.0, 2.0))
        pair = tuning_pair(seed=4)
        for mode in ("shared", "differential"):
            lx, ly, records = warmup_tune(pair, RunConfig(mode=mode), [1e-2, 1e-4, 1e-3], 1)
            assert [r["lambda"] for r in records] == [1e-4, 1e-3, 1e-2]
            assert all(r == {**records[0], "lambda": r["lambda"]} for r in records)
            assert lx == ly == 1e-4

    def test_empty_grid(self):
        with pytest.raises(ContractError):
            warmup_tune(tiny_pair(), RunConfig(epochs=1), [])

    def test_non_finite_grid_value_fails_before_any_run(self, monkeypatch):
        monkeypatch.setattr(trainer, "train", lambda pair, cfg: pytest.fail("a grid run trained"))
        for bad in (np.nan, np.inf):
            with pytest.raises(ContractError, match="lambda_x must be a finite number"):
                warmup_tune(tiny_pair(), RunConfig(), [1e-4, 1e-3, bad], warmup_epochs=2)

    def test_differential_mode_separate_lambdas(self):
        pair = tuning_pair(seed=6)
        cfg = RunConfig(mode="differential", epochs=2)
        lx, ly, records = warmup_tune(pair, cfg, [1e-3, 1e-1], warmup_epochs=2)
        assert all("score_x" in r and "score_y" in r for r in records)


class TestEvalScores:
    """Warm-up scores against a plain-array oracle at the run's deterministic gates."""

    @pytest.mark.parametrize("mode", ["shared", "differential"])
    def test_match_plain_array_oracle(self, mode):
        pair = tiny_pair(seed=7, n=16, dx=6, dy=5)
        cfg = RunConfig(
            mode=mode, epochs=4, learning_rate=1.0, lambda_x=0.1, lambda_y=0.05,
            c=0.2, b=0.7, seed=3,
        )
        res = train(pair, cfg)
        z_x, z_y = res.gates_x.eval_gates(), res.gates_y.eval_gates()
        assert np.any((z_x > 0) & (z_x < 1) & (z_x != 0.5))  # the gates moved, not saturated
        x, y = unit_norm_columns(pair.x) * z_x, unit_norm_columns(pair.y) * z_y
        l_x = normalized_laplacian(gaussian_kernel(pairwise_sq_dists(x), res.bandwidth_x))
        l_y = normalized_laplacian(gaussian_kernel(pairwise_sq_dists(y), res.bandwidth_y))
        if mode == "shared":
            op_x = op_y = shared_operator_array(l_x, l_y, b=cfg.b)
        else:
            op_x = differential_operator_array(l_x, l_y, c=cfg.c, b=cfg.b)
            op_y = differential_operator_array(l_y, l_x, c=cfg.c, b=cfg.b)
        want = (np.trace(x.T @ op_x @ x), np.trace(y.T @ op_y @ y))
        got = _eval_scores(pair, cfg, res)
        np.testing.assert_allclose(got, want, rtol=1e-10, atol=0)


class TestUnitNormColumns:
    def test_columns_unit_norm(self):
        data = RNG.normal(size=(30, 4)) * 5 + 2
        u = unit_norm_columns(data)
        np.testing.assert_allclose(np.linalg.norm(u, axis=0), 1.0, atol=1e-12)
        np.testing.assert_allclose(u.mean(axis=0), 0.0, atol=1e-12)
