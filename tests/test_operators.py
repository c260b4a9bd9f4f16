"""Shared and differential operators: block-model factorization oracles."""

import numpy as np
import pytest

from mmdufs.operators import (
    differential_operator,
    differential_operator_array,
    score_all_features,
    shared_operator,
    shared_operator_array,
    zscore_columns,
)
from mmdufs.graph import gaussian_kernel, normalized_laplacian
from mmdufs.tape import ContractError, DimensionError, Tape, eigh_descending, pairwise_sq_dists
from subspace import principal_angle_degrees, top_eigenspace

RNG = np.random.default_rng(42)


def block_laplacian(sizes):
    """Normalized Laplacian of an ideal block (all-ones within cluster) kernel.

    Returns (L, indicator basis): L equals sum of v v^T over the normalized
    cluster indicators, an exact projector.
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


def nested_block_pair():
    """Y has 3 clusters of 20; X splits the third cluster into 10 + 10.

    Shared indicator span V_s: the 3 coarse clusters. X-only span V_x: the
    within-split contrast directions.
    """
    l_y, v_y = block_laplacian([20, 20, 20])
    l_x, v_x_full = block_laplacian([20, 20, 10, 10])
    v_s = v_y
    # X-only directions: the component of the fine indicators orthogonal to V_s
    fine = v_x_full[:, 2:]
    proj = v_s @ (v_s.T @ fine)
    v_x = np.linalg.qr(fine - proj)[0][:, :1]  # one genuine contrast direction
    return l_x, l_y, v_s, v_x


class TestSharedOperator:
    def test_array_matches_tape(self):
        a = RNG.normal(size=(6, 6))
        b = RNG.normal(size=(6, 6))
        a, b = a + a.T, b + b.T
        t = Tape()
        node = shared_operator(t, t.constant(a), t.constant(b), b=2.5)
        np.testing.assert_allclose(
            0.5 * (node.value + node.value.T), shared_operator_array(a, b, b=2.5), atol=1e-12
        )

    def test_one_product_is_exactly_symmetric(self):
        """L_x L_y + (L_x L_y)^T: exactly symmetric, and L_x L_y + L_y L_x to rounding."""
        x, y = RNG.normal(size=(30, 4)), RNG.normal(size=(30, 3))
        l_x = normalized_laplacian(gaussian_kernel(pairwise_sq_dists(x), 1.2))
        l_y = normalized_laplacian(gaussian_kernel(pairwise_sq_dists(y), 0.8))
        t = Tape()
        p = shared_operator(t, t.constant(l_x), t.constant(l_y)).value
        assert np.array_equal(p, p.T)
        np.testing.assert_allclose(p, l_x @ l_y + l_y @ l_x, rtol=0, atol=1e-14)

    def test_scale_covariance(self):
        """Scaling both Laplacians by alpha scales the operator by alpha^2."""
        l_x, l_y, _, _ = nested_block_pair()
        p1 = shared_operator_array(l_x, l_y)
        p2 = shared_operator_array(3.0 * l_x, 3.0 * l_y)
        np.testing.assert_allclose(p2, 9.0 * p1, atol=1e-12)

    def test_b_does_not_change_ranking(self):
        l_x, l_y, _, _ = nested_block_pair()
        data = RNG.normal(size=(60, 8))
        s1 = score_all_features(data, shared_operator_array(l_x, l_y, b=1.0))
        s2 = score_all_features(data, shared_operator_array(l_x, l_y, b=50.0))
        np.testing.assert_array_equal(np.argsort(s1), np.argsort(s2))

    def test_ideal_clusters_top_eigenspace_is_shared_span(self):
        l_x, l_y, v_s, v_x = nested_block_pair()
        p = shared_operator_array(l_x, l_y)
        w, _ = eigh_descending(p)
        # shared directions carry eigenvalue 2, everything else far below
        np.testing.assert_allclose(w[:3], 2.0, atol=1e-10)
        assert w[3] < 1.5
        basis = top_eigenspace(p, 3)
        assert principal_angle_degrees(basis, v_s) < 5.0
        # X-only contrast has negligible projection onto the top eigenspace
        assert np.linalg.norm(basis.T @ v_x, 2) < 0.1

    def test_shape_mismatch(self):
        t = Tape()
        with pytest.raises(DimensionError):
            shared_operator(t, t.constant(np.eye(3)), t.constant(np.eye(4)))


class TestDifferentialOperator:
    def test_array_matches_tape(self):
        """b Tr[W^T A W], W = (B + cI)^{-1} X~, is <Q, X~X~^T> for the formed array Q."""
        a = RNG.normal(size=(5, 5))
        b = RNG.normal(size=(5, 5))
        a, b = a + a.T, 0.1 * (b @ b.T)  # B + cI must be positive definite
        x = RNG.normal(size=(5, 3))
        t = Tape()
        op = differential_operator(t, t.constant(a), t.constant(b), c=0.3, b=1.5)
        score = op.score(t, t.constant(x))
        q = differential_operator_array(a, b, c=0.3, b=1.5)
        np.testing.assert_allclose(float(score.value), np.vdot(q, x @ x.T), atol=1e-10)

    def test_symmetry(self):
        l_x, l_y, _, _ = nested_block_pair()
        q = differential_operator_array(l_x, l_y, c=0.1)
        assert np.abs(q - q.T).max() < 1e-8

    def test_ideal_clusters_eigenvalue_groups(self):
        """Eigenvalues cluster at c^-2 (X-only) and (1+c)^-2 (shared)."""
        l_x, l_y, v_s, v_x = nested_block_pair()
        c = 0.1
        q = differential_operator_array(l_x, l_y, c=c)
        w, _ = eigh_descending(q)
        n_x = v_x.shape[1]
        np.testing.assert_allclose(w[:n_x], c**-2, rtol=0.10)
        np.testing.assert_allclose(w[n_x : n_x + 3], (1 + c) ** -2, rtol=0.10)
        # ratio between the groups
        assert w[0] / w[n_x] == pytest.approx(c**-2 / (1 + c) ** -2, rel=0.10)
        # top eigenspace aligns with the X-only contrast directions
        basis = top_eigenspace(q, n_x)
        assert principal_angle_degrees(basis, v_x) < 5.0

    def test_c_validation(self):
        t = Tape()
        with pytest.raises(ContractError):
            differential_operator(t, t.constant(np.eye(3)), t.constant(np.eye(3)), c=0.0)
        with pytest.raises(ContractError):
            differential_operator_array(np.eye(3), np.eye(3), c=-1.0)


class TestScores:
    def test_generalized_score_quadratic_form(self):
        """One feature's score is f^T Op f; an operator of the wrong size is rejected."""
        op = RNG.normal(size=(7, 7))
        op = op + op.T
        f = RNG.normal(size=7)
        assert score_all_features(f[:, None], op)[0] == pytest.approx(f @ op @ f)
        with pytest.raises(DimensionError):
            score_all_features(np.ones((3, 1)), op)

    def test_score_all_features_matches_loop(self):
        data = RNG.normal(size=(10, 5))
        op = RNG.normal(size=(10, 10))
        op = op + op.T
        scores = score_all_features(data, op)
        expect = []
        for j in range(5):  # brute force f^T Op f
            f = data[:, j]
            expect.append(sum(f[a] * op[a, b] * f[b] for a in range(10) for b in range(10)))
        np.testing.assert_allclose(scores, expect, atol=1e-10)

    def test_zscore_option(self):
        """Scores of z-scored columns, as the baselines take them: with Op = I, n each."""
        data = RNG.normal(size=(10, 4)) * 7 + 3
        op = np.eye(10)
        z = zscore_columns(data)
        scores = score_all_features(z, op)
        np.testing.assert_allclose(scores, (z**2).sum(axis=0), atol=1e-10)
        np.testing.assert_allclose(scores, 10.0, rtol=1e-12)

    def test_zscore_columns(self):
        data = RNG.normal(size=(50, 3)) * [2.0, 0.5, 1.0] + [1.0, -3.0, 0.0]
        z = zscore_columns(data)
        np.testing.assert_allclose(z.mean(axis=0), 0.0, atol=1e-12)
        np.testing.assert_allclose(z.std(axis=0), 1.0, atol=1e-12)
        const = np.full((5, 1), 3.0)
        np.testing.assert_allclose(zscore_columns(const), 0.0)


class TestPrincipalAngles:
    def test_identical_spans(self):
        a = RNG.normal(size=(8, 3))
        rot = np.linalg.qr(RNG.normal(size=(3, 3)))[0]
        assert principal_angle_degrees(a, a @ rot) < 1e-6

    def test_orthogonal_spans(self):
        a = np.eye(6)[:, :2]
        b = np.eye(6)[:, 3:5]
        assert principal_angle_degrees(a, b) == pytest.approx(90.0)
