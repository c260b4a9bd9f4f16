"""Kernels, median bandwidth, and normalized Laplacians."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from memory import MIB, traced_peak

from mmdufs.datagen import gen_tree
from mmdufs.graph import (
    GraphPair,
    build_graph_pair,
    data_laplacian,
    gaussian_kernel,
    kernel_on_tape,
    median_bandwidth,
    normalized_laplacian,
)
from mmdufs.operators import shared_operator
from mmdufs.tape import ContractError, DimensionError, NumericalError, Tape, pairwise_sq_dists

RNG = np.random.default_rng(7)


class TestMedianBandwidth:
    def test_matches_brute_force(self):
        x = RNG.normal(size=(12, 4))
        dists = [
            np.linalg.norm(x[i] - x[j]) for i in range(12) for j in range(i + 1, 12)
        ]
        assert median_bandwidth(pairwise_sq_dists(x)) == pytest.approx(np.median(dists))

    def test_reads_brute_force_squared_distances(self):
        """Any symmetric squared-distance matrix works, not only pairwise_sq_dists's."""
        x = RNG.normal(size=(9, 3))
        d2 = np.array([[np.sum((a - b) ** 2) for b in x] for a in x])
        dists = [np.sqrt(d2[i, j]) for i in range(9) for j in range(i + 1, 9)]
        assert median_bandwidth(d2) == pytest.approx(np.median(dists), rel=1e-12)
        # only the strict upper triangle is read
        assert median_bandwidth(np.triu(d2, 1) + np.tril(np.full_like(d2, 1e3))) == (
            median_bandwidth(d2)
        )

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(2, 14), seed=st.integers(0, 2**32 - 1), repeats=st.booleans())
    def test_odd_and_even_counts_with_ties(self, n, seed, repeats):
        """Brute-force median over pairs i < j, with coincident rows and tied distances."""
        rng = np.random.default_rng(seed)
        x = rng.integers(-2, 3, size=(n, 2)).astype(float)
        if repeats:
            x[: n // 2] = x[0]
        d2 = np.array([[np.sum((a - b) ** 2) for b in x] for a in x])
        dists = [np.sqrt(d2[i, j]) for i in range(n) for j in range(i + 1, n) if d2[i, j] > 0]
        expect = float(np.median(dists)) if dists else 1.0
        assert median_bandwidth(d2) == pytest.approx(expect, rel=1e-15)

    def test_one_copy_of_the_upper_triangle(self):
        """One call holds at most 0.6 n^2 float64 at its peak: the n(n-1)/2 gathered
        distances, partitioned in place, and no n x n mask or second copy."""
        n = 260
        d2 = pairwise_sq_dists(RNG.normal(size=(n, 5)))
        peak = traced_peak(lambda: median_bandwidth(d2))
        assert peak <= 0.6 * n * n * 8, peak / (n * n * 8)

    def test_ignores_zero_distances(self):
        x = np.array([[0.0], [0.0], [3.0]])
        # nonzero pairwise distances: 3, 3 -> median 3
        assert median_bandwidth(pairwise_sq_dists(x)) == pytest.approx(3.0)

    def test_all_coincident_fallback(self):
        assert median_bandwidth(pairwise_sq_dists(np.zeros((4, 2)))) == 1.0

    def test_needs_two_rows(self):
        with pytest.raises(ContractError):
            median_bandwidth(pairwise_sq_dists(np.ones((1, 3))))

    def test_needs_square_matrix(self):
        with pytest.raises(DimensionError):
            median_bandwidth(np.ones((4, 3)))


def kernel(x, sigma):
    return gaussian_kernel(pairwise_sq_dists(x), sigma)


class TestGaussianKernel:
    def test_entries(self):
        x = RNG.normal(size=(8, 3))
        sigma = 1.3
        k = kernel(x, sigma)
        i, j = 2, 5
        expect = np.exp(-np.sum((x[i] - x[j]) ** 2) / (2 * sigma**2))
        assert k[i, j] == pytest.approx(expect)
        assert np.all(np.diag(k) == 1.0)

    def test_symmetric_and_bounded(self):
        k = kernel(RNG.normal(size=(10, 4)), 0.8)
        assert np.abs(k - k.T).max() == 0.0
        assert k.min() >= 0.0 and k.max() <= 1.0

    def test_input_validation(self):
        with pytest.raises(ContractError):
            kernel(RNG.normal(size=(5, 2)), 0.0)
        with pytest.raises(ContractError):
            kernel(RNG.normal(size=(1, 2)), 1.0)
        with pytest.raises(NumericalError):
            gaussian_kernel(np.array([[0.0, np.inf], [np.inf, 0.0]]), 1.0)
        with pytest.raises(DimensionError):
            gaussian_kernel(np.ones((4, 3)), 1.0)


class TestNormalizedLaplacian:
    def test_spectrum_in_unit_interval(self):
        for _ in range(5):
            k = kernel(RNG.normal(size=(15, 3)), 1.0)
            l = normalized_laplacian(k)
            w = np.linalg.eigvalsh(0.5 * (l + l.T))
            assert w.min() >= -1.0 - 1e-6 and w.max() <= 1.0 + 1e-6

    def test_top_eigenvalue_is_one_with_sqrt_degree_vector(self):
        k = kernel(RNG.normal(size=(12, 3)), 1.0)
        l = normalized_laplacian(k)
        d = np.sqrt(k.sum(axis=1))
        d /= np.linalg.norm(d)
        np.testing.assert_allclose(l @ d, d, atol=1e-10)

    def test_matches_explicit_sandwich(self):
        k = kernel(RNG.normal(size=(9, 2)), 0.7)
        dm = np.diag(1.0 / np.sqrt(k.sum(axis=1)))
        np.testing.assert_allclose(normalized_laplacian(k), dm @ k @ dm, atol=1e-12)

    def test_errors(self):
        with pytest.raises(DimensionError):
            normalized_laplacian(np.ones((2, 3)))
        with pytest.raises(ContractError):
            normalized_laplacian(-np.eye(3))


class TestDataLaplacian:
    def test_scaled_median_bandwidth(self):
        """scale x the median distance of the data itself, as a brute-force oracle."""
        x = RNG.normal(size=(10, 3))
        dists = [np.linalg.norm(x[i] - x[j]) for i in range(10) for j in range(i + 1, 10)]
        for scale in (1.0, 0.4):
            np.testing.assert_allclose(
                data_laplacian(x, scale),
                normalized_laplacian(kernel(x, scale * np.median(dists))),
                atol=1e-12,
            )

    def test_nonpositive_scale(self):
        with pytest.raises(ContractError):
            data_laplacian(RNG.normal(size=(6, 2)), 0.0)

    @pytest.mark.parametrize("n", [2, 9, 300])
    def test_in_place_build_is_the_composition(self, n):
        """Built in one buffer, L is bit for bit the composition of the public steps, and
        the data is not written; n = 300 ends the distances in a partial row block."""
        x = RNG.normal(size=(n, 4))
        before = x.copy()
        for scale in (1.0, 0.3):
            d2 = pairwise_sq_dists(x)
            expect = normalized_laplacian(gaussian_kernel(d2, scale * median_bandwidth(d2)))
            np.testing.assert_array_equal(data_laplacian(x, scale), expect)
        np.testing.assert_array_equal(x, before)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_nonfinite_data(self, bad):
        x = RNG.normal(size=(6, 2))
        x[2, 1] = bad
        with pytest.raises(NumericalError):
            data_laplacian(x, 1.0)

    def test_one_n_by_n_buffer(self):
        """On the tree pair (n = 1000, n^2 float64 = 7.63 MiB), d2, K and L share the Gram
        matrix's buffer: the peak is that buffer plus the median's upper-triangle copy, where
        three separate n x n arrays would read 23 MiB."""
        x = gen_tree(0).x
        peak = traced_peak(lambda: data_laplacian(x, 0.3))
        assert peak <= 12 * MIB, peak / MIB


class TestOnTape:
    @pytest.mark.parametrize("n", [2, 8, 300])
    def test_sq_dists_match_array(self, n):
        """pairwise_sq_dists, written over its Gram matrix a row block at a time (n = 300
        ends in a partial block), is the tape's d2 and the one-shot formula bit for bit."""
        x = RNG.normal(size=(n, 3))
        before = x.copy()
        t = Tape()
        on_tape = t.sq_dists(t.gram(t.constant(x))).value
        g = x @ x.T
        sq = np.diag(g)
        one_shot = np.maximum(sq[:, None] + sq[None, :] - g - g, 0.0)
        np.fill_diagonal(one_shot, 0.0)
        d2 = pairwise_sq_dists(x)
        np.testing.assert_array_equal(d2, on_tape)
        np.testing.assert_array_equal(d2, one_shot)
        np.testing.assert_array_equal(x, before)

    def test_kernel_on_tape_matches_array(self):
        x = RNG.normal(size=(8, 3))
        t = Tape()
        node = kernel_on_tape(t, t.sq_dists(t.gram(t.constant(x))), 1.1)
        np.testing.assert_array_equal(node.value, kernel(x, 1.1))

    def test_laplacian_on_tape_matches_array(self):
        x = RNG.normal(size=(8, 3))
        t = Tape()
        node = t.sym_normalize(kernel_on_tape(t, t.sq_dists(t.gram(t.constant(x))), 0.9))
        np.testing.assert_array_equal(node.value, normalized_laplacian(kernel(x, 0.9)))

    def test_gradient_reaches_gates(self):
        """d||L||_F^2/dz nonzero for gates on varying features."""
        x = RNG.normal(size=(7, 3))
        t = Tape()
        z = t.leaf(np.full(3, 0.5), trainable=True)
        gated = t.col_gate(x, z)
        l = build_graph_pair(t, gated, gated, 1.0, bandwidth_x=1.0, bandwidth_y=1.0).l_x
        g = t.grad(t.inner(l, l), z)
        assert np.any(g != 0.0)

    def test_build_graph_pair(self):
        x, y = RNG.normal(size=(10, 4)), RNG.normal(size=(10, 3))
        t = Tape()
        gp = build_graph_pair(t, t.constant(x), t.constant(y), 0.5)
        assert isinstance(gp, GraphPair)
        assert gp.bandwidth_x == 0.5 * median_bandwidth(pairwise_sq_dists(x))
        assert gp.bandwidth_y == 0.5 * median_bandwidth(pairwise_sq_dists(y))
        l_x, l_y = data_laplacian(x, 0.5), data_laplacian(y, 0.5)
        np.testing.assert_array_equal(gp.l_x.value, l_x)
        np.testing.assert_array_equal(gp.l_y.value, l_y)
        np.testing.assert_array_equal(gp.gram_x.value, x @ x.T)
        np.testing.assert_array_equal(gp.gram_y.value, y @ y.T)
        # the tape's M is the plain-array product, bit for bit
        assert np.array_equal(shared_operator(t, gp.l_x, gp.l_y).m.value, l_x @ l_y)

    def test_build_graph_pair_frozen_bandwidth(self):
        x, y = RNG.normal(size=(8, 3)), RNG.normal(size=(8, 2))
        t = Tape()
        gp = build_graph_pair(
            t, t.constant(x), t.constant(y), 0.4, bandwidth_x=2.0, bandwidth_y=3.0
        )
        # frozen bandwidths ignore the scale
        assert gp.bandwidth_x == 2.0 and gp.bandwidth_y == 3.0
        np.testing.assert_allclose(gp.l_y.value, normalized_laplacian(kernel(y, 3.0)), atol=1e-12)

    def test_row_count_mismatch(self):
        t = Tape()
        with pytest.raises(DimensionError):
            build_graph_pair(
                t,
                t.constant(RNG.normal(size=(5, 2))),
                t.constant(RNG.normal(size=(6, 2))),
                1.0,
            )
