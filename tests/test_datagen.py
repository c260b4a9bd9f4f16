"""Synthetic generators, ingestion, and persistence."""

import numpy as np
import pytest

from mmdufs.datagen import (
    IngestionError,
    ModalPair,
    gen_cube,
    gen_gaussian_mixture,
    gen_tree,
    ingest,
    load_pair,
    save_pair,
)
from mmdufs.operators import zscore_columns
from mmdufs.tape import ContractError


class TestModalPair:
    def test_row_count_mismatch(self):
        with pytest.raises(IngestionError):
            ModalPair(x=np.zeros((3, 2)), y=np.zeros((4, 2)))

    def test_truth_cast_to_int(self):
        p = ModalPair(x=np.zeros((3, 2)), y=np.zeros((3, 2)), truth_shared_x=[0.0, 1.0])
        assert p.truth_shared_x.dtype == np.int64

    @pytest.mark.parametrize(
        "name, truth",
        [
            ("truth_shared_x", []),
            ("truth_shared_x", [0, 0, 1]),
            ("truth_diff_x", [-1, 2]),
            ("truth_diff_x", [0, 3]),
            ("truth_shared_y", [2]),  # Y has two columns, X three
        ],
    )
    def test_bad_truth_indices(self, name, truth):
        with pytest.raises(IngestionError, match=name):
            ModalPair(x=np.zeros((3, 3)), y=np.zeros((3, 2)), **{name: truth})

    @pytest.mark.parametrize(
        "truths, mode, expect, sizes",
        [
            ({"truth_shared_x": [0, 2], "truth_shared_y": [1]}, "shared", ([0, 2], [1]), (2, 1)),
            ({"truth_diff_x": [1], "truth_diff_y": [0, 1]}, "differential", ([1], [0, 1]), (1, 2)),
            # the other mode's truth is not used; a missing set falls back to the width
            ({"truth_shared_x": [0]}, "differential", (None, None), (4, 3)),
            ({"truth_diff_y": [2]}, "differential", (None, [2]), (4, 1)),
        ],
    )
    def test_truth_and_selection_sizes(self, truths, mode, expect, sizes):
        p = ModalPair(x=np.zeros((3, 4)), y=np.zeros((3, 3)), **truths)
        got = p.truth(mode)
        assert [None if t is None else list(t) for t in got] == list(expect)
        assert p.selection_sizes(mode) == sizes

    def test_unknown_truth_mode(self):
        with pytest.raises(ContractError, match="both"):
            ModalPair(x=np.zeros((3, 2)), y=np.zeros((3, 2))).truth("both")


class TestGaussianMixture:
    def test_shapes_and_truth_sets(self):
        p = gen_gaussian_mixture(seed=0)
        assert p.x.shape == (260, 130) and p.y.shape == (260, 90)
        assert list(p.truth_shared_x) == list(range(30))
        assert list(p.truth_shared_y) == list(range(20))
        assert list(p.truth_diff_x) == list(range(30, 70))
        assert list(p.truth_diff_y) == list(range(20, 60))

    def test_extra_noise_features(self):
        p = gen_gaussian_mixture(seed=0, extra_noise_features=50)
        assert p.x.shape == (260, 180) and p.y.shape == (260, 140)

    def test_deterministic(self):
        a, b = gen_gaussian_mixture(seed=4), gen_gaussian_mixture(seed=4)
        np.testing.assert_array_equal(a.x, b.x)
        np.testing.assert_array_equal(a.y, b.y)
        c = gen_gaussian_mixture(seed=5)
        assert not np.array_equal(a.x, c.x)

    def test_informative_cluster_means_in_range(self):
        """Within-cluster means of informative columns are in [2,4] +- sampling error."""
        p = gen_gaussian_mixture(seed=2)
        rows_c1 = np.flatnonzero(p.labels == 0)
        m = p.x[rows_c1, :20].mean(axis=0)
        tol = 3.0 / np.sqrt(rows_c1.size)
        assert np.all(m > 2.0 - tol) and np.all(m < 4.0 + tol)
        # noise columns stay centered
        assert abs(p.x[:, 70:].mean()) < 0.05

    def test_kernel_block_structure(self):
        """Within-cluster kernel means dominate between-cluster means 3x."""
        from mmdufs.graph import gaussian_kernel, median_bandwidth
        from mmdufs.tape import pairwise_sq_dists

        p = gen_gaussian_mixture(seed=0)
        d2 = pairwise_sq_dists(p.x)
        k = gaussian_kernel(d2, 0.3 * median_bandwidth(d2))
        a = np.flatnonzero(p.labels == 0)
        b = np.flatnonzero(p.labels == 1)
        within = k[np.ix_(a, a)].mean()
        between = k[np.ix_(a, b)].mean()
        assert within > 3.0 * between

    def test_modality_specific_partitions_uncorrelated(self):
        """Cluster-3 membership carries no information about cluster 4."""
        for seed in range(5):
            p = gen_gaussian_mixture(seed=seed)
            rest = np.flatnonzero(p.labels == 2)
            c3 = np.zeros(260, dtype=bool)
            c4 = np.zeros(260, dtype=bool)
            # recover memberships from the informative feature blocks
            c3[p.x[:, 30:70].mean(axis=1) > 1.0] = True
            c4[p.y[:, 20:60].mean(axis=1) > 1.0] = True
            assert c3.sum() == 65 and c4.sum() == 65
            assert not np.any(c3[~np.isin(np.arange(260), rest)])
            overlap = np.count_nonzero(c3 & c4)
            assert overlap == round(65 * 65 / 130)


class TestTree:
    def test_shapes_and_truth(self):
        p = gen_tree(seed=0)
        assert p.x.shape == (1000, 300) and p.y.shape == (1000, 300)
        assert list(p.truth_shared_x) == list(range(50))
        assert list(p.truth_diff_x) == list(range(50, 100))
        assert p.labels is not None and set(np.unique(p.labels)) == set(range(6))
        assert p.latent.shape == (1000, 2)

    def test_deterministic(self):
        a, b = gen_tree(seed=1), gen_tree(seed=1)
        np.testing.assert_array_equal(a.x, b.x)

    def test_differential_block_separates_groups(self):
        """The differential block is low in G1 (X) / G3 (Y), high elsewhere."""
        p = gen_tree(seed=0)
        g1 = p.labels == 0
        block = p.x[:, 50:100]
        assert block[g1].mean() < block[~g1].mean() - 0.5
        g3 = p.labels == 2
        blocky = p.y[:, 50:100]
        assert blocky[g3].mean() < blocky[~g3].mean() - 0.5

    def test_informative_columns_standardized(self):
        p = gen_tree(seed=0)
        cols = p.x[:, :100]
        np.testing.assert_allclose(cols.mean(axis=0), 0.0, atol=1e-8)
        np.testing.assert_allclose(cols.std(axis=0), 1.0, atol=1e-8)


class TestCube:
    def test_shapes_and_latent(self):
        p = gen_cube(seed=0, n=500)
        assert p.x.shape == (500, 2) and p.y.shape == (500, 2)
        # first column of both modalities is the shared coordinate
        np.testing.assert_array_equal(p.x[:, 0], p.latent[:, 0])
        np.testing.assert_array_equal(p.y[:, 0], p.latent[:, 0])
        np.testing.assert_array_equal(p.x[:, 1], p.latent[:, 2])
        np.testing.assert_array_equal(p.y[:, 1], p.latent[:, 1])

    def test_side_lengths(self):
        p = gen_cube(seed=3, n=2000, l_s=2.0, l_a=0.5, l_b=1.0)
        assert p.latent[:, 0].max() <= 2.0 and p.latent[:, 0].max() > 1.9
        assert p.latent[:, 1].max() <= 0.5 and p.latent[:, 2].max() <= 1.0

    def test_minimum_size(self):
        with pytest.raises(ValueError):
            gen_cube(n=5)


class TestIngest:
    def test_round_trip_matrices(self, tmp_path):
        rng = np.random.default_rng(0)
        x, y = rng.normal(size=(6, 3)), rng.normal(size=(6, 2))
        px, py = tmp_path / "x.csv", tmp_path / "y.csv"
        np.savetxt(px, x, delimiter=",", fmt="%.17g")
        np.savetxt(py, y, delimiter=",", fmt="%.17g")
        p = ingest(px, py)
        np.testing.assert_array_equal(p.x, x)
        np.testing.assert_array_equal(p.y, y)

    def test_header_skipped(self, tmp_path):
        px = tmp_path / "x.csv"
        px.write_text("a,b\n1,2\n3,4\n")
        py = tmp_path / "y.csv"
        py.write_text("1\n2\n")
        p = ingest(px, py)
        np.testing.assert_array_equal(p.x, [[1, 2], [3, 4]])

    def test_errors(self, tmp_path):
        px, py = tmp_path / "x.csv", tmp_path / "y.csv"
        px.write_text("1,2\n3\n")
        py.write_text("1\n2\n")
        with pytest.raises(IngestionError):
            ingest(px, py)
        px.write_text("1,2\n3,oops\n")
        with pytest.raises(IngestionError):
            ingest(px, py)
        px.write_text("")
        with pytest.raises(IngestionError):
            ingest(px, py)
        px.write_text("1,2\n3,4\n")
        py.write_text("1\n")
        with pytest.raises(IngestionError):
            ingest(px, py)

    def test_truth_files_and_zscore(self, tmp_path):
        px, py, pt = tmp_path / "x.csv", tmp_path / "y.csv", tmp_path / "t.csv"
        px.write_text("1,2\n3,4\n5,0\n")
        py.write_text("1\n2\n3\n")
        pt.write_text("0\n1\n")
        p = ingest(px, py, truth_shared_x=pt)
        assert list(p.truth_shared_x) == [0, 1]
        np.testing.assert_array_equal(p.x, [[1, 2], [3, 4], [5, 0]])  # raw values
        np.testing.assert_allclose(zscore_columns(p.x).mean(axis=0), 0.0, atol=1e-12)

    def test_bad_truth_file(self, tmp_path):
        px, py, pt = tmp_path / "x.csv", tmp_path / "y.csv", tmp_path / "t.csv"
        px.write_text("1\n")
        py.write_text("1\n")
        pt.write_text("zero\n")
        with pytest.raises(IngestionError):
            ingest(px, py, truth_shared_x=pt)


class TestSaveLoad:
    def test_full_round_trip(self, tmp_path):
        p = gen_gaussian_mixture(seed=6)
        save_pair(p, tmp_path / "d")
        back = load_pair(tmp_path / "d")
        np.testing.assert_array_equal(back.x, p.x)
        np.testing.assert_array_equal(back.y, p.y)
        np.testing.assert_array_equal(back.truth_shared_x, p.truth_shared_x)
        np.testing.assert_array_equal(back.truth_diff_y, p.truth_diff_y)
        np.testing.assert_array_equal(back.labels, p.labels)
        assert back.meta["generator"] == "gaussian_mixture"

    def test_cube_round_trip_keeps_latent(self, tmp_path):
        p = gen_cube(seed=0, n=50)
        save_pair(p, tmp_path / "c")
        back = load_pair(tmp_path / "c")
        np.testing.assert_array_equal(back.latent, p.latent)
        assert back.truth_shared_x is None

    @pytest.mark.parametrize("text", ["", "0\n0\n1\n", "-1\n", "0\n130\n"])
    def test_load_rejects_bad_truth_indices(self, tmp_path, text):
        save_pair(gen_gaussian_mixture(seed=0), tmp_path / "d")
        (tmp_path / "d" / "truth_diff_x.csv").write_text(text)
        with pytest.raises(IngestionError, match="truth_diff_x"):
            load_pair(tmp_path / "d")
