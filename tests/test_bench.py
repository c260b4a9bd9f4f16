"""Baselines, F1, and the experiment harness."""

import tracemalloc

import numpy as np
import pytest

from mmdufs import bench
from mmdufs.bench import (
    BASELINE_BANDWIDTH_FACTOR,
    BASELINES,
    DATASET_PRESETS,
    DIFFERENTIAL_HYPERPARAMS,
    ROW_FIELDS,
    SHARED_HYPERPARAMS,
    baseline_select,
    format_report,
    mean_f1,
    run_experiment,
    write_rows_csv,
)
from mmdufs.datagen import ModalPair, gen_gaussian_mixture, gen_tree
from mmdufs.gates import f1, top_k
from mmdufs.graph import data_laplacian
from mmdufs.operators import score_all_features, zscore_columns
from mmdufs.tape import ContractError, SingularMatrixError

RNG = np.random.default_rng(3)


class TestF1:
    def test_perfect_selection(self):
        assert f1([1, 2, 3], [3, 2, 1]) == 1.0

    def test_disjoint(self):
        assert f1([0, 1], [2, 3]) == 0.0

    def test_formula(self):
        # TP=2, FP=1, FN=2 -> 2*2/(4+1+2)
        assert f1([0, 1, 9], [0, 1, 2, 3]) == pytest.approx(4 / 7)

    def test_symmetric_under_relabeling(self):
        perm = {0: 5, 1: 9, 2: 0, 3: 2}
        a = f1([0, 1], [1, 2, 3])
        b = f1([perm[0], perm[1]], [perm[1], perm[2], perm[3]])
        assert a == b

    def test_order_invariant(self):
        assert f1([3, 1, 2], [2, 3]) == f1([1, 2, 3], [3, 2])

    def test_empty_truth_rejected(self):
        with pytest.raises(ContractError):
            f1([0], [])


class TestBaselineSelect:
    def test_unknown_method(self):
        pair = gen_gaussian_mixture(seed=0)
        with pytest.raises(ContractError):
            baseline_select(pair, "PCA", 5, 5)

    def test_returns_k_unique_in_range(self):
        pair = gen_gaussian_mixture(seed=0)
        for method in BASELINES:
            r = baseline_select(pair, method, 30, 20)
            assert len(r.selected_x) == 30 and len(set(r.selected_x)) == 30
            assert len(r.selected_y) == 20
            assert min(r.selected_x) >= 0 and max(r.selected_x) < 130
            assert 0.0 <= r.f1_x <= 1.0 and 0.0 <= r.f1_y <= 1.0

    def test_deterministic(self):
        pair = gen_gaussian_mixture(seed=1)
        a = baseline_select(pair, "mmKP", 10, 10)
        b = baseline_select(pair, "mmKP", 10, 10)
        assert a.selected_x == b.selected_x and a.selected_y == b.selected_y

    def test_k_equals_p(self):
        pair = gen_gaussian_mixture(seed=0)
        r = baseline_select(pair, "MC", 130, 90)
        assert r.selected_x == list(range(130))
        # F1 determined by truth size alone: TP=30, FP=100, FN=0
        assert r.f1_x == pytest.approx(60 / 160)

    def test_identical_modalities_rank_like_single_modality(self):
        """With Y = X, mmKS ~ 2L and mmKP ~ L^2 rank like the plain score."""
        from mmdufs.graph import gaussian_kernel, median_bandwidth, normalized_laplacian
        from mmdufs.bench import BASELINE_BANDWIDTH_FACTOR
        from mmdufs.operators import score_all_features, zscore_columns
        from mmdufs.tape import pairwise_sq_dists

        rng = np.random.default_rng(5)
        x = rng.normal(size=(40, 8))
        x[:20, :3] += 3.0  # a planted cluster
        pair = ModalPair(x=x, y=x.copy())
        d2 = pairwise_sq_dists(x)
        bw = BASELINE_BANDWIDTH_FACTOR * median_bandwidth(d2)
        l = normalized_laplacian(gaussian_kernel(d2, bw))
        z = zscore_columns(x)
        base = np.argsort(-score_all_features(z, l), kind="stable")[:4]
        base_sq = np.argsort(-score_all_features(z, l @ l), kind="stable")[:4]
        ks = baseline_select(pair, "mmKS", 4, 4)
        kp = baseline_select(pair, "mmKP", 4, 4)
        assert set(ks.selected_x) == set(int(i) for i in base)
        assert set(kp.selected_x) == set(int(i) for i in base_sq)

    @pytest.mark.parametrize("preset,seed", [("gaussian", 0), ("gaussian", 1), ("gaussian", 2),
                                             ("tree", 0)])
    def test_factored_scores_match_dense_operators(self, monkeypatch, preset, seed):
        """mmKS and mmKP rank by diag(Z^T (L_x + L_y) Z) and diag(Z^T L_x L_y Z), unformed."""
        pair = DATASET_PRESETS[preset](seed)
        ranked = []

        def capture(scores, k):
            ranked.append(np.array(scores))
            return top_k(scores, k)

        monkeypatch.setattr(bench, "top_k", capture)
        l_x = data_laplacian(pair.x, BASELINE_BANDWIDTH_FACTOR)
        l_y = data_laplacian(pair.y, BASELINE_BANDWIDTH_FACTOR)
        k_x, k_y = pair.selection_sizes("shared")
        for method, op in (("mmKS", l_x + l_y), ("mmKP", l_x @ l_y)):
            ranked.clear()
            res = baseline_select(pair, method, k_x, k_y)
            for data, got, k, selected in zip(
                (pair.x, pair.y), ranked, (k_x, k_y), (res.selected_x, res.selected_y)
            ):
                dense = score_all_features(zscore_columns(data), op)
                np.testing.assert_allclose(got, dense, rtol=1e-10)
                assert selected == top_k(dense, k)

    def test_truthless_pair_has_no_f1(self):
        pair = ModalPair(x=RNG.normal(size=(20, 4)), y=RNG.normal(size=(20, 3)))
        r = baseline_select(pair, "MC", 2, 2)
        assert r.f1_x is None and r.f1_y is None


class TestPresets:
    def test_dataset_presets_exist(self):
        assert set(DATASET_PRESETS) == {
            "gaussian", "gaussian+10", "gaussian+30", "gaussian+50", "tree",
        }
        for name in ("gaussian", "gaussian+50"):
            p = DATASET_PRESETS[name](0)
            assert p.n_samples == 260

    def test_hyperparameter_tables_cover_presets(self):
        assert set(SHARED_HYPERPARAMS) == set(DATASET_PRESETS)
        assert {"gaussian", "tree"} <= set(DIFFERENTIAL_HYPERPARAMS)
        for cfg in SHARED_HYPERPARAMS.values():
            assert cfg.mode == "shared"
        for cfg in DIFFERENTIAL_HYPERPARAMS.values():
            assert cfg.mode == "differential"


class TestRunExperiment:
    def test_baseline_grid(self):
        rows = run_experiment({"dataset": "gaussian", "methods": ["MC", "mmKP"], "seeds": [0, 1]})
        assert len(rows) == 4
        assert all(r["f1_x"] is not None for r in rows)
        means = mean_f1(rows)
        assert ("gaussian", "mmKP", "x") in means

    def test_differential_rows_score_against_differential_truth(self):
        """Baseline rows of a differential run take k and F1 from the differential truth."""
        rows = run_experiment(
            {"dataset": "gaussian", "methods": ["MC", "mmKP"], "mode": "differential", "seeds": [0]}
        )
        pair = gen_gaussian_mixture(0)
        for row in rows:
            res = baseline_select(pair, row["method"], 40, 40)
            assert row["f1_x"] == f1(res.selected_x, pair.truth_diff_x)
            assert row["f1_y"] == f1(res.selected_y, pair.truth_diff_y)

    def test_mmdufs_cell_with_overrides(self):
        rows = run_experiment(
            {"dataset": "gaussian", "methods": ["mmDUFS"], "seeds": [0], "epochs": 3}
        )
        assert len(rows) == 1 and rows[0]["f1_x"] is not None

    def test_unknown_preset(self):
        with pytest.raises(ContractError):
            run_experiment({"dataset": "mnist", "methods": ["MC"]})

    def test_failure_recorded_not_raised(self):
        x = RNG.normal(size=(5, 2))
        x[2, 1] = np.nan  # gaussian_kernel rejects non-finite input with NumericalError
        bad = ModalPair(x=x, y=RNG.normal(size=(5, 2)))
        rows = run_experiment({"dataset": bad, "methods": ["MC"], "seeds": [0]})
        assert len(rows) == 1
        assert "non-finite" in rows[0]["error"]
        assert rows[0]["f1_x"] is None and rows[0]["f1_y"] is None

    def test_nonfinite_y_recorded_on_every_baseline(self):
        """A NaN in Y fails MC, mmKS and mmKP alike; a failed shared build is not kept."""
        y = RNG.normal(size=(6, 2))
        y[3, 0] = np.nan
        bad = ModalPair(x=RNG.normal(size=(6, 3)), y=y)
        rows = run_experiment({"dataset": bad, "methods": list(BASELINES), "seeds": [0, 1]})
        assert [(r["seed"], r["method"]) for r in rows] == [
            (s, m) for s in (0, 1) for m in BASELINES
        ]
        for row in rows:
            assert "non-finite" in row["error"]
            assert row["f1_x"] is None and row["f1_y"] is None and row["wall_time"] is None

    def test_nonfinite_y_error_type_on_every_baseline(self):
        """A failed row keeps the exception's class name beside its message."""
        y = RNG.normal(size=(6, 2))
        y[1, 1] = np.nan
        bad = ModalPair(x=RNG.normal(size=(6, 3)), y=y)
        rows = run_experiment({"dataset": bad, "methods": list(BASELINES), "seeds": [0]})
        assert [r["error_type"] for r in rows] == ["NumericalError"] * len(BASELINES)

    def test_baselines_share_one_laplacian_per_modality(self, monkeypatch):
        """Per seed: one Laplacian for MC and one per modality for mmKS and mmKP together."""
        calls = []

        def counting(data, scale):
            calls.append(data.shape)
            return data_laplacian(data, scale)

        monkeypatch.setattr(bench, "data_laplacian", counting)
        run_experiment({"dataset": "gaussian", "methods": list(BASELINES), "seeds": [0, 1]})
        assert len(calls) == 6

    def test_shared_pieces_add_no_memory_peak(self):
        """Two seeds of baselines peak no higher than one standalone mmKS call.

        Nothing a seed builds outlives it, so the second seed's MC cell runs
        beside none of the first seed's arrays. The 1% covers the harness's
        rows and cache (a few kB); a kept Laplacian would add 8 MB (n = 1000).
        """
        pair = gen_tree(0)
        k_x, k_y = pair.selection_sizes("shared")
        spec = {"dataset": pair, "methods": list(BASELINES), "seeds": [0, 1]}

        def traced_peak(fn):
            tracemalloc.start()
            try:
                fn()
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        grid = traced_peak(lambda: run_experiment(spec))
        assert grid <= 1.01 * traced_peak(lambda: baseline_select(pair, "mmKS", k_x, k_y))

    @pytest.mark.parametrize(
        "exc", [SingularMatrixError("singular"), ValueError("bad value"), ContractError("contract")]
    )
    def test_numerical_and_contract_failures_recorded(self, monkeypatch, exc):
        def failing(*args, **kwargs):
            raise exc

        monkeypatch.setattr(bench, "baseline_select", failing)
        pair = ModalPair(x=RNG.normal(size=(10, 3)), y=RNG.normal(size=(10, 2)))
        rows = run_experiment({"dataset": pair, "methods": ["MC", "mmKS"]})
        assert [r["error"] for r in rows] == [str(exc)] * 2
        assert all(r["f1_x"] is None and r["wall_time"] is None for r in rows)

    def test_type_error_propagates(self, monkeypatch):
        """A programming error is not a failed cell; a non-integer epoch count is a contract one."""
        rows = run_experiment({"dataset": "gaussian", "methods": ["mmDUFS"], "epochs": "3"})
        assert [r["error_type"] for r in rows] == ["ContractError"]

        def broken_train(*args, **kwargs):
            raise TypeError("a bug in training")

        monkeypatch.setattr(bench, "train", broken_train)
        with pytest.raises(TypeError, match="a bug in training"):
            run_experiment({"dataset": "gaussian", "methods": ["mmDUFS"], "epochs": 1})

    def test_modal_pair_dataset_takes_name(self):
        """A ModalPair is used as given for every seed; its rows carry spec["name"]."""
        spec = {"dataset": gen_gaussian_mixture(0), "methods": ["mmKS"], "seeds": [0, 1]}
        rows = run_experiment({**spec, "name": "gm"})
        assert [r["dataset"] for r in rows] == ["gm", "gm"]
        assert rows[0]["f1_x"] == rows[1]["f1_x"] == run_experiment(
            {"dataset": "gaussian", "methods": ["mmKS"], "seeds": [0]})[0]["f1_x"]
        assert run_experiment(spec)[0]["dataset"] == "custom"


class TestReports:
    def test_csv_and_table(self, tmp_path):
        rows = run_experiment({"dataset": "gaussian", "methods": ["MC", "mmKS"], "seeds": [0]})
        out = tmp_path / "rows.csv"
        write_rows_csv(rows, out, ROW_FIELDS)
        text = out.read_text()
        assert text.splitlines()[0] == "dataset,method,seed,f1_x,f1_y,wall_time,error,error_type"
        assert len(text.splitlines()) == 3
        assert all(line.endswith(",,") for line in text.splitlines()[1:])  # no error
        write_rows_csv(rows, out)  # default header: the first row's keys
        assert out.read_text().splitlines()[0] == "dataset,method,seed,f1_x,f1_y,wall_time"
        report = format_report(rows)
        assert "gaussian" in report and "MC" in report and "mmKS" in report
        assert "X" in report and "Y" in report
