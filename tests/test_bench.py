"""Baselines, F1, and the experiment harness."""

import numpy as np
import pytest

from mmdufs import bench
from mmdufs.bench import (
    BASELINES,
    DATASET_PRESETS,
    DIFFERENTIAL_HYPERPARAMS,
    SHARED_HYPERPARAMS,
    baseline_select,
    format_report,
    mean_f1,
    run_experiment,
    write_rows_csv,
)
from mmdufs.datagen import ModalPair, gen_gaussian_mixture
from mmdufs.gates import f1
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
        from mmdufs.operators import score_all_features
        from mmdufs.tape import pairwise_sq_dists

        rng = np.random.default_rng(5)
        x = rng.normal(size=(40, 8))
        x[:20, :3] += 3.0  # a planted cluster
        pair = ModalPair(x=x, y=x.copy())
        d2 = pairwise_sq_dists(x)
        bw = BASELINE_BANDWIDTH_FACTOR * median_bandwidth(d2)
        l = normalized_laplacian(gaussian_kernel(d2, bw))
        base = np.argsort(-score_all_features(x, l, zscore=True), kind="stable")[:4]
        base_sq = np.argsort(-score_all_features(x, l @ l, zscore=True), kind="stable")[:4]
        ks = baseline_select(pair, "mmKS", 4, 4)
        kp = baseline_select(pair, "mmKP", 4, 4)
        assert set(ks.selected_x) == set(int(i) for i in base)
        assert set(kp.selected_x) == set(int(i) for i in base_sq)

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
        rows = run_experiment({"dataset": bad, "methods": ["MC"], "seeds": [0], "k_x": 1, "k_y": 1})
        assert len(rows) == 1
        assert "non-finite" in rows[0]["error"]
        assert rows[0]["f1_x"] is None and rows[0]["f1_y"] is None

    @pytest.mark.parametrize(
        "exc", [SingularMatrixError("singular"), ValueError("bad value"), ContractError("contract")]
    )
    def test_numerical_and_contract_failures_recorded(self, monkeypatch, exc):
        def failing(*args, **kwargs):
            raise exc

        monkeypatch.setattr(bench, "baseline_select", failing)
        pair = ModalPair(x=RNG.normal(size=(10, 3)), y=RNG.normal(size=(10, 2)))
        rows = run_experiment({"dataset": pair, "methods": ["MC", "mmKS"], "k_x": 1, "k_y": 1})
        assert [r["error"] for r in rows] == [str(exc)] * 2
        assert all(r["f1_x"] is None and r["wall_time"] is None for r in rows)

    def test_type_error_propagates(self):
        """A programming error is not a failed cell: a string epoch count breaks RunConfig."""
        with pytest.raises(TypeError):
            run_experiment({"dataset": "gaussian", "methods": ["mmDUFS"], "epochs": "3"})

    def test_callable_dataset(self):
        rows = run_experiment(
            {
                "dataset": lambda seed: gen_gaussian_mixture(seed),
                "name": "gm",
                "methods": ["mmKS"],
                "seeds": [0],
            }
        )
        assert rows[0]["dataset"] == "gm"


class TestReports:
    def test_csv_and_table(self, tmp_path):
        rows = run_experiment({"dataset": "gaussian", "methods": ["MC", "mmKS"], "seeds": [0]})
        out = tmp_path / "rows.csv"
        write_rows_csv(rows, out)
        text = out.read_text()
        assert text.splitlines()[0] == "dataset,method,seed,f1_x,f1_y,wall_time,error"
        assert len(text.splitlines()) == 3
        report = format_report(rows)
        assert "gaussian" in report and "MC" in report and "mmKS" in report
        assert "X" in report and "Y" in report
