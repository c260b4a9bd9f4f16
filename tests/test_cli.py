"""CLI: artifact layout, exit codes, overwrite guard, seed handling."""

import csv
import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

from mmdufs import cli
from mmdufs.bench import SHARED_HYPERPARAMS, write_rows_csv
from mmdufs.cli import main
from mmdufs.datagen import ModalPair, gen_gaussian_mixture, load_pair, save_pair
from mmdufs.gates import f1, select_features
from mmdufs.trainer import train, warmup_tune


# A negative seed from --seed and from MMDUFS_SEED: (extra args, environment, message).
NEGATIVE_SEEDS = [
    pytest.param(["--seed", "-1"], {}, "-1 is not in the range x>=0", id="option"),
    pytest.param([], {"MMDUFS_SEED": "-3"}, "MMDUFS_SEED must be a non-negative integer, got '-3'",
                 id="env"),
]


@pytest.fixture
def runner():
    return CliRunner()


@pytest.fixture
def dataset(tmp_path, runner):
    d = tmp_path / "data"
    res = runner.invoke(main, ["generate", "--preset", "gaussian", "--out", str(d), "--seed", "0"])
    assert res.exit_code == 0, res.output
    return d


def write_config(tmp_path, **kw):
    from mmdufs.trainer import RunConfig

    base = dict(mode="shared", epochs=3, learning_rate=1.0, bandwidth_scale=0.4)
    base.update(kw)
    p = tmp_path / "config.json"
    p.write_text(RunConfig(**base).to_json())
    return p


class TestGenerate:
    def test_writes_dataset(self, dataset):
        pair = load_pair(dataset)
        assert pair.x.shape == (260, 130)
        assert (dataset / "manifest.json").exists()

    def test_overwrite_guard(self, runner, dataset):
        res = runner.invoke(main, ["generate", "--preset", "gaussian", "--out", str(dataset)])
        assert res.exit_code == 2
        assert "force" in res.output
        res = runner.invoke(
            main, ["generate", "--preset", "gaussian", "--out", str(dataset), "--force"]
        )
        assert res.exit_code == 0

    def test_force_replaces_every_dataset_file(self, runner, dataset):
        """--force leaves no file of the replaced dataset: a cube has no truth or labels."""
        res = runner.invoke(
            main, ["generate", "--preset", "cube", "--out", str(dataset), "--force"]
        )
        assert res.exit_code == 0, res.output
        pair = load_pair(dataset)
        assert pair.x.shape == (1000, 2)
        assert pair.truth("shared") == pair.truth("differential") == (None, None)
        assert pair.labels is None
        res = runner.invoke(main, ["baseline", "--data", str(dataset), "--method", "MC"])
        assert res.exit_code == 0, res.output

    def test_unknown_preset(self, runner, tmp_path):
        res = runner.invoke(main, ["generate", "--preset", "imagenet", "--out", str(tmp_path / "d")])
        assert res.exit_code == 2

    def test_cube_preset(self, runner, tmp_path):
        d = tmp_path / "cube"
        res = runner.invoke(main, ["generate", "--preset", "cube", "--out", str(d)])
        assert res.exit_code == 0
        assert load_pair(d).latent is not None

    def test_env_seed(self, runner, tmp_path):
        d1, d2 = tmp_path / "a", tmp_path / "b"
        r1 = runner.invoke(main, ["generate", "--preset", "gaussian", "--out", str(d1)],
                           env={"MMDUFS_SEED": "7"})
        r2 = runner.invoke(main, ["generate", "--preset", "gaussian", "--out", str(d2), "--seed", "7"])
        assert r1.exit_code == 0 and r2.exit_code == 0
        np.testing.assert_array_equal(load_pair(d1).x, load_pair(d2).x)

    def test_bad_env_seed(self, runner, tmp_path):
        res = runner.invoke(main, ["generate", "--preset", "gaussian", "--out", str(tmp_path / "d")],
                            env={"MMDUFS_SEED": "seven"})
        assert res.exit_code == 2


@pytest.mark.parametrize("command", ["generate", "train", "tune", "reproduce"])
@pytest.mark.parametrize("args, env, message", NEGATIVE_SEEDS)
def test_negative_seed_exits_2_before_any_write(runner, dataset, tmp_path, command, args, env,
                                                message):
    head = {"generate": ["generate", "--preset", "gaussian"],
            "train": ["train", "--data", str(dataset), "--epochs", "1"],
            "tune": ["tune", "--data", str(dataset)],
            "reproduce": ["reproduce", "cube-figure"]}[command]
    out = tmp_path / "out"
    res = runner.invoke(main, [*head, "--out", str(out), *args], env=env)
    assert res.exit_code == 2, res.output
    assert message in res.output
    assert not out.exists()


@pytest.mark.parametrize("command", ["train", "tune"])
@pytest.mark.parametrize("case", ["batch", "constant"])
def test_pair_the_config_cannot_train_exits_2_before_any_write(runner, dataset, tmp_path,
                                                                command, case):
    """A batch larger than the sample count, or a constant modality, fails before --out exists."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"epochs": 1, "batch_size": 1000 if case == "batch" else None}))
    data = dataset
    if case == "constant":
        pair = load_pair(dataset)
        data = tmp_path / "const"
        save_pair(ModalPair(x=pair.x, y=np.ones_like(pair.y)), data)
    extra = ["--grid", "1e-4", "--warmup-epochs", "1"] if command == "tune" else []
    out = tmp_path / "out"
    res = runner.invoke(main, [command, "--data", str(data), "--config", str(cfg),
                               "--out", str(out), *extra])
    assert res.exit_code == 2, res.output
    message = {"batch": "batch size 1000 exceeds sample count 260",
               "constant": "modality y is constant"}[case]
    assert message in res.output
    assert not out.exists()


class TestTrain:
    def test_artifacts(self, runner, dataset, tmp_path):
        cfg = write_config(tmp_path)
        out = tmp_path / "run"
        res = runner.invoke(main, ["train", "--data", str(dataset), "--config", str(cfg),
                                   "--out", str(out), "--seed", "0"])
        assert res.exit_code == 0, res.output
        for name in ("gates_x.csv", "gates_y.csv", "train_log.csv",
                     "selection.json", "run_manifest.json"):
            assert (out / name).exists()
        sel = json.loads((out / "selection.json").read_text())
        assert len(sel["x"]) == 30 and len(sel["y"]) == 20
        log = (out / "train_log.csv").read_text().splitlines()
        assert len(log) == 1 + 3  # header + 3 epochs

    def test_epochs_zero_config_is_usage_error(self, runner, dataset, tmp_path):
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps({"mode": "shared", "epochs": 0}))
        res = runner.invoke(main, ["train", "--data", str(dataset), "--config", str(cfg),
                                   "--out", str(tmp_path / "run")])
        assert res.exit_code == 2
        assert "epochs" in res.output

    @pytest.mark.parametrize(
        "field",
        ["normalize_laplacian", "optimizer", "recompute_bandwidth", "log_every", "sigma_gate"],
    )
    def test_removed_config_field_is_usage_error(self, runner, dataset, tmp_path, field):
        cfg = tmp_path / "old.json"
        cfg.write_text(json.dumps({"mode": "shared", "epochs": 1, field: True}))
        res = runner.invoke(main, ["train", "--data", str(dataset), "--config", str(cfg),
                                   "--out", str(tmp_path / "run")])
        assert res.exit_code == 2
        assert field in res.output

    def test_diverged_run_exits_1_without_gates(self, runner, tmp_path):
        """A step to infinite gates fails with exit 1 and leaves no gates file."""
        rng = np.random.default_rng(0)
        data = tmp_path / "tiny"
        save_pair(ModalPair(x=rng.normal(size=(14, 5)), y=rng.normal(size=(14, 4))), data)
        cfg = write_config(tmp_path, mode="differential", epochs=1, learning_rate=1e308)
        out = tmp_path / "run"
        res = runner.invoke(main, ["train", "--data", str(data), "--config", str(cfg),
                                   "--out", str(out)])
        assert res.exit_code == 1, res.output
        assert "non-finite gates" in res.output
        assert not (out / "gates_x.csv").exists() and not (out / "gates_y.csv").exists()

    def test_converged_gates_reach_selection_json(self, runner, dataset, tmp_path):
        """A large step saturates gates within three epochs; their indices are JSON ints."""
        cfg = write_config(tmp_path, learning_rate=200.0, epochs=3)
        out = tmp_path / "run"
        res = runner.invoke(main, ["train", "--data", str(dataset), "--config", str(cfg),
                                   "--out", str(out), "--seed", "0"])
        assert res.exit_code == 0, res.output
        sel = json.loads((out / "selection.json").read_text())
        assert sel["converged_x"] and sel["converged_y"]
        assert (out / "run_manifest.json").exists()
        res = runner.invoke(main, ["select", "--gates", str(out / "gates_x.csv"),
                                   "--policy", "converged"])
        assert res.exit_code == 0, res.output
        assert json.loads(res.output)["selected"] == sel["converged_x"]

    def test_bad_truth_file_is_usage_error(self, runner, dataset, tmp_path):
        """Empty, duplicate, negative or out-of-range truth indices fail ingestion (exit 2)."""
        sel = tmp_path / "sel.json"
        sel.write_text(json.dumps({"x": list(range(30)), "y": list(range(20))}))
        for bad in ("", "0\n0\n1\n", "-1\n2\n", "0\n130\n"):
            (dataset / "truth_shared_x.csv").write_text(bad)
            res = runner.invoke(main, ["train", "--data", str(dataset), "--out",
                                       str(tmp_path / "run"), "--epochs", "1", "--force"])
            assert res.exit_code == 2, res.output
            assert "truth_shared_x" in res.output
            res = runner.invoke(main, ["evaluate", "--selection", str(sel), "--data", str(dataset)])
            assert res.exit_code == 2, res.output

    def test_seed_precedence(self, runner, dataset, tmp_path):
        """--seed, then the config file's seed, then MMDUFS_SEED, then 0."""
        with_seed = write_config(tmp_path, epochs=1, seed=7)
        no_seed = tmp_path / "no_seed.json"
        no_seed.write_text(json.dumps({"mode": "shared", "epochs": 1}))
        cases = [
            (with_seed, ["--seed", "3"], "5", 3),
            (with_seed, [], "5", 7),
            (with_seed, [], None, 7),
            (no_seed, [], "5", 5),
            (no_seed, [], None, 0),
            (None, ["--epochs", "1"], "5", 5),
            (None, ["--epochs", "1", "--seed", "2"], "5", 2),
        ]
        for i, (cfg, extra, env_seed, expect) in enumerate(cases):
            out = tmp_path / f"run{i}"
            args = ["train", "--data", str(dataset), "--out", str(out), *extra]
            if cfg is not None:
                args += ["--config", str(cfg)]
            res = runner.invoke(main, args, env={"MMDUFS_SEED": env_seed})
            assert res.exit_code == 0, res.output
            manifest = json.loads((out / "run_manifest.json").read_text())
            assert manifest["seed"] == expect, (i, manifest["seed"])

    @pytest.mark.parametrize("fields", [
        {"epochs": 2.5}, {"epochs": True}, {"batch_size": 100.0, "epochs": 2},
    ], ids=["float-epochs", "bool-epochs", "float-batch"])
    def test_non_integer_config_count_is_usage_error(self, runner, dataset, tmp_path, fields):
        cfg = tmp_path / "bad_count.json"
        cfg.write_text(json.dumps(fields))
        out = tmp_path / "run"
        res = runner.invoke(main, ["train", "--data", str(dataset), "--config", str(cfg),
                                   "--out", str(out)])
        assert res.exit_code == 2, res.output
        assert "must be an integer" in res.output
        assert not (out / "train_log.csv").exists()

    @pytest.mark.parametrize("value", ["NaN", "Infinity"])
    def test_non_finite_config_value_is_usage_error(self, runner, dataset, tmp_path, value):
        """json reads NaN and Infinity; a non-finite hyperparameter exits 2 before training."""
        cfg = tmp_path / "non_finite.json"
        cfg.write_text('{"lambda_x": %s, "epochs": 2}' % value)
        out = tmp_path / "run"
        res = runner.invoke(main, ["train", "--data", str(dataset), "--config", str(cfg),
                                   "--out", str(out)])
        assert res.exit_code == 2, res.output
        assert "lambda_x must be a finite number" in res.output
        assert not (out / "train_log.csv").exists()

    def test_non_integer_config_seed_is_usage_error(self, runner, dataset, tmp_path):
        cfg = tmp_path / "bad_seed.json"
        cfg.write_text(json.dumps({"mode": "shared", "epochs": 1, "seed": "7"}))
        res = runner.invoke(main, ["train", "--data", str(dataset), "--config", str(cfg),
                                   "--out", str(tmp_path / "run")])
        assert res.exit_code == 2
        assert "seed" in res.output

    def test_negative_config_seed_is_usage_error_before_any_write(self, runner, dataset,
                                                                  tmp_path):
        cfg = tmp_path / "bad_seed.json"
        cfg.write_text(json.dumps({"mode": "shared", "epochs": 1, "seed": -1}))
        out = tmp_path / "run"
        res = runner.invoke(main, ["train", "--data", str(dataset), "--config", str(cfg),
                                   "--out", str(out)])
        assert res.exit_code == 2, res.output
        assert "seed must be >= 0, got -1" in res.output
        assert not out.exists()

    def test_constant_modality_is_usage_error(self, runner, dataset, tmp_path):
        pair = load_pair(dataset)
        const = tmp_path / "const"
        save_pair(ModalPair(x=pair.x, y=np.ones_like(pair.y)), const)
        out = tmp_path / "run"
        res = runner.invoke(main, ["train", "--data", str(const), "--out", str(out),
                                   "--epochs", "1"])
        assert res.exit_code == 2
        assert "modality y is constant" in res.output
        assert not out.exists()

    @pytest.mark.parametrize("mode", ["shared", "differential"])
    def test_degenerate_inputs_exit_0(self, runner, dataset, tmp_path, mode):
        """n = 2 and repeated rows train, and so does lambda 1e3, which closes every gate."""
        rng = np.random.default_rng(3)
        pairs = {"n2": ModalPair(x=rng.normal(size=(2, 3)), y=rng.normal(size=(2, 2))),
                 "dup": ModalPair(x=np.tile(rng.normal(size=(5, 4)), (2, 1)),
                                  y=np.tile(rng.normal(size=(5, 3)), (2, 1)))}
        for name, pair in pairs.items():
            save_pair(pair, tmp_path / name)
            res = runner.invoke(main, ["train", "--data", str(tmp_path / name), "--mode", mode,
                                       "--epochs", "30", "--out", str(tmp_path / f"run_{name}")])
            assert res.exit_code == 0, (name, res.output)
        cfg = write_config(tmp_path, mode=mode, epochs=30, lambda_x=1e3, lambda_y=1e3)
        out = tmp_path / "closed"
        res = runner.invoke(main, ["train", "--data", str(dataset), "--config", str(cfg),
                                   "--out", str(out)])
        assert res.exit_code == 0, res.output
        with open(out / "train_log.csv", newline="") as fh:
            last = list(csv.DictReader(fh))[-1]
        assert last["open_x"] == last["open_y"] == "0"
        assert float(last["score_x"]) == float(last["score_y"]) == 0.0

    def test_missing_data(self, runner, tmp_path):
        res = runner.invoke(main, ["train", "--data", str(tmp_path / "nope"),
                                   "--out", str(tmp_path / "run")])
        assert res.exit_code == 2

    def test_overwrite_guard(self, runner, dataset, tmp_path):
        cfg = write_config(tmp_path, epochs=1)
        out = tmp_path / "run"
        args = ["train", "--data", str(dataset), "--config", str(cfg), "--out", str(out)]
        assert runner.invoke(main, args).exit_code == 0
        assert runner.invoke(main, args).exit_code == 2
        assert runner.invoke(main, args + ["--force"]).exit_code == 0

    def test_overwrite_guard_covers_manifest(self, runner, dataset, tmp_path):
        """An old run_manifest.json alone still needs --force."""
        cfg = write_config(tmp_path, epochs=1)
        out = tmp_path / "run"
        out.mkdir()
        manifest = out / "run_manifest.json"
        manifest.write_bytes(b'{"old": true}')
        res = runner.invoke(main, ["train", "--data", str(dataset), "--config", str(cfg),
                                   "--out", str(out)])
        assert res.exit_code == 2, res.output
        assert "run_manifest.json" in res.output
        assert manifest.read_bytes() == b'{"old": true}'

    def test_determinism_bit_identical(self, runner, dataset, tmp_path):
        cfg = write_config(tmp_path, epochs=3)
        outs = []
        for name in ("r1", "r2"):
            out = tmp_path / name
            res = runner.invoke(main, ["train", "--data", str(dataset), "--config", str(cfg),
                                       "--out", str(out), "--seed", "5"])
            assert res.exit_code == 0
            outs.append(out)
        for name in ("gates_x.csv", "gates_y.csv", "train_log.csv"):
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()


class TestSelectEvaluate:
    def test_select_and_evaluate_round_trip(self, runner, dataset, tmp_path):
        cfg = write_config(tmp_path, epochs=2)
        out = tmp_path / "run"
        assert runner.invoke(main, ["train", "--data", str(dataset), "--config", str(cfg),
                                    "--out", str(out)]).exit_code == 0
        sel_path = tmp_path / "sel.json"
        res = runner.invoke(main, ["select", "--gates", str(out / "gates_x.csv"),
                                   "--policy", "top-k", "--k", "30", "--out", str(sel_path)])
        assert res.exit_code == 0
        sel = json.loads(sel_path.read_text())
        assert len(sel["selected"]) == 30

        # evaluate needs x/y keys
        eval_sel = tmp_path / "eval_sel.json"
        eval_sel.write_text(json.dumps({"x": sel["selected"], "y": list(range(20))}))
        res = runner.invoke(main, ["evaluate", "--selection", str(eval_sel),
                                   "--data", str(dataset)])
        assert res.exit_code == 0
        rows = json.loads(res.output)
        assert {r["modality"] for r in rows} == {"x", "y"}

    def test_evaluate_perfect_selection(self, runner, dataset, tmp_path):
        sel = tmp_path / "sel.json"
        sel.write_text(json.dumps({"x": list(range(30)), "y": list(range(20))}))
        res = runner.invoke(main, ["evaluate", "--selection", str(sel), "--data", str(dataset)])
        assert res.exit_code == 0
        rows = json.loads(res.output)
        assert all(r["f1"] == 1.0 for r in rows)

    def test_select_missing_file(self, runner, tmp_path):
        res = runner.invoke(main, ["select", "--gates", str(tmp_path / "none.csv")])
        assert res.exit_code == 2

    def test_select_bad_k(self, runner, dataset, tmp_path):
        cfg = write_config(tmp_path, epochs=1)
        out = tmp_path / "run"
        runner.invoke(main, ["train", "--data", str(dataset), "--config", str(cfg),
                             "--out", str(out)])
        res = runner.invoke(main, ["select", "--gates", str(out / "gates_x.csv"),
                                   "--policy", "top-k", "--k", "100000"])
        assert res.exit_code == 2

    def test_select_converged_with_k_is_usage_error(self, runner, dataset, tmp_path):
        """converged takes every gate at 1, so a --k it would ignore is a usage error."""
        cfg = write_config(tmp_path, epochs=1)
        out = tmp_path / "run"
        runner.invoke(main, ["train", "--data", str(dataset), "--config", str(cfg),
                             "--out", str(out)])
        sel = tmp_path / "sel.json"
        res = runner.invoke(main, ["select", "--gates", str(out / "gates_x.csv"),
                                   "--policy", "converged", "--k", "3", "--out", str(sel)])
        assert res.exit_code == 2, res.output
        assert "--k applies to --policy top-k only" in res.output
        assert not sel.exists()
        res = runner.invoke(main, ["select", "--gates", str(out / "gates_x.csv"),
                                   "--policy", "converged"])
        assert res.exit_code == 0, res.output
        assert json.loads(res.output)["k"] is None


class TestBaseline:
    def test_baseline_json(self, runner, dataset):
        res = runner.invoke(main, ["baseline", "--data", str(dataset), "--method", "mmKP"])
        assert res.exit_code == 0
        payload = json.loads(res.output)
        assert payload["method"] == "mmKP"
        assert len(payload["selected_x"]) == 30  # defaults to truth size
        assert 0.0 <= payload["f1_x"] <= 1.0

    def test_unknown_method(self, runner, dataset):
        res = runner.invoke(main, ["baseline", "--data", str(dataset), "--method", "LDA"])
        assert res.exit_code == 2


class TestTune:
    def test_small_grid(self, runner, dataset, tmp_path):
        cfg = write_config(tmp_path, epochs=2)
        out = tmp_path / "tune"
        res = runner.invoke(main, ["tune", "--data", str(dataset), "--config", str(cfg),
                                   "--out", str(out), "--grid", "1e-4,1e-2",
                                   "--warmup-epochs", "2"])
        assert res.exit_code == 0, res.output
        chosen = json.loads((out / "chosen_lambda.json").read_text())
        assert chosen["lambda_x"] in (1e-4, 1e-2)
        grid_lines = (out / "lambda_grid.csv").read_text().splitlines()
        assert len(grid_lines) == 3

    def test_bad_grid(self, runner, dataset, tmp_path):
        """A bad grid or warm-up epoch count exits 2 before --out is created."""
        cases = [["--grid", "abc"], ["--grid=-1,0.1"], ["--grid", ","], ["--warmup-epochs", "0"]]
        for i, args in enumerate(cases):
            out = tmp_path / f"t{i}"
            res = runner.invoke(main, ["tune", "--data", str(dataset), "--out", str(out), *args])
            assert res.exit_code == 2, (args, res.output)
            assert not out.exists(), args


class TestReproduce:
    def test_cube_figure(self, runner, tmp_path):
        out = tmp_path / "cube"
        res = runner.invoke(main, ["reproduce", "cube-figure", "--out", str(out), "--seed", "0"])
        assert res.exit_code == 0, res.output
        assert (out / "cube_figure.csv").exists()
        r2 = (out / "cube_r2.csv").read_text().splitlines()
        assert r2[0] == "operator,mode,r_squared"
        assert len(r2) == 7  # header + 3 modes x 2 operators

    def test_gaussian_table_smoke(self, runner, tmp_path):
        out = tmp_path / "table"
        res = runner.invoke(main, ["reproduce", "gaussian-table", "--out", str(out),
                                   "--epochs", "2", "--jobs", "1"])
        assert res.exit_code == 0, res.output
        lines = (out / "gaussian_table.csv").read_text().splitlines()
        # 4 datasets x 4 methods x 3 seeds + header
        assert len(lines) == 49
        assert (out / "gaussian_table.txt").exists()

    @pytest.mark.parametrize("epochs", [9, 4])
    def test_lambda_grid_matches_two_run_oracle(self, runner, tmp_path, monkeypatch, epochs):
        """One run per lambda writes what a warm-up sweep, then a train from scratch, would."""
        grid, warmup = (1e-4, 1e-2, 1.0), 6
        monkeypatch.setattr(cli, "LAMBDA_GRID", grid)
        monkeypatch.setattr(cli, "WARMUP_EPOCHS", warmup)
        out = tmp_path / "lambda"
        res = runner.invoke(main, ["reproduce", "lambda-grid", "--out", str(out), "--seed", "1",
                                   "--epochs", str(epochs)])
        assert res.exit_code == 0, res.output

        pair = gen_gaussian_mixture(1)
        cfg = dataclasses.replace(SHARED_HYPERPARAMS["gaussian"], seed=1)
        lam_x, _, records = warmup_tune(pair, cfg, grid, warmup_epochs=min(warmup, epochs))
        rows = []
        for rec in records:
            lam = rec["lambda"]
            lam_cfg = dataclasses.replace(cfg, lambda_x=lam, lambda_y=lam, epochs=epochs)
            result = train(pair, lam_cfg)
            f1s = {f"f1_{m}": f1(select_features(gates, "top-k", k=len(truth)), truth)
                   for m, gates, truth in zip("xy", (result.gates_x, result.gates_y),
                                              pair.truth("shared"))}
            rows.append({**rec, **f1s, "chosen": lam == lam_x})
        write_rows_csv(rows, tmp_path / "oracle.csv")
        assert (out / "lambda_grid.csv").read_bytes() == (tmp_path / "oracle.csv").read_bytes()

    def test_lambda_grid_parallel_matches_serial(self, runner, tmp_path, monkeypatch):
        """The lambda runs on 2 workers write the serial lambda_grid.csv bytes."""
        monkeypatch.setattr(cli, "LAMBDA_GRID", (1e-4, 1e-2, 1.0))
        monkeypatch.setattr(cli, "WARMUP_EPOCHS", 3)
        grids = {}
        for jobs in ("1", "2"):
            out = tmp_path / f"jobs{jobs}"
            res = runner.invoke(main, ["reproduce", "lambda-grid", "--out", str(out),
                                       "--seed", "0", "--epochs", "5", "--jobs", jobs])
            assert res.exit_code == 0, res.output
            grids[jobs] = (out / "lambda_grid.csv").read_bytes()
        assert len(grids["1"].splitlines()) == 4
        assert grids["2"] == grids["1"]

    def test_lambda_grid_zero_epochs_exits_2_untrained(self, runner, tmp_path, monkeypatch):
        runs = []
        monkeypatch.setattr(cli, "run", lambda *args, **kwargs: runs.append(args))
        out = tmp_path / "lambda"
        res = runner.invoke(main, ["reproduce", "lambda-grid", "--out", str(out),
                                   "--epochs", "0"])
        assert res.exit_code == 2, res.output
        assert "epochs" in res.output
        assert runs == [] and not (out / "lambda_grid.csv").exists()

    def test_table_zero_epochs_exits_2_before_any_work(self, runner, tmp_path, monkeypatch):
        cells = []
        monkeypatch.setattr(cli, "run_experiment", lambda spec: cells.append(spec))
        out = tmp_path / "tree"
        res = runner.invoke(main, ["reproduce", "tree-table", "--out", str(out),
                                   "--epochs", "0", "--jobs", "1"])
        assert res.exit_code == 2, res.output
        assert "epochs" in res.output
        assert cells == [] and not (out / "tree_table.csv").exists()

    @pytest.mark.parametrize("jobs", ["0", "-2"])
    def test_table_jobs_below_one_exits_2_before_any_work(self, runner, tmp_path, monkeypatch,
                                                           jobs):
        cells = []
        monkeypatch.setattr(cli, "run_experiment", lambda spec: cells.append(spec))
        out = tmp_path / "tree"
        res = runner.invoke(main, ["reproduce", "tree-table", "--out", str(out),
                                   "--epochs", "1", "--jobs", jobs])
        assert res.exit_code == 2, res.output
        assert "jobs" in res.output
        assert cells == [] and not (out / "tree_table.csv").exists()

    @pytest.mark.parametrize("target, name", [("cube-figure", "cube_r2.csv"),
                                              ("gaussian-table", "gaussian_table.txt")])
    def test_every_artifact_is_guarded(self, runner, tmp_path, monkeypatch, target, name):
        """An existing artifact other than <stem>.csv stops the target too, before any work,
        and stays as it was."""
        cells = []
        monkeypatch.setattr(cli, "run_experiment", lambda spec: cells.append(spec) or [])
        out = tmp_path / "out"
        out.mkdir()
        (out / name).write_text("kept\n")
        res = runner.invoke(main, ["reproduce", target, "--out", str(out), "--seed", "0",
                                   "--epochs", "1", "--jobs", "1"])
        assert res.exit_code == 2, res.output
        assert name in res.output
        assert cells == [] and [p.name for p in out.iterdir()] == [name]
        assert (out / name).read_text() == "kept\n"

    def test_unknown_target(self, runner, tmp_path):
        res = runner.invoke(main, ["reproduce", "mnist-figure", "--out", str(tmp_path / "o")])
        assert res.exit_code == 2

    def test_parallel_cells_match_serial_rows(self, runner, tmp_path):
        """(dataset, seed) cells on 2 workers give the serial rows in the serial order."""
        tables = {}
        for jobs in ("1", "2"):
            out = tmp_path / f"jobs{jobs}"
            res = runner.invoke(main, ["reproduce", "gaussian-table", "--out", str(out),
                                       "--seed", "0", "--epochs", "2", "--jobs", jobs])
            assert res.exit_code == 0, res.output
            with open(out / "gaussian_table.csv", newline="") as fh:
                rows = [{k: v for k, v in r.items() if k != "wall_time"}
                        for r in csv.DictReader(fh)]
            tables[jobs] = rows, (out / "gaussian_table.txt").read_bytes()
        serial_rows = tables["1"][0]
        assert [(r["dataset"], r["seed"], r["method"]) for r in serial_rows] == [
            (ds, str(s), m)
            for ds in ("gaussian", "gaussian+10", "gaussian+30", "gaussian+50")
            for s in (0, 1, 2)
            for m in ("MC", "mmKS", "mmKP", "mmDUFS")
        ]
        assert tables["2"] == tables["1"]


def _empty_gates(tmp_path):
    (tmp_path / "gates.csv").write_text("")
    return ["select", "--gates", str(tmp_path / "gates.csv")]


def _one_column_gates(tmp_path):
    (tmp_path / "gates.csv").write_text("0.25\n0.5\n")
    return ["select", "--gates", str(tmp_path / "gates.csv")]


def _truncated_gates(tmp_path):
    (tmp_path / "gates.csv").write_text("feature,mu,eval_gate\n0,0.25,0.75\n1\n")
    return ["select", "--gates", str(tmp_path / "gates.csv")]


def _nan_gate(tmp_path):
    (tmp_path / "gates.csv").write_text("feature,mu,eval_gate\n0,nan,0.5\n1,0.2,0.7\n")
    return ["select", "--gates", str(tmp_path / "gates.csv"), "--k", "1"]


def _evaluate(selection):
    """Setup that evaluates selection against a dataset of 3 X and 2 Y features."""
    def setup(tmp_path):
        rng = np.random.default_rng(0)
        save_pair(ModalPair(x=rng.normal(size=(6, 3)), y=rng.normal(size=(6, 2)),
                            truth_shared_x=np.array([0]), truth_shared_y=np.array([1])),
                  tmp_path / "data")
        (tmp_path / "sel.json").write_text(json.dumps(selection))
        return ["evaluate", "--selection", str(tmp_path / "sel.json"),
                "--data", str(tmp_path / "data")]
    return setup


def _selection_not_json(tmp_path):
    args = _evaluate({})(tmp_path)
    (tmp_path / "sel.json").write_text("{x")
    return args


def _short_labels(tmp_path):
    args = _evaluate({"x": [0], "y": [1]})(tmp_path)
    (tmp_path / "data" / "labels.csv").write_text("0\n1\n2\n")
    return args


def _bad_cell_in_first_row(tmp_path):
    data = tmp_path / "data"
    data.mkdir()
    (data / "X.csv").write_text("1,oops\n3,4\n5,6\n")
    (data / "Y.csv").write_text("1\n2\n3\n")
    return ["baseline", "--data", str(data), "--method", "MC"]


def _nan_in_x(tmp_path):
    data = tmp_path / "data"
    data.mkdir()
    (data / "X.csv").write_text("1,2\n3,nan\n5,7\n2,2\n")
    (data / "Y.csv").write_text("1\n2\n3\n5\n")
    return ["train", "--data", str(data), "--out", str(tmp_path / "run"), "--epochs", "1"]


def _missing(*args):
    """Setup that writes evaluate's dataset and selection, then runs args with tmp_path/
    prefixed to each file name in them; "nope" names no file."""
    def setup(tmp_path):
        _evaluate({"x": [0], "y": [1]})(tmp_path)
        return [str(tmp_path / a) if a in ("nope", "run", "data", "sel.json") else a for a in args]
    return setup


def _dataset_without_manifest(tmp_path):
    data = tmp_path / "data"
    data.mkdir()
    (data / "X.csv").write_bytes(b"1,2\n")
    return ["generate", "--preset", "gaussian", "--out", str(data), "--seed", "0"]


@pytest.mark.parametrize("setup, message", [
    pytest.param(_empty_gates, "gates.csv: no data rows", id="empty-gates"),
    pytest.param(_one_column_gates, "gates.csv: expected", id="one-column-gates"),
    pytest.param(_truncated_gates, "gates.csv:3", id="truncated-gates"),
    pytest.param(_nan_gate, "gates.csv:2: non-finite", id="nan-gate"),
    pytest.param(_evaluate({"x": 5, "y": [1]}), "'x' must be a list", id="selection-not-a-list"),
    pytest.param(_evaluate({"x": [True, False], "y": [0]}), "'x' must be a list",
                 id="boolean-index"),
    pytest.param(_evaluate({"x": [0, 3], "y": [0]}), "sel.json: 'x' has indices outside [0, 3)",
                 id="index-past-width"),
    pytest.param(_evaluate({"x": [0], "y": [-1]}), "sel.json: 'y' has indices outside [0, 2)",
                 id="negative-index"),
    pytest.param(_evaluate({"x": [0, 0, 0, 1], "y": [0]}), "sel.json: 'x' has duplicate indices",
                 id="repeated-index"),
    pytest.param(_evaluate({"x": [0, 2**70], "y": [0]}), "sel.json: 'x' has indices outside",
                 id="huge-index"),
    pytest.param(_evaluate({}), "nothing to evaluate", id="no-matching-entry"),
    pytest.param(_short_labels, "labels has shape (3,), expected 6 rows", id="short-labels"),
    pytest.param(_selection_not_json, "sel.json: Expecting property name", id="selection-not-json"),
    pytest.param(_missing("train", "--data", "nope", "--out", "run"), "/nope/X.csv",
                 id="missing-data-train"),
    pytest.param(_missing("tune", "--data", "nope", "--out", "run"), "/nope/X.csv",
                 id="missing-data-tune"),
    pytest.param(_missing("baseline", "--data", "nope", "--method", "MC"), "/nope/X.csv",
                 id="missing-data-baseline"),
    pytest.param(_missing("evaluate", "--selection", "sel.json", "--data", "nope"),
                 "/nope/X.csv", id="missing-data-evaluate"),
    pytest.param(_missing("evaluate", "--selection", "nope", "--data", "data"), "/nope'",
                 id="missing-selection"),
    pytest.param(_missing("select", "--gates", "nope"), "/nope'", id="missing-gates"),
    pytest.param(_bad_cell_in_first_row, "X.csv:1", id="bad-cell-in-first-row"),
    pytest.param(_nan_in_x, "X.csv:2: non-finite", id="nan-in-x"),
    pytest.param(_dataset_without_manifest, "X.csv", id="existing-x-csv"),
])
def test_malformed_input_and_overwrite_exit_2(runner, tmp_path, setup, message):
    """Missing or malformed gates, selection and CSV files, and an existing X.csv, are usage
    errors that name the file and leave every file as it was."""
    args = setup(tmp_path)

    def files():
        return {p: p.read_bytes() for p in tmp_path.rglob("*") if p.is_file()}

    before = files()
    res = runner.invoke(main, args)
    assert res.exit_code == 2, res.output
    assert isinstance(res.exception, SystemExit)
    assert message in res.output
    assert files() == before


class TestImport:
    """What each kind of run loads, each checked in a fresh interpreter."""

    @staticmethod
    def loaded_after(code):
        """The modules of a fresh interpreter after it runs code, one name per line."""
        src = str(Path(__file__).resolve().parent.parent / "src")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        code += "\nimport sys; print('\\n'.join(sys.modules))"
        out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                             capture_output=True, text=True, timeout=120)
        return set(out.stdout.split())

    def test_scipy_stats_not_imported(self):
        """Importing the package stays clear of scipy.stats, which costs most of a second."""
        assert "scipy.stats" not in self.loaded_after("import mmdufs, mmdufs.cli")

    def test_import_loads_no_scipy(self):
        loaded = self.loaded_after("import mmdufs, mmdufs.cli")
        assert not {m for m in loaded if m.split(".")[0] == "scipy"}

    def test_shared_training_and_baselines_load_no_scipy(self):
        loaded = self.loaded_after(
            "from mmdufs import bench, datagen, trainer\n"
            "pair = datagen.gen_gaussian_mixture(0)\n"
            "trainer.train(pair, trainer.RunConfig(mode='shared', epochs=2))\n"
            "rows = bench.run_experiment({'dataset': pair, 'methods': list(bench.BASELINES)})\n"
            "assert all('error' not in r for r in rows), rows"
        )
        assert not {m for m in loaded if m.split(".")[0] == "scipy"}

    def test_differential_training_loads_no_scipy(self):
        """Tape.inverse is numpy's own: differential mode needs no LAPACK binding of scipy."""
        loaded = self.loaded_after(
            "from mmdufs import datagen, trainer\n"
            "trainer.train(datagen.gen_gaussian_mixture(0),"
            " trainer.RunConfig(mode='differential', epochs=2))"
        )
        assert not {m for m in loaded if m.split(".")[0] == "scipy"}
