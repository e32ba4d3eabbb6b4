"""Tests for experiment orchestration, CSV ingestion, and the CLI."""

import inspect
import json
import os
import re
import subprocess
import sys
from dataclasses import FrozenInstanceError, fields, is_dataclass, replace
from pathlib import Path

import numpy as np
import pytest

from knockint.exceptions import ConfigurationError, TrainingDivergedError, ValidationError
from knockint.harness import (SIMULATION_FIELDS, ExperimentConfig, derive_seed, oo_score_map,
                              run_experiment, run_repetition, selected_original_pairs)
from knockint.importance import METHODS, AttributionConfig
from knockint.knockoff import write_augmented_csv
from knockint.network import TrainConfig, init_network
from knockint.simsuite import SimulationSpec, read_dataset_csv
from knockint.table import save_npz
from knockint import cli


def _tiny_cfg(tmp_path, **kw):
    base = dict(
        functions=["F6"], n=300, p=10, repetitions=1,
        train=TrainConfig(epochs=3, batch_size=64),
        output_dir=str(tmp_path / "out"), save_intermediates=False,
    )
    base.update(kw)
    return ExperimentConfig(**base)


# ---------------------------------------------------------------- config

def test_config_validation():
    with pytest.raises(ConfigurationError):
        ExperimentConfig(q=0.0)
    with pytest.raises(ConfigurationError):
        ExperimentConfig(repetitions=0)
    with pytest.raises(ConfigurationError):
        ExperimentConfig(s_scale=0.0)
    with pytest.raises(ConfigurationError):
        ExperimentConfig(method="nope")
    with pytest.raises(ConfigurationError, match="'F11'"):
        ExperimentConfig(functions=["F6", "F11"])
    with pytest.raises(ConfigurationError, match=re.escape("p must be in [10, inf)")):
        ExperimentConfig(p=9)
    with pytest.raises(ConfigurationError, match=re.escape("n must be in [3, inf)")):
        ExperimentConfig(n=2)  # 2 rows leave 1 training row; the knockoff fit needs 2
    with pytest.raises(ConfigurationError, match="q must be"):
        replace(ExperimentConfig(), q=1.0)  # replace makes a new config, checked alike
    with pytest.raises(FrozenInstanceError):
        ExperimentConfig().q = 0.0
    ExperimentConfig(method="both", calibration="both", coupling="both")
    # an external dataset has no benchmark function to check
    ExperimentConfig(dataset="x.csv", functions=["F11"], p=3)
    # a simulation is a regression with no response column to name
    with pytest.raises(ConfigurationError, match="task must be 'regression' without a dataset"):
        ExperimentConfig(task="binary")
    with pytest.raises(ConfigurationError, match="response_column must be None"):
        ExperimentConfig(response_column="y")
    ExperimentConfig(dataset="x.csv", task="binary", response_column="y")


def test_config_roundtrip():
    cfg = ExperimentConfig(functions=["F1", "F2"], q=0.1,
                           train=TrainConfig(epochs=7))
    back = ExperimentConfig.from_dict(cfg.to_dict())
    assert back == cfg
    # A dataset's config leaves out the settings only a simulation reads.
    cfg = ExperimentConfig(dataset="x.csv", response_column="y", q=0.1)
    assert set(SIMULATION_FIELDS).isdisjoint(cfg.to_dict())
    assert ExperimentConfig.from_dict(cfg.to_dict()) == cfg


def test_config_rejects_unknown_fields():
    with pytest.raises(ValidationError):
        ExperimentConfig.from_dict({"frobnicate": 1})


def test_derive_seed_stable_and_distinct():
    a = derive_seed(0, "F1", 0, "data")
    assert a == derive_seed(0, "F1", 0, "data")
    assert a != derive_seed(0, "F1", 1, "data")
    assert a != derive_seed(1, "F1", 0, "data")
    assert 0 <= a < 2 ** 32


# ---------------------------------------------------------------- ingest

def test_ingest_basic(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text("a,b,y\n1,2,3\n4,5,6\n")
    ds = read_dataset_csv(path, None, "y")
    assert ds.X.shape == (2, 2)
    np.testing.assert_array_equal(ds.y, [3.0, 6.0])


def test_ingest_missing_response_column(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text("a,b,y\n1,2,3\n")
    with pytest.raises(ValidationError, match="available columns"):
        read_dataset_csv(path, None, "z")


def test_ingest_bad_binary_value(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text("a,y\n1,0\n2,2\n")
    with pytest.raises(ValidationError, match="row 3"):
        read_dataset_csv(path, None, "y", task="binary")


def test_ingest_non_numeric_cell(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text("a,y\n1,2\nx,3\n")
    with pytest.raises(ValidationError, match="row 3"):
        read_dataset_csv(path, None, "y")


@pytest.mark.parametrize("cell", ["nan", "inf", "-inf"])
def test_ingest_non_finite_cell(tmp_path, cell):
    path = tmp_path / "d.csv"
    path.write_text(f"a,y\n1,2\n{cell},3\n")
    with pytest.raises(ValidationError, match="row 3"):
        read_dataset_csv(path, None, "y")


def test_read_dataset_response_defaults_to_last_column(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text("y,a,b\n1,2,3\n4,5,6\n")
    ds = read_dataset_csv(path)
    np.testing.assert_array_equal(ds.X, [[1.0, 2.0], [4.0, 5.0]])
    np.testing.assert_array_equal(ds.y, [3.0, 6.0])
    assert ds.n_train == 2 and ds.task == "regression" and ds.ground_truth is None


# ---------------------------------------------------------------- helpers

def test_selected_original_pairs_filters_and_shifts():
    sel = [(0, 2), (1, 5), (4, 5)]  # p=3: only (0,2) is original-original
    assert selected_original_pairs(sel, 3) == {(1, 3)}


def test_oo_score_map_keys():
    S = np.arange(36, dtype=float).reshape(6, 6)
    m = oo_score_map(S, 3)
    assert set(m) == {(1, 2), (1, 3), (2, 3)}
    assert m[(1, 2)] == S[0, 1]


# ---------------------------------------------------------------- pipeline

def test_run_repetition_produces_eval(tmp_path):
    cfg = _tiny_cfg(tmp_path)
    out = run_repetition(cfg, "F6", 0, None)
    (arm, entry), = out.items()
    assert "eval" in entry
    assert 0 <= entry["eval"]["fdp"] <= 1


def test_run_experiment_report_structure(tmp_path):
    cfg = _tiny_cfg(tmp_path, repetitions=2, method="both")
    report = run_experiment(cfg)
    arms = report["results"]["F6"]
    assert len(arms) == 2  # both methods, single calibration/coupling arm
    for arm_report in arms.values():
        assert len(arm_report["repetitions"]) == 2
        assert "aggregate" in arm_report
    outdir = Path(cfg.output_dir)
    assert (outdir / "report.json").exists()
    assert (outdir / "summary.csv").exists()
    assert (outdir / "aggregate.csv").exists()
    # provenance: substitution note recorded in every report
    assert any("Gaussian" in note for note in report["notes"])


def test_run_experiment_deterministic(tmp_path):
    cfg1 = _tiny_cfg(tmp_path / "a")
    cfg2 = _tiny_cfg(tmp_path / "b")
    run_experiment(cfg1)
    run_experiment(cfg2)
    r1 = (Path(cfg1.output_dir) / "report.json").read_text()
    r2 = (Path(cfg2.output_dir) / "report.json").read_text()
    # identical except for the configured output path
    assert r1.replace(str(cfg1.output_dir), "") == r2.replace(str(cfg2.output_dir), "")


def _call_log(path):
    """Calls counted across worker processes: one line appended per call."""
    def record():
        with open(path, "a") as fh:
            fh.write("call\n")

    def count():
        return len(path.read_text().splitlines()) if path.exists() else 0
    return record, count


def test_run_experiment_continues_after_failure(tmp_path, monkeypatch):
    cfg = _tiny_cfg(tmp_path, repetitions=2)
    import knockint.harness as harness_mod
    real = harness_mod.run_repetition
    record, count = _call_log(tmp_path / "calls.log")

    def flaky(cfg, fid, rep, rep_dir=None, dataset=None):
        record()
        if rep == 0:
            raise TrainingDivergedError(0, "synthetic failure")
        return real(cfg, fid, rep, rep_dir, dataset)

    monkeypatch.setattr(harness_mod, "run_repetition", flaky)
    report = harness_mod.run_experiment(cfg)
    assert count() == 2
    assert len(report["errors"]) == 1
    assert report["errors"][0]["repetition"] == 0
    assert report["errors"][0]["error"] == "TrainingDivergedError: synthetic failure"
    (arm_report,) = report["results"]["F6"].values()
    assert len(arm_report["repetitions"]) == 1


def _children():
    """Process ids of every live child of this process, from every thread."""
    return {pid for task in Path("/proc/self/task").iterdir()
            for pid in (task / "children").read_text().split()}


@pytest.mark.parametrize("failing_rep", [0, 1])
def test_run_experiment_programming_error_propagates(tmp_path, monkeypatch, failing_rep):
    cfg = _tiny_cfg(tmp_path, repetitions=2)
    import knockint.harness as harness_mod
    real = harness_mod.run_repetition

    def buggy(cfg, fid, rep, rep_dir=None, dataset=None):
        if rep == failing_rep:
            raise TypeError("synthetic bug")
        return real(cfg, fid, rep, rep_dir, dataset)

    monkeypatch.setattr(harness_mod, "run_repetition", buggy)
    with pytest.raises(TypeError, match="synthetic bug"):
        harness_mod.run_experiment(cfg)
    assert not _children()


def _output_files(outdir):
    """Every file under ``outdir`` by relative path, the output path masked."""
    files = {}
    for path in sorted(outdir.rglob("*")):
        if path.is_file():
            files[str(path.relative_to(outdir))] = path.read_bytes().replace(
                str(outdir).encode(), b"OUT")
    return files


def test_run_experiment_pool_equals_serial(tmp_path, monkeypatch):
    outputs = []
    for tag in ("pool", "serial"):
        if tag == "serial":
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        cfg = _tiny_cfg(tmp_path / tag, functions=["F4", "F6"], repetitions=2,
                        calibration="both", save_intermediates=True)
        run_experiment(cfg)
        outputs.append(_output_files(Path(cfg.output_dir)))
    pooled, serial = outputs
    assert len([name for name in pooled if name.endswith("net_coupling_on.npz")]) == 4
    assert pooled.keys() == serial.keys()
    for name in pooled:
        assert pooled[name] == serial[name], name


def test_run_experiment_leaves_no_process(tmp_path):
    run_experiment(_tiny_cfg(tmp_path, repetitions=3))
    assert not _children()


def test_cli_run_leaves_no_process(tmp_path):
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
    child = subprocess.Popen(
        [sys.executable, "-m", "knockint.cli", "run", "--functions", "F6", "--n", "300",
         "--p", "10", "--repetitions", "2", "--epochs", "3", "--no-intermediates",
         "--out", str(tmp_path / "exp")],
        env=env, start_new_session=True, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True)
    _, err = child.communicate(timeout=300)
    assert child.returncode == 0, err
    assert (tmp_path / "exp" / "report.json").exists()
    with pytest.raises(ProcessLookupError):
        os.killpg(child.pid, 0)


def test_run_experiment_saves_intermediates(tmp_path):
    cfg = _tiny_cfg(tmp_path, save_intermediates=True)
    run_experiment(cfg)
    rep_dir = Path(cfg.output_dir) / "F6_rep000"
    for name in ("dataset.csv", "manifest.json", "knockoff_model.npz",
                 "augmented.csv", "net_coupling_on.npz"):
        assert (rep_dir / name).exists(), name


def _external_csv():
    rng = np.random.default_rng(0)
    X = rng.uniform(size=(200, 4))
    y = X[:, 0] + X[:, 1] * X[:, 2]
    rows = ["f1,f2,f3,f4,resp"]
    rows += [",".join(map(str, list(xr) + [yv])) for xr, yv in zip(X, y)]
    return "\n".join(rows) + "\n"


def test_run_experiment_external_csv(tmp_path):
    data = tmp_path / "ext.csv"
    data.write_text(_external_csv())
    cfg = _tiny_cfg(tmp_path, functions=[], dataset=str(data),
                    response_column="resp")
    report = run_experiment(cfg)
    arms = report["results"]["external"]
    (entry,) = arms.values()
    # no ground truth for external data: selections only, no eval block
    assert "aggregate" not in entry
    assert "selection" in entry["repetitions"][0]
    # the report's config records only settings the run read, and reads back
    assert ExperimentConfig.from_dict(report["config"]).to_dict() == report["config"]


def test_run_experiment_reads_dataset_once(tmp_path, monkeypatch):
    data = tmp_path / "ext.csv"
    data.write_text(_external_csv())
    import knockint.simsuite as simsuite_mod
    real = simsuite_mod.read_table
    record, count = _call_log(tmp_path / "reads.log")

    def counted(*args, **kwargs):
        record()
        return real(*args, **kwargs)

    monkeypatch.setattr(simsuite_mod, "read_table", counted)
    cfg = _tiny_cfg(tmp_path, functions=[], dataset=str(data), response_column="resp",
                    repetitions=3)
    report = run_experiment(cfg)
    assert count() == 1
    assert not report["errors"]
    (entry,) = report["results"]["external"].values()
    assert [e["repetition"] for e in entry["repetitions"]] == [0, 1, 2]


def test_run_experiment_writes_a_read_dataset_once(tmp_path):
    # One dataset.csv and manifest.json in the run's directory, not a
    # byte-identical copy in each repetition's.
    data = tmp_path / "ext.csv"
    data.write_text(_external_csv())
    cfg = _tiny_cfg(tmp_path, functions=[], dataset=str(data), response_column="resp",
                    repetitions=2, save_intermediates=True)
    run_experiment(cfg)
    out = Path(cfg.output_dir)
    for name in ("dataset.csv", "manifest.json"):
        assert [p.relative_to(out) for p in out.rglob(name)] == [Path(name)]
    written = read_dataset_csv(out / "dataset.csv", out / "manifest.json")
    assert written.n_train == 100 and written.X.shape == (200, 4)
    assert (out / "external_rep001" / "augmented.csv").exists()


def test_run_experiment_writes_array_baselines_as_lists(tmp_path):
    # A config built in Python may hold numpy vectors; the config keeps them
    # as float tuples, so report.json can be written and reads back as lists.
    cfg = _tiny_cfg(tmp_path, n=60, train=TrainConfig(epochs=1, batch_size=16),
                    method="instance_based",
                    attribution=AttributionConfig(baselines=[np.zeros(20)], sample_cap=2))
    run_experiment(cfg)
    report = json.loads((Path(cfg.output_dir) / "report.json").read_text())
    assert report["config"]["attribution"]["baselines"] == [[0.0] * 20]
    assert not report["errors"]


# ---------------------------------------------------------------- cli

def _run_cli(args):
    return cli.main(args)


def test_cli_usage_error_exit_code():
    with pytest.raises(SystemExit) as err:
        _run_cli(["simulate"])  # missing required flags
    assert err.value.code == 1


def test_cli_hidden_not_ints_usage_error_exit_code(tmp_path, capsys):
    with pytest.raises(SystemExit) as err:
        _run_cli(["train", "--data", str(tmp_path / "d.csv"), "--augmented",
                  str(tmp_path / "a.csv"), "--hidden", "8,x", "--net-out", str(tmp_path / "n.npz")])
    assert err.value.code == 1
    assert "argument --hidden: invalid hidden_sizes value: '8,x'" in capsys.readouterr().err


def test_cli_runtime_error_exit_code(tmp_path):
    rc = _run_cli(["knockoff", "--data", str(tmp_path / "missing.csv"),
                   "--augmented-out", str(tmp_path / "a.csv"),
                   "--model-out", str(tmp_path / "m.npz")])
    assert rc == 2


def test_cli_knockoff_empty_data_exit_code(tmp_path):
    data = tmp_path / "empty.csv"
    data.write_text("")
    rc = _run_cli(["knockoff", "--data", str(data),
                   "--augmented-out", str(tmp_path / "a.csv"),
                   "--model-out", str(tmp_path / "m.npz")])
    assert rc == 2


def test_cli_select_header_only_scores_exit_code(tmp_path):
    scores = tmp_path / "scores.csv"
    scores.write_text("i,j,class,raw,calibrated\n")
    rc = _run_cli(["select", "--scores", str(scores), "--q", "0.2",
                   "--json-out", str(tmp_path / "sel.json")])
    assert rc == 2


# Malformed input files: (argv, the file the error must name). "{d}" is a
# directory holding a simulated dataset, its knockoff files and its scores. A
# refused file entry reads "<file>: '<key>' must be <want>, got <value>".
MALFORMED_INPUTS = {
    "score_net_text_file": ("score --net {d}/text.txt --augmented {d}/aug.csv --out {d}/x.csv",
                            "text.txt"),
    "score_net_without_meta": ("score --net {d}/nometa.npz --augmented {d}/aug.csv "
                               "--out {d}/x.csv", "nometa.npz"),
    "score_net_knockoff_model": ("score --net {d}/model.npz --augmented {d}/aug.csv "
                                 "--out {d}/x.csv", "model.npz"),
    "score_net_w1_wrong_shape": ("score --net {d}/w1_5x32.npz --augmented {d}/aug.csv "
                                 "--out {d}/x.csv", "w1_5x32.npz: array w1 "),
    "score_net_z_wrong_length": ("score --net {d}/z_3.npz --augmented {d}/aug.csv "
                                 "--out {d}/x.csv", "z_3.npz: array z "),
    "score_net_task_poisson": ("score --net {d}/net_poisson.npz --augmented {d}/aug.csv "
                               "--out {d}/x.csv", "net_poisson.npz: unknown task"),
    "score_net_hidden_sizes_number": ("score --net {d}/net_hidden_5.npz --augmented {d}/aug.csv "
                                      "--out {d}/x.csv", "net_hidden_5.npz: need 3"),
    "score_net_coupled_saved_as_uncoupled": ("score --net {d}/net_coupling_false.npz "
                                             "--augmented {d}/aug.csv --out {d}/x.csv",
                                             "net_coupling_false.npz: array z "),
    "select_scores_binary": ("select --scores {d}/model.npz --json-out {d}/x.json",
                             "model.npz"),
    "select_scores_odd_width": ("select --scores {d}/odd_scores.csv --json-out {d}/x.json",
                                "odd_scores.csv"),
    "select_scores_repeated_pair": ("select --scores {d}/repeated_scores.csv "
                                    "--json-out {d}/x.json", "repeated_scores.csv"),
    "select_scores_reversed_pair": ("select --scores {d}/reversed_scores.csv "
                                    "--json-out {d}/x.json", "reversed_scores.csv"),
    "train_augmented_npz": ("train --data {d}/data.csv --augmented {d}/model.npz "
                            "--net-out {d}/x.npz", "model.npz"),
    "evaluate_selection_list": ("evaluate --selection {d}/list.json --scores {d}/scores.csv "
                                "--manifest {d}/data.manifest.json --out {d}/x.json",
                                "list.json"),
    "evaluate_selection_empty": ("evaluate --selection {d}/empty.json --scores {d}/scores.csv "
                                 "--manifest {d}/data.manifest.json --out {d}/x.json",
                                 "empty.json"),
    "evaluate_selection_not_pairs": ("evaluate --selection {d}/triple.json "
                                     "--scores {d}/scores.csv --manifest {d}/data.manifest.json "
                                     "--out {d}/x.json", "triple.json: 'selected' must be"),
    "evaluate_selection_reversed_pair": ("evaluate --selection {d}/reversed.json "
                                         "--scores {d}/scores.csv "
                                         "--manifest {d}/data.manifest.json --out {d}/x.json",
                                         "reversed.json: 'selected' must be"),
    "evaluate_selection_pair_beyond_2p": ("evaluate --selection {d}/beyond.json "
                                          "--scores {d}/scores.csv "
                                          "--manifest {d}/data.manifest.json --out {d}/x.json",
                                          "beyond.json: 'selected' must be"),
    "evaluate_selection_knockoff_pair": ("evaluate --selection {d}/knockoff_pair.json "
                                         "--scores {d}/wide_scores.csv "
                                         "--manifest {d}/data.manifest.json --out {d}/x.json",
                                         "knockoff_pair.json: 'selected' must be"),
    "evaluate_selection_without_calibration": ("evaluate --selection {d}/no_calibration.json "
                                               "--scores {d}/scores.csv "
                                               "--manifest {d}/data.manifest.json "
                                               "--out {d}/x.json", "no_calibration.json"),
    "evaluate_selection_calibration_both": ("evaluate --selection {d}/calibration_both.json "
                                            "--scores {d}/scores.csv "
                                            "--manifest {d}/data.manifest.json "
                                            "--out {d}/x.json",
                                            "calibration_both.json: 'calibration' must be"),
    "evaluate_selection_calibration_list": ("evaluate --selection {d}/calibration_list.json "
                                            "--scores {d}/scores.csv "
                                            "--manifest {d}/data.manifest.json "
                                            "--out {d}/x.json",
                                            "calibration_list.json: 'calibration' must be"),
    "run_functions_repeated": ("run --functions F6,F6 --p 10 --n 60 --repetitions 1 "
                               "--epochs 1 --no-intermediates --out {d}/repeated_out",
                               "F6 twice"),
    "run_config_list": ("run --config {d}/list.json", "list.json"),
    "run_config_unknown_train_field": ("run --config {d}/train_foo.json", "train.foo"),
    "run_config_wrong_type": ("run --config {d}/n_abc.json", "field n:"),
    "train_binary_response_not_0_1": ("train --data {d}/data.csv --manifest {d}/binary.json "
                                      "--augmented {d}/aug.csv --batch-size 16 --epochs 1 "
                                      "--net-out {d}/x.npz", "data.csv"),
    "train_augmented_wrong_shape": ("train --data {d}/data.csv --augmented {d}/aug_p12.csv "
                                    "--batch-size 16 --epochs 1 --net-out {d}/x.npz",
                                    "aug_p12.csv"),
    "score_augmented_wrong_width": ("score --net {d}/net.npz --augmented {d}/aug_p12.csv "
                                    "--out {d}/x.csv", "aug_p12.csv"),
    "score_augmented_without_ko_columns": ("score --net {d}/net.npz --augmented {d}/data.csv "
                                           "--out {d}/x.csv", "data.csv"),
    "run_config_task_poisson": ("run --config {d}/task_poisson_cfg.json", "task"),
    "run_config_dataset_sets_simulation_fields": ("run --config {d}/dataset_sizes_cfg.json",
                                                  "functions, n, p"),
    "run_simulation_task_binary": ("run --functions F6 --p 10 --n 60 --repetitions 1 "
                                   "--epochs 1 --task binary --no-intermediates "
                                   "--out {d}/binary_out", "task"),
    "run_simulation_response_column": ("run --functions F6 --p 10 --n 60 --repetitions 1 "
                                       "--epochs 1 --response-column y --no-intermediates "
                                       "--out {d}/response_out", "response_column"),
    "run_config_simulation_task_binary": ("run --config {d}/task_binary_cfg.json", "task"),
    "train_validation_split_leaves_no_training_rows": (
        "train --data {d}/data.csv --augmented {d}/aug.csv --validation-fraction 0.99 "
        "--batch-size 16 --epochs 1 --net-out {d}/x.npz", "no training rows"),
    "knockoff_covariance_overflow": ("knockoff --data {d}/huge.csv --augmented-out {d}/x.csv "
                                     "--model-out {d}/x.npz", "covariance"),
    "run_dataset_covariance_overflow": ("run --dataset {d}/huge.csv --repetitions 1 "
                                        "--batch-size 16 --no-intermediates "
                                        "--out {d}/huge_out", "covariance"),
    "knockoff_ridge_nan": ("knockoff --data {d}/data.csv --ridge nan --augmented-out {d}/x.csv "
                           "--model-out {d}/x.npz", "ridge"),
    "score_model_based_bad_attribution": ("score --net {d}/net.npz --augmented {d}/aug.csv "
                                          "--method model_based --alpha-steps -3 "
                                          "--sample-cap 0 --out {d}/x.csv", "alpha_steps"),
    "simulate_seed_negative": ("simulate --function F6 --p 10 --n 60 --seed -1 "
                               "--out {d}/x.csv", "seed"),
    "knockoff_seed_negative": ("knockoff --data {d}/data.csv --seed -1 "
                               "--augmented-out {d}/x.csv --model-out {d}/x.npz", "seed"),
    "train_seed_negative": ("train --data {d}/data.csv --augmented {d}/aug.csv --seed -1 "
                            "--batch-size 16 --epochs 1 --net-out {d}/x.npz", "seed"),
    "train_hidden_zero": ("train --data {d}/data.csv --augmented {d}/aug.csv --hidden 64,0,16 "
                          "--batch-size 16 --epochs 1 --net-out {d}/x.npz", "hidden sizes"),
    "run_grad_clip_nan": ("run --functions F6 --p 10 --n 60 --repetitions 1 --epochs 1 "
                          "--grad-clip nan --no-intermediates --out {d}/nan_out", "grad_clip"),
}

# Inputs that leave the knockoff fit fewer than its 2 training rows, refused
# before anything is written: (argv, the message, the output that must not exist).
TWO_ROWS = {
    "run_simulation_two_rows": ("run --functions F6 --n 2 --p 10 --repetitions 2 --epochs 1 "
                                "--batch-size 1 --out {d}/two_rows_out",
                                "n must be in [3, inf)", "two_rows_out"),
    "simulate_two_rows": ("simulate --function F6 --n 2 --p 10 --out {d}/two_rows.csv",
                          "n must be in [3, inf)", "two_rows.csv"),
    "run_dataset_two_rows": ("run --dataset {d}/two_rows_data.csv --repetitions 2 --epochs 1 "
                             "--batch-size 1 --out {d}/two_rows_data_out",
                             "two_rows_data.csv: 1 training row", "two_rows_data_out"),
}
MALFORMED_INPUTS.update({case: (argv, named) for case, (argv, named, _) in TWO_ROWS.items()})

# Entries that spoil the 60-row dataset's manifest, each read by every stage
# that takes a manifest.
BAD_MANIFESTS = {
    "pairs_int": {"ground_truth_pairs": 5},
    "pairs_triple": {"ground_truth_pairs": [[1, 2, 3]]},
    "pairs_reversed": {"ground_truth_pairs": [[1, 2], [4, 3]]},
    "pairs_zero_based": {"ground_truth_pairs": [[0, 1]]},
    "pairs_beyond_p": {"ground_truth_pairs": [[9, 11]]},
    "n_train_text": {"n_train": "x"},
    "n_train_one": {"n_train": 1},
    "n_train_over_rows": {"n_train": 1000},
    "task_poisson": {"task": "poisson"},
}
MANIFEST_READERS = {
    "knockoff": "knockoff --data {d}/data.csv --manifest {d}/{m} --augmented-out {d}/x.csv "
                "--model-out {d}/x.npz",
    "score": "score --net {d}/net.npz --augmented {d}/aug.csv --manifest {d}/{m} "
             "--out {d}/x.csv",
    "evaluate": "evaluate --selection {d}/pair.json --scores {d}/scores.csv --manifest {d}/{m} "
                "--out {d}/x.json",
}
MALFORMED_INPUTS["knockoff_manifest_missing"] = (
    MANIFEST_READERS["knockoff"].replace("{m}", "missing.json"), "missing.json")
MALFORMED_INPUTS.update({
    f"{command}_manifest_{bad}": (argv.replace("{m}", f"{bad}.json"),
                                  f"{bad}.json: '{next(iter(entries))}' must be")
    for command, argv in MANIFEST_READERS.items() for bad, entries in BAD_MANIFESTS.items()})

# Meta entries that spoil a saved coupled network, each refused by load_network.
BAD_NET_META = {
    "y_mean_text": {"y_mean": "abc"},
    "y_mean_true": {"y_mean": True},
    "y_std_list": {"y_std": [1]},
    "y_std_zero": {"y_std": 0},
    "y_std_nan": {"y_std": float("nan")},
    "coupling_one": {"coupling": 1},
}
MALFORMED_INPUTS.update({
    f"score_net_{bad}": (f"score --net {{d}}/net_{bad}.npz --augmented {{d}}/aug.csv "
                         f"--out {{d}}/x.csv", f"net_{bad}.npz: '{next(iter(spoil))}' must be")
    for bad, spoil in BAD_NET_META.items()})


@pytest.fixture(scope="module")
def malformed_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("malformed")
    assert _run_cli(["simulate", "--function", "F6", "--n", "60", "--p", "10",
                     "--out", str(d / "data.csv")]) == 0
    assert _run_cli(["knockoff", "--data", str(d / "data.csv"),
                     "--augmented-out", str(d / "aug.csv"),
                     "--model-out", str(d / "model.npz")]) == 0
    assert _run_cli(["train", "--data", str(d / "data.csv"), "--augmented", str(d / "aug.csv"),
                     "--hidden", "4,3,2", "--batch-size", "16", "--epochs", "1",
                     "--net-out", str(d / "net.npz")]) == 0
    manifest = json.loads((d / "data.manifest.json").read_text())
    for name, entries in {**BAD_MANIFESTS, "binary": {"task": "binary"}}.items():
        (d / f"{name}.json").write_text(json.dumps({**manifest, **entries}))
    X = np.random.default_rng(0).uniform(size=(50, 12))
    write_augmented_csv(d / "aug_p12.csv", X, X)
    (d / "pair.json").write_text('{"selected": [[0, 1]], "calibration": "on"}')
    (d / "scores.csv").write_text("i,j,class,raw,calibrated\n1,2,OO,0.5,0.5\n")
    (d / "odd_scores.csv").write_text("i,j,class,raw,calibrated\n1,2,OO,0.5,0.5\n"
                                      "1,3,OO,0.5,0.5\n")  # largest index 3
    (d / "repeated_scores.csv").write_text("i,j,class,raw,calibrated\n1,2,OO,0.5,0.5\n"
                                           "1,2,OO,0.7,0.7\n")
    (d / "reversed_scores.csv").write_text("i,j,class,raw,calibrated\n1,2,OO,0.5,0.5\n"
                                           "2,1,OO,0.7,0.7\n")
    (d / "text.txt").write_text("not an array\n")
    net = init_network(10).named_params()  # saved as save_network would, with one change
    meta = dict(task="regression", hidden_sizes=[64, 32, 16], coupling=True, y_mean=0.0,
                y_std=1.0)
    for name, arrays, entries in (("w1_5x32", {"w1": np.zeros((5, 32))}, {}),
                                  ("z_3", {"z": np.zeros(3)}, {}),
                                  ("net_poisson", {}, {"task": "poisson"}),
                                  ("net_hidden_5", {}, {"hidden_sizes": 5}),
                                  ("net_coupling_false", {}, {"coupling": False}),
                                  *((f"net_{bad}", {}, spoil)
                                    for bad, spoil in BAD_NET_META.items())):
        save_npz(d / f"{name}.npz", 1, {**net, **arrays}, **{**meta, **entries})
    np.savez(d / "nometa.npz", w0=np.zeros(2))
    (d / "list.json").write_text("[1]")
    (d / "empty.json").write_text("{}")
    (d / "triple.json").write_text('{"selected": [[0, 1, 2]], "calibration": "on"}')
    (d / "reversed.json").write_text('{"selected": [[1, 0]], "calibration": "on"}')
    (d / "beyond.json").write_text(  # scores.csv is 2 wide
        '{"selected": [[0, 1], [1, 2]], "calibration": "on"}')
    (d / "no_calibration.json").write_text('{"selected": [[0, 1]]}')
    (d / "calibration_both.json").write_text('{"selected": [[0, 1]], "calibration": "both"}')
    (d / "calibration_list.json").write_text('{"selected": [[0, 1]], "calibration": ["on"]}')
    (d / "wide_scores.csv").write_text("i,j,class,raw,calibrated\n1,2,OO,0.5,0.5\n"
                                       "1,4,OD,0.1,0.1\n")  # p = 2
    (d / "knockoff_pair.json").write_text(  # (0, 3) is OD
        '{"selected": [[0, 1], [0, 3]], "calibration": "on"}')
    (d / "train_foo.json").write_text('{"train": {"foo": 1}}')
    (d / "n_abc.json").write_text('{"n": "abc"}')
    huge = np.random.default_rng(0).uniform(size=(40, 10)) * 1e200  # finite; cov overflows
    (d / "two_rows_data.csv").write_text("x1,x2,x3,x4,x5,x6,x7,x8,x9,y\n" + "".join(
        ",".join(map(repr, row)) + "\n" for row in X[:2, :10].tolist()))
    (d / "huge.csv").write_text("x1,x2,x3,x4,x5,x6,x7,x8,x9,y\n" + "".join(
        ",".join(map(repr, row)) + "\n" for row in huge.tolist()))
    (d / "task_poisson_cfg.json").write_text(json.dumps(
        {"task": "poisson", "output_dir": str(d / "task_out")}))
    (d / "task_binary_cfg.json").write_text(json.dumps(
        {"task": "binary", "output_dir": str(d / "task_out")}))
    (d / "dataset_sizes_cfg.json").write_text(json.dumps(  # a run would ignore all three
        {"dataset": str(d / "data.csv"), "response_column": "y", "functions": ["F9"],
         "n": 17, "p": 99, "repetitions": 1, "train": {"epochs": 1, "batch_size": 16},
         "save_intermediates": False, "output_dir": str(d / "dataset_sizes_out")}))
    return d


@pytest.mark.parametrize("case", sorted(MALFORMED_INPUTS))
def test_cli_malformed_input_exit_code(case, malformed_dir, capsys):
    argv, named = MALFORMED_INPUTS[case]
    capsys.readouterr()
    rc = _run_cli(argv.format(d=malformed_dir).split())
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert named in err, err
    if "' must be" in named:  # a refused entry shows the value it got
        assert ", got " in err, err
    if case in TWO_ROWS:
        assert not (malformed_dir / TWO_ROWS[case][2]).exists()


@pytest.mark.parametrize("hidden", [["a", 2, 3], [8.7, 4, 2], [64, 0, 16], [64, np.nan, 16],
                                    [64, np.inf, 16]],
                         ids=["text", "float", "zero", "nan", "inf"])
def test_cli_run_config_bad_hidden_sizes_exit_code(hidden, tmp_path, capsys):
    # Rejected when the ExperimentConfig is made, before any cell runs.
    out = tmp_path / "exp"
    cfg = {"functions": ["F6"], "n": 200, "p": 10, "repetitions": 1, "train": {"epochs": 1},
           "save_intermediates": False, "hidden_sizes": hidden, "output_dir": str(out)}
    with pytest.raises(ConfigurationError, match="hidden sizes"):
        ExperimentConfig.from_dict(cfg)
    (tmp_path / "cfg.json").write_text(json.dumps(cfg))
    capsys.readouterr()
    assert _run_cli(["run", "--config", str(tmp_path / "cfg.json")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert "hidden sizes" in err
    assert not (out / "report.json").exists()


@pytest.mark.parametrize("functions, named", [(["F6", "F2", "F6"], "functions names F6 twice"),
                                             ([], "functions is empty"),
                                             ([["F1"]], "unknown function id ['F1']")],
                         ids=["repeated", "empty", "not_a_string"])
def test_cli_run_config_bad_functions_exit_code(functions, named, tmp_path, capsys):
    # Rejected when the ExperimentConfig is made, before any cell runs: a repeated
    # id would run one cell twice into one directory, and none would run nothing.
    out = tmp_path / "exp"
    cfg = {"functions": functions, "n": 200, "p": 10, "repetitions": 1, "train": {"epochs": 1},
           "save_intermediates": False, "output_dir": str(out)}
    with pytest.raises(ConfigurationError, match=re.escape(named)):
        ExperimentConfig.from_dict(cfg)
    (tmp_path / "cfg.json").write_text(json.dumps(cfg))
    capsys.readouterr()
    assert _run_cli(["run", "--config", str(tmp_path / "cfg.json")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert named in err
    assert not (out / "report.json").exists()


# Every settable numeric field of the four configs, with values outside its
# range; NaN and both infinities are tried for each as well. The last entry is
# the field's path in a ``run --config`` file, or None where a run has no such
# field. ExperimentConfig.seed is absent: derive_seed hashes any int. Its
# hidden_sizes has its own test above.
CONFIG_RANGES = [
    (ExperimentConfig, "q", (0, 1, -0.5), "q"),
    (ExperimentConfig, "repetitions", (0, -1), "repetitions"),
    (ExperimentConfig, "s_scale", (0, 1.5), "s_scale"),
    (ExperimentConfig, "ridge", (-1e-6,), "ridge"),
    (SimulationSpec, "n", (1, 0), "n"),
    (SimulationSpec, "p", (9, -1), "p"),
    (SimulationSpec, "seed", (-1,), None),
    (TrainConfig, "learning_rate", (0, -1e-3), "train.learning_rate"),
    (TrainConfig, "epochs", (0, -1), "train.epochs"),
    (TrainConfig, "batch_size", (0,), "train.batch_size"),
    (TrainConfig, "l1_filter_penalty", (-1e-4,), "train.l1_filter_penalty"),
    (TrainConfig, "l1_mlp_penalty", (-5e-4,), "train.l1_mlp_penalty"),
    (TrainConfig, "grad_clip", (0, -1.0), "train.grad_clip"),
    (TrainConfig, "validation_fraction", (1, -0.1), "train.validation_fraction"),
    (AttributionConfig, "alpha_steps", (0, -3), "attribution.alpha_steps"),
    (AttributionConfig, "beta_steps", (0,), "attribution.beta_steps"),
    (AttributionConfig, "sample_cap", (0,), "attribution.sample_cap"),
    (AttributionConfig, "baselines", ("median", [[0.0, np.nan]]), "attribution.baselines"),
]
CONFIG_RANGE_CASES = [(cls, name, value, path) for cls, name, values, path in CONFIG_RANGES
                      for value in values + (np.nan, np.inf, -np.inf)]


@pytest.mark.parametrize("cls, name, value, path", CONFIG_RANGE_CASES,
                         ids=[f"{c.__name__}.{n}={v}" for c, n, v, _ in CONFIG_RANGE_CASES])
def test_config_out_of_range_value_stops_before_any_cell(cls, name, value, path, tmp_path,
                                                         capsys):
    required = {"function_id": "F1"} if cls is SimulationSpec else {}
    with pytest.raises(ConfigurationError, match=name):
        cls(**required, **{name: value})
    if path is None:
        return
    out = tmp_path / "exp"
    cfg = {"functions": ["F6"], "n": 200, "p": 10, "repetitions": 1, "train": {"epochs": 1},
           "save_intermediates": False, "output_dir": str(out)}
    *parents, leaf = path.split(".")
    entries = cfg
    for parent in parents:
        entries = entries.setdefault(parent, {})
    entries[leaf] = value
    (tmp_path / "cfg.json").write_text(json.dumps(cfg))  # NaN and Infinity included
    capsys.readouterr()
    assert _run_cli(["run", "--config", str(tmp_path / "cfg.json")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert name in err, err
    assert not out.exists()


@pytest.mark.parametrize("path", ["train.seed", "attribution.epsilon_floor"])
def test_cli_run_config_removed_field_exit_code(path, tmp_path, capsys):
    # Both settings are gone: run derives each network's seed, and calibrate's
    # floor is a constant. A file that sets one is refused, not run without it.
    out = tmp_path / "exp"
    cfg = {"functions": ["F6"], "n": 200, "p": 10, "repetitions": 1, "train": {"epochs": 1},
           "save_intermediates": False, "output_dir": str(out)}
    parent, leaf = path.split(".")
    cfg.setdefault(parent, {})[leaf] = 5
    (tmp_path / "cfg.json").write_text(json.dumps(cfg))
    capsys.readouterr()
    assert _run_cli(["run", "--config", str(tmp_path / "cfg.json")]) == 2
    err = capsys.readouterr().err
    assert err == f"error: unknown config field {path}\n"
    assert not out.exists()


@pytest.mark.parametrize("options", [["--n", "4000"],
                                     ["--n", "100", "--repetitions", "3", "--functions", "F2"],
                                     ["--seed", "0", "--out", "x"], ["--no-intermediates"]],
                         ids=["default_n", "n_repetitions_functions", "default_seed",
                              "no_intermediates"])
def test_cli_run_config_with_other_options_is_a_usage_error(options, tmp_path, capsys):
    # The file sets every field, so an option beside it would be ignored: it is
    # refused whether or not its value is the default. Only --out may be given.
    out = tmp_path / "exp"
    cfg = _tiny_cfg(tmp_path, output_dir=str(out))
    (tmp_path / "cfg.json").write_text(json.dumps(cfg.to_dict()))
    capsys.readouterr()
    with pytest.raises(SystemExit) as exit_:
        _run_cli(["run", "--config", str(tmp_path / "cfg.json"), *options])
    assert exit_.value.code == 1
    err = capsys.readouterr().err
    named = err.splitlines()[-1].partition("it cannot be given with ")[2].split(", ")
    assert set(named) == {o for o in options if o.startswith("--") and o != "--out"}, err
    assert not out.exists()
    assert _run_cli(["run", "--config", str(tmp_path / "cfg.json"),
                     "--out", str(tmp_path / "alone")]) == 0
    assert (tmp_path / "alone" / "report.json").exists()


@pytest.mark.parametrize("options", [["--n", "4000"], ["--p", "99", "--functions", "F9"],
                                     ["--functions", "F1", "--repetitions", "1"]],
                         ids=["default_n", "p_functions", "default_functions"])
def test_cli_run_dataset_with_simulation_options_is_a_usage_error(options, tmp_path, capsys):
    # An external dataset replaces the simulation, so its function ids and
    # sizes would be ignored: they are refused, even at their default values.
    (tmp_path / "data.csv").write_text(_external_csv())
    out = tmp_path / "exp"
    argv = ["run", "--dataset", str(tmp_path / "data.csv"), "--response-column", "resp",
            "--epochs", "1", "--no-intermediates"]
    capsys.readouterr()
    with pytest.raises(SystemExit) as exit_:
        _run_cli([*argv, *options, "--out", str(out)])
    assert exit_.value.code == 1
    err = capsys.readouterr().err
    named = err.splitlines()[-1].partition("it cannot be given with ")[2].split(", ")
    assert set(named) == set(options) & {"--functions", "--n", "--p"}, err
    assert not out.exists()
    assert _run_cli([*argv, "--repetitions", "1", "--out", str(tmp_path / "alone")]) == 0
    assert (tmp_path / "alone" / "report.json").exists()


@pytest.mark.parametrize("dataset", [False, True], ids=["simulated", "external"])
def test_cli_run_baselines_of_wrong_width_stop_before_any_cell(dataset, tmp_path, capsys):
    # Vectors must be 2p long: 20 for p = 10, 8 for the 4-feature dataset.
    out = tmp_path / "exp"
    cfg = {"repetitions": 2, "train": {"epochs": 1}, "method": "instance_based",
           "attribution": {"baselines": [[0.0] * 9]}, "save_intermediates": False,
           "output_dir": str(out)}
    if dataset:
        (tmp_path / "data.csv").write_text(_external_csv())
        cfg.update(dataset=str(tmp_path / "data.csv"), response_column="resp",
                   attribution={"baselines": [[0.0] * 20]})
    else:
        cfg.update(functions=["F6"], n=200, p=10)
        with pytest.raises(ConfigurationError, match="attribution.baselines"):
            ExperimentConfig.from_dict(cfg)
    (tmp_path / "cfg.json").write_text(json.dumps(cfg))
    capsys.readouterr()
    assert _run_cli(["run", "--config", str(tmp_path / "cfg.json")]) == 2
    err = capsys.readouterr().err
    want = 8 if dataset else 20
    assert err.startswith(f"error: attribution.baselines must be vectors of length 2p = {want}")
    assert err.count("\n") == 1, err
    assert not out.exists()


def test_config_from_dict_checks_nested_fields_and_types():
    with pytest.raises(ValidationError, match="attribution.bogus"):
        ExperimentConfig.from_dict({"attribution": {"bogus": 1}})
    for bad in ({"save_intermediates": 1}, {"q": "0.1"}, {"train": {"epochs": 3.0}},
                {"train": 5}, {"functions": "F1"}):
        with pytest.raises(ValidationError, match="config field"):
            ExperimentConfig.from_dict(bad)
    cfg = ExperimentConfig.from_dict({
        "s_scale": 1, "dataset": "x.csv", "hidden_sizes": [4, 3, 2],
        "train": {"learning_rate": 1, "grad_clip": None},
        "attribution": {"baselines": [[0.0, 0.0]]}})
    assert cfg.s_scale == 1 and cfg.hidden_sizes == (4, 3, 2)
    assert cfg.train == TrainConfig(learning_rate=1, grad_clip=None)
    assert cfg.attribution == AttributionConfig(baselines=[[0.0, 0.0]])


def test_cli_run_every_repetition_failed_exit_code(tmp_path, monkeypatch):
    import knockint.harness as harness_mod

    def failing(cfg, fid, rep, rep_dir=None, dataset=None):
        raise TrainingDivergedError(0, "synthetic failure")

    monkeypatch.setattr(harness_mod, "run_repetition", failing)
    out = tmp_path / "exp"
    rc = _run_cli(["run", "--functions", "F6", "--n", "300", "--p", "10",
                   "--repetitions", "2", "--no-intermediates", "--out", str(out)])
    assert rc == 2
    report = json.loads((out / "report.json").read_text())
    assert len(report["errors"]) == 2


def test_cli_run_unknown_function_exit_code(tmp_path, capsys):
    out = tmp_path / "exp"
    rc = _run_cli(["run", "--functions", "F6,F11", "--n", "200", "--p", "10",
                   "--repetitions", "1", "--epochs", "2", "--out", str(out)])
    assert rc == 2
    assert "'F11'" in capsys.readouterr().err
    assert not (out / "report.json").exists()


@pytest.mark.parametrize("train, dataset, named", [
    ({"batch_size": 4, "validation_fraction": 0.99}, False,
     "validation_fraction leaves no training rows of n=10"),
    ({"batch_size": 11}, False, "batch_size 11 exceeds n=10"),
    ({"batch_size": 11}, True, "batch_size 11 exceeds n=10")],
    ids=["no_training_rows", "batch_over_rows", "batch_over_dataset_rows"])
def test_cli_run_checks_training_rows_before_any_cell(train, dataset, named, tmp_path, capsys):
    # Every cell trains on half of the 20 rows, so each would fail alike:
    # the run stops with one line before any cell, and writes no report.
    out = tmp_path / "exp"
    cfg = {"repetitions": 2, "train": {"epochs": 1, **train}, "save_intermediates": False,
           "output_dir": str(out)}
    if dataset:
        rows = np.random.default_rng(0).uniform(size=(20, 4))
        (tmp_path / "data.csv").write_text(
            "a,b,c,resp\n" + "".join(",".join(map(str, r)) + "\n" for r in rows))
        cfg.update(dataset=str(tmp_path / "data.csv"), response_column="resp")
    else:
        cfg.update(functions=["F6"], n=20, p=10)
    (tmp_path / "cfg.json").write_text(json.dumps(cfg))
    capsys.readouterr()
    assert _run_cli(["run", "--config", str(tmp_path / "cfg.json")]) == 2
    err = capsys.readouterr().err
    assert err == f"error: {named}\n"
    assert not out.exists()


def test_cli_run_bad_dataset_exit_code(tmp_path, capsys):
    data = tmp_path / "bad.csv"
    data.write_text("a,resp\n1,2\nx,3\n")
    out = tmp_path / "exp"
    rc = _run_cli(["run", "--dataset", str(data), "--response-column", "resp",
                   "--repetitions", "3", "--no-intermediates", "--out", str(out)])
    assert rc == 2
    assert "row 3" in capsys.readouterr().err
    assert not (out / "report.json").exists()


def test_cli_stagewise_pipeline(tmp_path, capsys):
    d = tmp_path
    assert _run_cli(["simulate", "--function", "F6", "--n", "300", "--p", "10",
                     "--seed", "1", "--out", str(d / "data.csv")]) == 0
    assert _run_cli(["knockoff", "--data", str(d / "data.csv"),
                     "--augmented-out", str(d / "aug.csv"),
                     "--model-out", str(d / "model.npz"),
                     "--diagnostics"]) == 0
    assert _run_cli(["train", "--data", str(d / "data.csv"),
                     "--augmented", str(d / "aug.csv"),
                     "--hidden", "8,6,4", "--epochs", "3",
                     "--net-out", str(d / "net.npz"),
                     "--trace-out", str(d / "trace.json")]) == 0
    assert _run_cli(["score", "--net", str(d / "net.npz"),
                     "--augmented", str(d / "aug.csv"),
                     "--manifest", str(d / "data.manifest.json"),
                     "--method", "model_based",
                     "--out", str(d / "scores.csv")]) == 0
    assert _run_cli(["select", "--scores", str(d / "scores.csv"),
                     "--q", "0.2", "--json-out", str(d / "sel.json"),
                     "--csv-out", str(d / "sel.csv")]) == 0
    assert _run_cli(["evaluate", "--selection", str(d / "sel.json"),
                     "--scores", str(d / "scores.csv"),
                     "--manifest", str(d / "data.manifest.json"),
                     "--out", str(d / "eval.json")]) == 0
    blob = json.loads((d / "eval.json").read_text())
    assert set(blob) >= {"auroc", "fdp", "power"}


@pytest.mark.parametrize("function_id", ["F6", "external"])
def test_cli_stages_rerun_a_repetition_byte_identically(tmp_path, function_id):
    # The harness promise: each stage reruns from a repetition's saved files,
    # given the repetition's derive_seed seeds and its manifest, for simulated
    # and external (run --dataset) data alike. A run --dataset writes its one
    # dataset and manifest to the run's directory, not to each repetition's.
    external = {}
    if function_id == "external":
        csv = tmp_path / "ext.csv"
        csv.write_text(_external_csv())
        external = dict(functions=[], dataset=str(csv), response_column="resp")
    cfg = _tiny_cfg(tmp_path, method="both", calibration="both", coupling="both",
                    save_intermediates=True, hidden_sizes=(8, 6, 4),
                    attribution=AttributionConfig(alpha_steps=4, beta_steps=4, sample_cap=20),
                    **external)
    results = run_experiment(cfg)["results"][function_id]
    rep = Path(cfg.output_dir) / f"{function_id}_rep000"
    again = tmp_path / "again"
    data_dir = Path(cfg.output_dir) if external else rep
    manifest = data_dir / "manifest.json"
    data = ["--data", data_dir / "dataset.csv", "--manifest", manifest]

    def seed(*parts):
        return derive_seed(cfg.seed, function_id, 0, *parts)

    def rerun(*args):
        assert _run_cli([str(a) for a in args]) == 0

    rerun("knockoff", *data, "--seed", seed("knockoff"), "--ridge", cfg.ridge,
          "--s-scale", cfg.s_scale, "--augmented-out", again / "augmented.csv",
          "--model-out", again / "knockoff_model.npz")
    train_options = [a for name in cli.TRAIN_FIELDS
                     for a in ("--" + name.replace("_", "-"), getattr(cfg.train, name))]
    for coupling in ("on", "off"):
        rerun("train", *data, "--augmented", rep / "augmented.csv",
              "--hidden", ",".join(map(str, cfg.hidden_sizes)), "--coupling", coupling,
              *train_options, "--seed", seed("net", coupling),
              "--net-out", again / f"net_coupling_{coupling}.npz",
              "--trace-out", again / f"trace_coupling_{coupling}.json")
        for method in METHODS:
            scores = f"scores_{method}_coupling_{coupling}.csv"
            rerun("score", "--net", rep / f"net_coupling_{coupling}.npz",
                  "--augmented", rep / "augmented.csv", "--manifest", manifest,
                  "--method", method, "--alpha-steps", cfg.attribution.alpha_steps,
                  "--beta-steps", cfg.attribution.beta_steps,
                  "--sample-cap", cfg.attribution.sample_cap, "--out", again / scores)
            for calibration, raw in (("on", []), ("off", ["--use-raw"])):
                stem = f"selection_{method}_cal_{calibration}_coupling_{coupling}"
                rerun("select", "--scores", rep / scores, "--q", cfg.q, *raw,
                      "--json-out", again / f"{stem}.json", "--csv-out", again / f"{stem}.csv")
                if external:
                    continue  # no ground truth to evaluate against
                # evaluate ranks the scores the selection's arm ranked.
                rerun("evaluate", "--selection", rep / f"{stem}.json", "--scores", rep / scores,
                      "--manifest", manifest, "--out", tmp_path / "eval" / f"{stem}.json")
                arm = f"{method}|calibration_{calibration}|coupling_{coupling}"
                assert (json.loads((tmp_path / "eval" / f"{stem}.json").read_text())
                        == results[arm]["repetitions"][0]["eval"]), arm
    rerun_files = sorted(again.iterdir())
    assert len(rerun_files) == 2 + 2 * (2 + 2 * (1 + 2 * 2))
    for path in rerun_files:
        assert path.read_bytes() == (rep / path.name).read_bytes(), path.name
    assert len(list((tmp_path / "eval").glob("*.json"))) == (0 if external else 8)


def test_cli_run_subcommand(tmp_path):
    rc = _run_cli(["run", "--functions", "F6", "--n", "300", "--p", "10",
                   "--repetitions", "1", "--epochs", "3",
                   "--no-intermediates", "--out", str(tmp_path / "exp")])
    assert rc == 0
    assert (tmp_path / "exp" / "report.json").exists()


def test_cli_run_config_file(tmp_path):
    cfg = _tiny_cfg(tmp_path)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg.to_dict()))
    rc = _run_cli(["run", "--config", str(cfg_path)])
    assert rc == 0
    assert (Path(cfg.output_dir) / "report.json").exists()


def test_cli_output_root_env(tmp_path, monkeypatch):
    monkeypatch.setenv("KNOCKINT_OUTPUT_ROOT", str(tmp_path))
    assert _run_cli(["simulate", "--function", "F6", "--n", "50", "--p", "10",
                     "--out", "sub/data.csv"]) == 0
    assert (tmp_path / "sub" / "data.csv").exists()
    # A config file's relative output_dir resolves against the root too.
    (tmp_path / "cwd").mkdir()
    monkeypatch.chdir(tmp_path / "cwd")
    cfg = _tiny_cfg(tmp_path, output_dir="cfgout")
    (tmp_path / "cfg.json").write_text(json.dumps(cfg.to_dict()))
    assert _run_cli(["run", "--config", str(tmp_path / "cfg.json")]) == 0
    assert (tmp_path / "cfgout" / "report.json").exists()
    assert not (tmp_path / "cwd" / "cfgout").exists()


# Option names of each subcommand, as the CLI has always had them.
CLI_OPTIONS = {
    "simulate": "--function --n --p --seed --out --manifest",
    "knockoff": "--data --manifest --seed --ridge --s-scale --augmented-out --model-out "
                "--diagnostics",
    "train": "--data --manifest --augmented --hidden --coupling --learning-rate --epochs "
             "--batch-size --l1-filter-penalty --l1-mlp-penalty --grad-clip "
             "--validation-fraction --seed --net-out --trace-out",
    "score": "--net --augmented --manifest --method --alpha-steps --beta-steps --sample-cap "
             "--out",
    "select": "--scores --q --use-raw --json-out --csv-out",
    "evaluate": "--selection --scores --manifest --out",
    "run": "--config --functions --dataset --response-column --task --n --p --q "
           "--repetitions --method --calibration --coupling --learning-rate --epochs "
           "--batch-size --l1-filter-penalty --l1-mlp-penalty --grad-clip --s-scale --seed "
           "--no-intermediates --out",
}

CLI_REQUIRED = {
    "simulate": ["--function", "F1", "--out", "x"],
    "knockoff": ["--data", "x", "--augmented-out", "x", "--model-out", "x"],
    "train": ["--data", "x", "--augmented", "x", "--net-out", "x"],
    "score": ["--net", "x", "--augmented", "x", "--out", "x"],
    "select": ["--scores", "x", "--json-out", "x"],
    "evaluate": ["--selection", "x", "--scores", "x", "--manifest", "x", "--out", "x"],
    "run": [],
}

_TRAIN = ("learning_rate epochs batch_size l1_filter_penalty l1_mlp_penalty grad_clip")

# Options whose default is a config field's default: (config, field names).
CLI_CONFIG_DEFAULTS = {
    "simulate": [(SimulationSpec("F1"), "n p seed")],
    "knockoff": [(ExperimentConfig(), "ridge s_scale")],
    "train": [(TrainConfig(), _TRAIN + " validation_fraction"),
              (ExperimentConfig(), "coupling")],
    "score": [(ExperimentConfig(), "method"),
              (AttributionConfig(), "alpha_steps beta_steps sample_cap")],
    "select": [(ExperimentConfig(), "q")],
    "evaluate": [],
    "run": [(TrainConfig(), _TRAIN),
            (ExperimentConfig(), "task n p q repetitions method calibration coupling "
                                 "s_scale seed")],
}


@pytest.mark.parametrize("command", sorted(CLI_OPTIONS))
def test_cli_options_and_defaults_come_from_configs(command):
    args = cli.build_parser().parse_args([command] + CLI_REQUIRED[command])
    names = {"--" + dest.replace("_", "-") for dest in vars(args)} - {"--command", "--func"}
    assert names == set(CLI_OPTIONS[command].split())
    for config, fields in CLI_CONFIG_DEFAULTS[command]:
        for name in fields.split():
            default = getattr(config, name)
            assert getattr(args, name) == default and type(getattr(args, name)) is type(default), name
    if command == "train":
        assert args.hidden == ExperimentConfig().hidden_sizes
        assert args.seed == 0
    if command == "run":
        assert args.functions == ",".join(ExperimentConfig().functions)


# Per command, the module and name of the stage call it hands its configs to,
# and its required arguments; "{d}" is the directory of ``malformed_dir``.
STAGE_CALLS = {
    "simulate": (cli, "generate", "simulate --function F6 --out {d}/x.csv"),
    "train": (cli.harness, "fit_network",
              "train --data {d}/data.csv --augmented {d}/aug.csv --net-out {d}/x.npz"),
    "score": (cli, "compute_scores", "score --net {d}/net.npz --augmented {d}/aug.csv "
                                     "--out {d}/x.csv"),
    "run": (cli.harness, "run_experiment", "run --out {d}/x_out"),
}


class _StageCalled(Exception):
    """Raised in place of a stage call; ``args[0]`` maps its parameters to their values."""


def _non_default(action):
    """A value for the option ``action`` other than its default, valid for its config."""
    if action.choices:
        return next(choice for choice in action.choices if choice != action.default)
    if action.dest == "functions":
        return "F2,F3"
    return action.default + 1 if type(action.default) is int else action.default / 2 or 0.25


@pytest.mark.parametrize("command", sorted(STAGE_CALLS))
def test_cli_every_declared_option_reaches_its_config(command, malformed_dir, monkeypatch):
    declared = []  # (config class, option) of every option that _fields declares
    declare = cli._fields

    def record(parser, cls, *names, **extra):
        declare(parser, cls, *names, **extra)
        if parser.prog == f"knockint {command}":
            declared.extend((cls, next(a for a in parser._actions if a.dest == name))
                            for name in names)

    with monkeypatch.context() as m:
        m.setattr(cli, "_fields", record)
        cli.build_parser()
    owner, stage, argv = STAGE_CALLS[command]
    signature = inspect.signature(getattr(owner, stage))

    def called(*args, **kwargs):
        raise _StageCalled(signature.bind(*args, **kwargs).arguments)

    monkeypatch.setattr(owner, stage, called)
    runs = [([], declared)]
    if command == "run":  # --task binary needs --dataset, which takes no simulation option
        runs = [([], [(c, a) for c, a in declared if a.dest in SIMULATION_FIELDS]),
                (["--dataset", "x.csv"], [(c, a) for c, a in declared
                                          if a.dest not in SIMULATION_FIELDS])]
    for extra, options in runs:
        values = {action.dest: _non_default(action) for _, action in options}
        given = [text for _, action in options
                 for text in (action.option_strings[0], str(values[action.dest]))]
        with pytest.raises(_StageCalled) as stage_call:
            cli.main(argv.format(d=malformed_dir).split() + extra + given)
        arguments = stage_call.value.args[0]
        held = [*arguments.values(), *(getattr(v, f.name) for v in arguments.values()
                                       if is_dataclass(v) for f in fields(v))]
        for cls, action in options:
            configs = [v for v in held if isinstance(v, cls)]
            got = getattr(configs[0], action.dest) if configs else arguments[action.dest]
            assert (",".join(got) if isinstance(got, list) else got) == values[action.dest], (
                action.dest)
        assert len(values) == len(options) > 0
