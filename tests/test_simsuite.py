"""Tests for the simulation benchmark suite and its ground-truth oracle."""

import json

import numpy as np
import pytest

from knockint.exceptions import ConfigurationError, GenerationError
from knockint.simsuite import (FUNCTIONS, GROUND_TRUTH_PAIRS, Dataset,
                               SimulationSpec, evaluate_function, generate,
                               mixed_partial, read_dataset_csv,
                               verify_ground_truth, write_dataset_csv)


def test_function_ids():
    assert set(FUNCTIONS) == {f"F{k}" for k in range(1, 11)}
    assert set(GROUND_TRUTH_PAIRS) == set(FUNCTIONS)


def test_f1_hand_value_at_half():
    # F1 at x = (0.5, ..., 0.5):
    #   pi^(x1*x2) * sqrt(2*x3) - asin(x4) + log(x3+x5) - (x9/x10)*sqrt(x7/x8) - x2*x7
    x = np.full((1, 10), 0.5)
    expect = (np.pi ** 0.25 * np.sqrt(1.0) - np.arcsin(0.5) + np.log(1.0)
              - 1.0 * np.sqrt(1.0) - 0.25)
    got = evaluate_function("F1", x)[0]
    assert got == pytest.approx(expect, rel=1e-12)
    assert expect == pytest.approx(np.pi ** 0.25 - np.pi / 6 - 1.25)


def test_generate_deterministic():
    spec = SimulationSpec("F3", n=100, p=12, seed=9)
    a, b = generate(spec), generate(spec)
    np.testing.assert_array_equal(a.X, b.X)
    np.testing.assert_array_equal(a.y, b.y)


def test_generate_uniform_support_and_split():
    spec = SimulationSpec("F6", n=1000, p=12, seed=0)
    ds = generate(spec)
    assert ds.X.shape == (1000, 12)
    assert np.all((ds.X > 0) & (ds.X < 1))
    Xtr, ytr = ds.train
    Xte, yte = ds.test
    assert len(ytr) == 500 and len(yte) == 500
    np.testing.assert_array_equal(np.vstack([Xtr, Xte]), ds.X)


def test_noise_features_never_read():
    # Features beyond x10 must not influence the response.
    spec = SimulationSpec("F5", n=50, p=15, seed=1)
    ds = generate(spec)
    X2 = ds.X.copy()
    X2[:, 10:] = 0.123
    np.testing.assert_array_equal(evaluate_function("F5", X2), ds.y)


def test_all_functions_finite_everywhere():
    rng = np.random.default_rng(0)
    X = rng.uniform(size=(20_000, 10))
    for fid in FUNCTIONS:
        y = evaluate_function(fid, X)
        assert np.all(np.isfinite(y)), fid


def test_spec_validation():
    with pytest.raises(ConfigurationError):
        SimulationSpec("F1", p=9)
    with pytest.raises(ConfigurationError):
        SimulationSpec("F1", n=1)
    with pytest.raises(ConfigurationError):
        SimulationSpec("F99")


def test_ground_truth_paper_worked_example():
    # x8*x9*x10 inside F5 decomposes into all within-term pairs.
    gt = GROUND_TRUTH_PAIRS["F5"]
    assert {(8, 9), (8, 10), (9, 10)} <= gt
    assert {(1, 2), (1, 3), (2, 3), (4, 5)} <= gt


def test_ground_truth_pairs_within_first_ten():
    for fid, pairs in GROUND_TRUTH_PAIRS.items():
        for i, j in pairs:
            assert 1 <= i < j <= 10, (fid, i, j)


def test_mixed_partial_product_term():
    # d2/dx8 dx9 of F5's x8*x9*x10 term is x10 exactly.
    point = np.full(10, 0.4)
    got = mixed_partial("F5", 8, 9, point)
    assert got == pytest.approx(0.4, rel=1e-4)


def test_mixed_partial_additive_pair_is_zero():
    # x6 and x7 appear in F5 only through |x6 + x7|, which is additive on
    # (0,1); the mixed partial vanishes identically in-domain.
    point = np.full(10, 0.3)
    assert abs(mixed_partial("F5", 6, 7, point)) < 1e-8


@pytest.mark.parametrize("fid", sorted(FUNCTIONS))
def test_oracle_confirms_frozen_ground_truth(fid):
    assert verify_ground_truth(fid, n_points=20, seed=0)


def test_oracle_rejects_a_wrong_pair_list(monkeypatch):
    truth = GROUND_TRUTH_PAIRS["F5"]
    for wrong in (truth - {(8, 9)}, truth | {(6, 7)}):
        monkeypatch.setitem(GROUND_TRUTH_PAIRS, "F5", wrong)
        assert not verify_ground_truth("F5", n_points=20, seed=0)


def test_dataset_csv_roundtrip(tmp_path):
    spec = SimulationSpec("F7", n=40, p=11, seed=3)
    ds = generate(spec)
    path = tmp_path / "data.csv"
    mpath = tmp_path / "manifest.json"
    write_dataset_csv(path, ds, mpath, spec)
    header = path.read_text().splitlines()[0]
    assert header == ",".join([f"x{k}" for k in range(1, 12)] + ["y"])
    manifest = json.loads(mpath.read_text())
    assert manifest["n_train"] == ds.n_train
    assert {tuple(pr) for pr in manifest["ground_truth_pairs"]} == ds.ground_truth
    back = read_dataset_csv(path, mpath)
    np.testing.assert_array_equal(back.X, ds.X)
    np.testing.assert_array_equal(back.y, ds.y)
    assert back.ground_truth == ds.ground_truth
    assert back.n_train == ds.n_train
