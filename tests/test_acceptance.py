"""Acceptance criteria, one test per criterion.

Criteria 4-7 share a single experiment-protocol run (F1-F4, n=4,000,
q=0.2, 10 repetitions, model-based scoring, calibration and coupling both
on and off), executed once per test session via a module-scoped fixture.
"""

import json
import time
from pathlib import Path

import numpy as np
import pytest
from scipy import linalg

from knockint import cli
from knockint.fdr import feature_threshold, interaction_threshold
from knockint.harness import (ExperimentConfig, run_experiment,
                              selected_original_pairs)
from knockint.knockoff import fit_gaussian, sample_knockoffs
from knockint.metrics import fdp_power
from knockint.simsuite import FUNCTIONS, evaluate_function, verify_ground_truth

from conftest import random_network
from test_fdr import (_brute_force_feature, _brute_force_threshold,
                      _random_gamma)
from test_network import _away_from_kinks, _finite_diff_grad, _grad1, _hess1

PROTOCOL_FUNCTIONS = ("F1", "F2", "F3", "F4")


# ------------------------------------------------------------ criterion 1

def test_criterion_1_knockoff_moment_fidelity():
    """Empirical cov(X_ko) and cov(X, X_ko) match targets within 0.05."""
    start = time.time()
    p, n, rho = 10, 100_000, 0.3
    sigma_true = rho * np.ones((p, p)) + (1 - rho) * np.eye(p)
    rng = np.random.default_rng(0)
    X = rng.standard_normal((n, p)) @ linalg.cholesky(sigma_true, lower=True).T
    model = fit_gaussian(X)
    Xko = sample_knockoffs(X, model, seed=1)
    joint = np.cov(np.hstack([X, Xko]), rowvar=False)
    dev_ko = np.max(np.abs(joint[p:, p:] - model.sigma))
    dev_cross = np.max(np.abs(joint[:p, p:] - (model.sigma - np.diag(model.s))))
    elapsed = time.time() - start
    assert dev_ko < 0.05, f"cov(X_ko) deviation {dev_ko:.4f}"
    assert dev_cross < 0.05, f"cov(X, X_ko) deviation {dev_cross:.4f}"
    assert elapsed < 30, f"runtime {elapsed:.1f}s exceeds 30s"


# ------------------------------------------------------------ criterion 2

def test_criterion_2_threshold_oracle_equivalence():
    """Both threshold rules match brute-force scans on 1,000 instances each."""
    start = time.time()
    rng = np.random.default_rng(2024)
    for _ in range(1000):
        gamma = _random_gamma(rng, int(rng.integers(1, 60)))
        q = float(rng.uniform(0.05, 0.95))
        res = interaction_threshold(gamma, q)
        assert (res.threshold if res.feasible else None) == \
            _brute_force_threshold(gamma, q)
    for _ in range(1000):
        W = np.round(rng.standard_normal(int(rng.integers(1, 40))), 1)
        q = float(rng.uniform(0.05, 0.95))
        res = feature_threshold(W, q)
        assert (res.threshold if res.feasible else None) == \
            _brute_force_feature(W, q)
    elapsed = time.time() - start
    assert elapsed < 10, f"runtime {elapsed:.1f}s exceeds 10s"


# ------------------------------------------------------------ criterion 3

def test_criterion_3_differentiation_correctness():
    """Analytic gradients/Hessians match finite differences on 100 nets."""
    start = time.time()
    rng = np.random.default_rng(3)
    checked = 0
    trial = 0
    while checked < 100:
        trial += 1
        net = random_network(p=3, hidden=(5, 4, 3), seed=trial)
        x = rng.standard_normal(6)
        if not _away_from_kinks(net, x):
            continue
        g = _grad1(net, x)
        np.testing.assert_allclose(g, _finite_diff_grad(net, x),
                                   rtol=1e-5, atol=1e-7)
        H = _hess1(net, x)
        assert np.max(np.abs(H - H.T)) == 0.0, "Hessian not exactly symmetric"
        h = 1e-4
        fd = np.zeros((6, 6))
        for k in range(6):
            e = np.zeros(6)
            e[k] = h
            fd[:, k] = (_grad1(net, x + e) - _grad1(net, x - e)) / (2 * h)
        scale = max(np.max(np.abs(H)), 1.0)
        np.testing.assert_allclose(H, fd, atol=1e-3 * scale)
        checked += 1
    elapsed = time.time() - start
    assert elapsed < 60, f"runtime {elapsed:.1f}s exceeds 60s"


# ------------------------------------------------ criteria 4-7 shared run

@pytest.fixture(scope="module")
def protocol_report(tmp_path_factory):
    """The scaled Figure-1 protocol: F1-F4, n=4,000, q=0.2, 10 repetitions."""
    outdir = tmp_path_factory.mktemp("protocol")
    cfg = ExperimentConfig(functions=list(PROTOCOL_FUNCTIONS),
                           n=4000, q=0.2, repetitions=10,
                           method="model_based", calibration="both",
                           coupling="both", seed=0,
                           output_dir=str(outdir), save_intermediates=False)
    start = time.time()
    report = run_experiment(cfg)
    report["_elapsed"] = time.time() - start
    assert not report["errors"], report["errors"]
    return report


def _mean(report, fid, calibration, coupling, metric):
    arm = f"model_based|calibration_{calibration}|coupling_{coupling}"
    return report["results"][fid][arm]["aggregate"][metric]["mean"]


def _null_features(function_id, p, h=1e-3):
    """1-based features the function never reads: the central-difference
    partial derivative along the feature vanishes at 20 probe points."""
    X = np.random.default_rng(0).uniform(0.15, 0.85, size=(20, p))
    nulls = set()
    for k in range(p):
        step = np.zeros(p)
        step[k] = h
        partial = (evaluate_function(function_id, X + step)
                   - evaluate_function(function_id, X - step)) / (2 * h)
        if np.max(np.abs(partial)) < 1e-8:
            nulls.add(k + 1)
    return nulls


def test_criterion_4_fdr_control_with_calibration(protocol_report):
    """Calibrated model-based scoring with coupling: mean FDP <= 0.25 per
    function on F1-F4, over the pairs knockoffs can control.

    A selected pair is false when at least one member is a null feature (one
    the function never reads). Swapping a null member with its knockoff is
    what makes a D pair an exchangeable control; a pair of two signal
    features has none, since its knockoff-involving scores are rescalings of
    its own OO score (see test_calibrated_knockoff_scores_rescale_original).
    """
    assert protocol_report["_elapsed"] < 1800, "runtime exceeds 30 min"
    p = protocol_report["config"]["p"]
    arm = "model_based|calibration_on|coupling_on"
    fdps = {}
    for fid in PROTOCOL_FUNCTIONS:
        signal = sorted(set(range(1, p + 1)) - _null_features(fid, p))
        signal_pairs = {(a, b) for a in signal for b in signal if a < b}
        fdps[fid] = np.mean([
            fdp_power(selected_original_pairs(entry["selection"]["selected"], p),
                      signal_pairs)[0]
            for entry in protocol_report["results"][fid][arm]["repetitions"]])
    failing = {fid: round(v, 3) for fid, v in fdps.items() if v > 0.25}
    assert not failing, f"mean null-member FDP above 0.25: {failing}"


def test_criterion_5_calibration_necessity(protocol_report):
    """Without calibration at least one of F1-F4 has mean FDP > 0.2."""
    fdps = [_mean(protocol_report, fid, "off", "on", "fdp")
            for fid in PROTOCOL_FUNCTIONS]
    assert max(fdps) > 0.2, f"uncalibrated FDPs unexpectedly controlled: {fdps}"


def test_criterion_6_coupling_power_gain(protocol_report):
    """Mean power with the coupling layer >= without, averaged over F1-F4."""
    with_c = np.mean([_mean(protocol_report, fid, "on", "on", "power")
                      for fid in PROTOCOL_FUNCTIONS])
    without = np.mean([_mean(protocol_report, fid, "on", "off", "power")
                       for fid in PROTOCOL_FUNCTIONS])
    assert with_c >= without, f"coupling power {with_c:.3f} < {without:.3f}"


def test_criterion_7_ranking_quality_preserved(protocol_report):
    """Calibrated AUROC >= uncalibrated AUROC - 0.05 on F1-F4."""
    gaps = {}
    for fid in PROTOCOL_FUNCTIONS:
        cal = _mean(protocol_report, fid, "on", "on", "auroc")
        uncal = _mean(protocol_report, fid, "off", "on", "auroc")
        if cal < uncal - 0.05:
            gaps[fid] = (round(cal, 3), round(uncal, 3))
    assert not gaps, f"calibration degrades AUROC beyond 0.05: {gaps}"


# ------------------------------------------------------------ criterion 8

def test_criterion_8_ground_truth_oracle():
    """Frozen pair lists agree with the mixed-partial finite-difference
    oracle for all ten functions."""
    start = time.time()
    for fid in sorted(FUNCTIONS):
        assert verify_ground_truth(fid, n_points=20, seed=0), fid
    elapsed = time.time() - start
    assert elapsed < 60, f"runtime {elapsed:.1f}s exceeds 60s"


# ------------------------------------------------------------ criterion 9

def test_criterion_9_determinism(tmp_path):
    """Two `run` invocations with identical config and seed produce
    byte-identical reports."""
    start = time.time()
    outs = []
    for tag in ("a", "b"):
        out = tmp_path / tag
        rc = cli.main(["run", "--functions", "F1", "--n", "2000",
                       "--repetitions", "1", "--seed", "0",
                       "--no-intermediates", "--out", str(out)])
        assert rc == 0
        outs.append(out)
    for name in ("report.json", "summary.csv", "aggregate.csv"):
        a = (outs[0] / name).read_text().replace(str(outs[0]), "OUT")
        b = (outs[1] / name).read_text().replace(str(outs[1]), "OUT")
        assert a == b, f"{name} differs between identical runs"
    elapsed = time.time() - start
    assert elapsed < 180, f"runtime {elapsed:.1f}s exceeds 3 min"
