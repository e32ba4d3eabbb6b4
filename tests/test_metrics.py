"""Tests for AUROC, FDP/power, and cross-repetition aggregation."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import rankdata

from knockint.exceptions import ContractViolation
from knockint.metrics import EvalReport, aggregate, auroc, evaluate, fdp_power


def test_auroc_perfect_ranking():
    scores = {(1, 2): 0.9, (1, 3): 0.8, (2, 3): 0.1, (1, 4): 0.2}
    assert auroc(scores, {(1, 2), (1, 3)}) == 1.0


def test_auroc_constant_scores():
    scores = {(1, 2): 0.5, (1, 3): 0.5, (2, 3): 0.5}
    assert auroc(scores, {(1, 2)}) == 0.5


def test_auroc_spec_three_candidates():
    scores = {(1, 2): 0.9, (1, 3): 0.8, (2, 3): 0.1}
    assert auroc(scores, {(1, 2)}) == 1.0
    swapped = {(1, 2): 0.8, (1, 3): 0.9, (2, 3): 0.1}
    assert auroc(swapped, {(1, 2)}) == 0.5


def test_auroc_requires_both_classes():
    scores = {(1, 2): 0.9, (1, 3): 0.8}
    with pytest.raises(ContractViolation):
        auroc(scores, {(1, 2), (1, 3)})
    with pytest.raises(ContractViolation):
        auroc(scores, set())


def test_auroc_invariant_under_increasing_transform():
    rng = np.random.default_rng(0)
    pairs = [(i, j) for i in range(1, 6) for j in range(i + 1, 6)]
    scores = {pr: float(rng.uniform()) for pr in pairs}
    truth = {pairs[0], pairs[3], pairs[7]}
    base = auroc(scores, truth)
    for f in (lambda v: 3 * v + 2, np.exp, lambda v: v ** 3):
        assert auroc({k: float(f(v)) for k, v in scores.items()}, truth) == base


def midrank_auroc(pos, neg) -> float:
    """The rank-sum AUROC, with scipy's midranks for ties."""
    ranks = rankdata(np.array(pos + neg, dtype=float))
    n_pos, n_neg = len(pos), len(neg)
    return float((ranks[:n_pos].sum() - n_pos * (n_pos + 1) / 2) / (n_pos * n_neg))


# Small integers make ties between and within the classes common.
SCORES = st.lists(st.one_of(st.integers(-3, 3).map(float), st.floats(allow_nan=False)),
                  min_size=1, max_size=40)


@given(SCORES, SCORES)
@settings(max_examples=300, deadline=None)
def test_auroc_equals_midrank_formula(pos, neg):
    scores = {**{(1, k): v for k, v in enumerate(pos)},
              **{(2, k): v for k, v in enumerate(neg)}}
    assert auroc(scores, {(1, k) for k in range(len(pos))}) == midrank_auroc(pos, neg)


def test_fdp_power_exact_recovery():
    truth = {(1, 2), (3, 4)}
    assert fdp_power(truth, truth) == (0.0, 1.0)


def test_fdp_power_spec_arithmetic():
    truth = {(1, 2), (3, 4), (5, 6), (7, 8)}
    selected = {(1, 2), (3, 4), (1, 9)}
    fdp, power = fdp_power(selected, truth)
    assert fdp == pytest.approx(1 / 3)
    assert power == pytest.approx(2 / 4)


def test_fdp_power_empty_selection():
    assert fdp_power(set(), {(1, 2)}) == (0.0, 0.0)


def test_fdp_plus_precision_is_one():
    truth = {(1, 2), (2, 3)}
    selected = {(1, 2), (4, 5), (6, 7)}
    fdp, _ = fdp_power(selected, truth)
    precision = len(selected & truth) / len(selected)
    assert fdp + precision == pytest.approx(1.0)


def test_evaluate_bundles_metrics():
    scores = {(1, 2): 0.9, (1, 3): 0.7, (2, 3): 0.1}
    report = evaluate(scores, {(1, 2)}, {(1, 2), (1, 3)})
    assert report.auroc == 1.0
    assert report.fdp == 0.0
    assert report.power == 0.5
    assert report.n_selected == 1 and report.n_true == 2
    d = report.to_dict()
    assert set(d) >= {"auroc", "fdp", "power", "n_selected", "n_true"}


def _rep(fdp):
    return EvalReport(auroc=0.9, fdp=fdp, power=0.5, n_selected=3, n_true=4)


def test_aggregate_single_report_flags_undefined_se():
    out = aggregate([_rep(0.1)])
    assert out["fdp"]["mean"] == pytest.approx(0.1)
    assert out["fdp"]["ci95"] == [pytest.approx(0.1), pytest.approx(0.1)]
    assert out["fdp"]["se_undefined"] is True


def test_aggregate_two_reports_mean():
    out = aggregate([_rep(0.1), _rep(0.3)])
    assert out["fdp"]["mean"] == pytest.approx(0.2)
    assert out["fdp"]["se_undefined"] is False


def test_aggregate_identical_reports_zero_width():
    out = aggregate([_rep(0.25)] * 20)
    lo, hi = out["fdp"]["ci95"]
    assert lo == pytest.approx(0.25) and hi == pytest.approx(0.25)


def test_aggregate_permutation_invariant():
    reports = [_rep(v) for v in (0.0, 0.1, 0.4, 0.7)]
    a = aggregate(reports)
    b = aggregate(list(reversed(reports)))
    for key in ("auroc", "fdp", "power"):
        # summary statistics are order-free; the raw values vector keeps
        # input order as provenance
        assert a[key]["mean"] == pytest.approx(b[key]["mean"])
        assert a[key]["se"] == pytest.approx(b[key]["se"])
        assert a[key]["ci95"] == pytest.approx(b[key]["ci95"])


def test_aggregate_rejects_empty():
    with pytest.raises(ContractViolation):
        aggregate([])


@given(st.lists(st.floats(0, 1), min_size=2, max_size=30))
@settings(max_examples=50, deadline=None)
def test_aggregate_mean_within_ci(fdps):
    out = aggregate([_rep(v) for v in fdps])
    lo, hi = out["fdp"]["ci95"]
    assert lo <= out["fdp"]["mean"] <= hi
    assert out["fdp"]["mean"] == pytest.approx(float(np.mean(fdps)))
