"""Tests for the labeled score set and knockoff-aware thresholds."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from knockint.exceptions import ConfigurationError, ContractViolation
from knockint.fdr import (CLASSES, PAIR_DTYPE, build_gamma, feature_threshold,
                          interaction_threshold, knockoff_stats,
                          write_selection_csv, write_selection_json)


def _symmetric(p, rng, sparsity=0.0):
    n = 2 * p
    S = np.abs(rng.standard_normal((n, n)))
    if sparsity:
        S[rng.uniform(size=(n, n)) < sparsity] = 0.0
    S = (S + S.T) / 2
    return S


# ---------------------------------------------------------------- build_gamma

def test_gamma_p2_pairs():
    S = _symmetric(2, np.random.default_rng(0))
    gamma = build_gamma(S)
    pairs = set(zip((gamma["i"] + 1).tolist(), (gamma["j"] + 1).tolist()))
    assert pairs == {(1, 2), (1, 4), (2, 3), (3, 4)}


def test_gamma_p1_empty():
    S = _symmetric(1, np.random.default_rng(0))
    assert len(build_gamma(S)) == 0


def test_gamma_p3_class_counts():
    S = _symmetric(3, np.random.default_rng(0))
    gamma = build_gamma(S)
    counts = dict(zip(CLASSES, np.bincount(gamma["n_ko"], minlength=3).tolist()))
    assert counts == {"OO": 3, "D": 6, "DD": 3}
    assert len(gamma) == 2 * 3 * (2 * 3 - 1) // 2 - 3


def test_gamma_count_formula():
    for p in (2, 4, 7):
        S = _symmetric(p, np.random.default_rng(p))
        assert len(build_gamma(S)) == 2 * p * (2 * p - 1) // 2 - p


def test_gamma_matches_pair_loop():
    # Reference: the pair loop, row-major over i < j, skipping j = i + p.
    p = 4
    S = _symmetric(p, np.random.default_rng(4))
    expect = [(i, j, S[i, j], (i >= p) + (j >= p))
              for i in range(2 * p) for j in range(i + 1, 2 * p) if j != i + p]
    assert build_gamma(S).tolist() == expect


def test_gamma_rejects_asymmetric():
    S = _symmetric(2, np.random.default_rng(0))
    S[0, 1] += 1.0
    with pytest.raises(ContractViolation):
        build_gamma(S)


# ---------------------------------------------------------------- threshold

def _gamma(*rows):
    """A pair-set array from (i, j, score, class) rows."""
    return np.array([(i, j, s, CLASSES.index(k)) for i, j, s, k in rows], dtype=PAIR_DTYPE)


def test_threshold_spec_example_basic():
    # OO = {5, 4, 3}, D = {2.5}, q = 0.5. At t=2.5 the estimate is
    # (1+1)/3 = 2/3 > q; at t=3 it is (1+0)/3 = 1/3 <= q.
    gamma = _gamma((0, 1, 5.0, "OO"), (0, 2, 4.0, "OO"), (1, 2, 3.0, "OO"),
                   (0, 5, 2.5, "D"))
    res = interaction_threshold(gamma, 0.5)
    assert res.threshold == 3.0
    assert {(g[0], g[1]) for g in res.selected} == {(0, 1), (0, 2), (1, 2)}
    assert res.estimated_fdp == pytest.approx(1 / 3)


def test_threshold_none_feasible_when_knockoffs_dominate():
    gamma = _gamma((0, 1, 1.0, "OO"),
                   (0, 5, 9.0, "D"), (1, 4, 7.0, "D"))
    res = interaction_threshold(gamma, 0.1)
    assert not res.feasible
    assert res.selected == []


def test_threshold_dd_pairs_do_not_enter_estimate():
    # OO = {5, 4, 4, 4}, D = {4}: at t=4 the estimate is (1+1)/4 = 0.5.
    # DD pairs control D pairs, not OO pairs, so adding them at or above the
    # threshold leaves the threshold and the estimate as they are; they are
    # still counted.
    base = [(0, 1, 5.0, "OO"), (0, 2, 4.0, "OO"), (1, 2, 4.0, "OO"),
            (2, 3, 4.0, "OO"), (0, 5, 4.0, "D")]
    for dd_scores in ([], [4.0, 4.0, 4.0], [6.0, 6.0], [4.5]):
        gamma = _gamma(*base, *[(4, 5 + k, s, "DD") for k, s in enumerate(dd_scores)])
        res = interaction_threshold(gamma, 0.5)
        assert res.threshold == 4.0
        assert res.estimated_fdp == pytest.approx(0.5)
        assert res.counts == {"OO": 4, "D": 1, "DD": len(dd_scores)}
    # A second D pair tips t=4 over q, (1+2)/4 = 0.75, and no number of DD
    # pairs brings it back; t=5 has one OO pair and (1+1)/1 = 2. (A rule that
    # subtracts 2 per DD pair would go below zero with three DD pairs at 4.)
    extra_d = [(1, 6, 7.0, "D")]
    for dd_scores in ([], [4.0, 4.0, 4.0]):
        gamma = _gamma(*base, *extra_d, *[(4, 5 + k, s, "DD")
                                          for k, s in enumerate(dd_scores)])
        assert not interaction_threshold(gamma, 0.5).feasible


def test_threshold_empty_gamma():
    res = interaction_threshold([], 0.2)
    assert not res.feasible


def test_threshold_rejects_bad_q():
    gamma = _gamma((0, 1, 1.0, "OO"))
    with pytest.raises(ConfigurationError):
        interaction_threshold(gamma, 0.0)
    with pytest.raises(ConfigurationError):
        interaction_threshold(gamma, 1.0)


def _brute_force_threshold(gamma, q):
    """Independent oracle: scan every unique nonzero score directly."""
    candidates = sorted({float(g["score"]) for g in gamma if g["score"] > 0})
    for t in candidates:
        above = [g for g in gamma if g["score"] >= t]
        n_oo = sum(1 for g in above if CLASSES[g["n_ko"]] == "OO")
        n_d = sum(1 for g in above if CLASSES[g["n_ko"]] == "D")
        if (1 + n_d) / max(n_oo, 1) <= q:
            return t
    return None


def _random_gamma(rng, n):
    klasses = rng.choice(["OO", "D", "DD"], size=n)
    scores = np.round(np.abs(rng.standard_normal(n)), 2)  # rounded: force ties
    scores[rng.uniform(size=n) < 0.2] = 0.0
    out = []
    for k in range(n):
        i = int(rng.integers(0, 10))
        out.append((i, i + 1 + int(rng.integers(0, 5)),
                    float(scores[k]), str(klasses[k])))
    return _gamma(*out)


def test_threshold_matches_brute_force_randomized():
    rng = np.random.default_rng(42)
    for trial in range(300):
        gamma = _random_gamma(rng, int(rng.integers(1, 40)))
        q = float(rng.uniform(0.05, 0.95))
        res = interaction_threshold(gamma, q)
        expect = _brute_force_threshold(gamma, q)
        assert (res.threshold if res.feasible else None) == expect


@given(st.lists(st.tuples(st.sampled_from(["OO", "D", "DD"]),
                          st.integers(0, 8)), min_size=1, max_size=30),
       st.floats(0.05, 0.95))
@settings(max_examples=200, deadline=None)
def test_threshold_oracle_property(items, q):
    # Integer-valued scores guarantee heavy ties; the scan must still agree
    # with the brute-force oracle exactly.
    gamma = _gamma(*[(k, k + 11, float(s), klass) for k, (klass, s) in enumerate(items)])
    res = interaction_threshold(gamma, q)
    assert (res.threshold if res.feasible else None) == _brute_force_threshold(gamma, q)


@given(st.lists(st.tuples(st.sampled_from(["OO", "D", "DD"]),
                          st.integers(0, 8)), min_size=1, max_size=30),
       st.floats(0.05, 0.45), st.floats(0.05, 0.45))
@settings(max_examples=100, deadline=None)
def test_threshold_monotone_in_q(items, q1, dq):
    # Raising q can only enlarge (or keep) the selected set.
    gamma = _gamma(*[(k, k + 11, float(s), klass) for k, (klass, s) in enumerate(items)])
    lo = interaction_threshold(gamma, q1)
    hi = interaction_threshold(gamma, q1 + dq)
    assert set(map(tuple, lo.selected)) <= set(map(tuple, hi.selected))


def test_threshold_permutation_equivariant():
    rng = np.random.default_rng(7)
    gamma = _random_gamma(rng, 25)
    res = interaction_threshold(gamma, 0.3)
    shuffled = gamma.copy()
    rng.shuffle(shuffled)
    res2 = interaction_threshold(shuffled, 0.3)
    assert res.threshold == res2.threshold
    assert sorted(map(tuple, res.selected)) == sorted(map(tuple, res2.selected))


def test_threshold_global_null_selection_rate():
    # All scores i.i.d.: the OO, D and DD versions of every pair are
    # exchangeable, every selection is wholly false, and the FDR equals the
    # share of draws that select anything. It must stay at or below q.
    rng = np.random.default_rng(0)
    q, draws = 0.2, 500
    hits = sum(interaction_threshold(build_gamma(_symmetric(10, rng)), q).feasible
               for _ in range(draws))
    assert hits / draws <= q, f"selected in {hits} of {draws} null draws"


def test_selection_purity():
    # The OO block carries signal (every OO score exceeds every
    # knockoff-involving one), so the scan is feasible; only OO pairs may
    # come out, even though the threshold reaches below some D and DD pairs.
    rng = np.random.default_rng(3)
    S = _symmetric(5, rng)
    S[:5, :5] += 3.0
    res = interaction_threshold(build_gamma(S), 0.9)
    assert res.feasible
    assert res.counts["D"] > 0 and res.counts["DD"] > 0
    assert res.selected
    assert all(i < 5 and j < 5 for i, j in res.selected)


# ---------------------------------------------------------------- knockoff_stats

def test_knockoff_stats_symmetric_inputs_zero():
    s1d = np.array([2.0, -1.0, 2.0, -1.0])
    np.testing.assert_array_equal(knockoff_stats(s1d), np.zeros(2))


def test_knockoff_stats_magnitude_difference():
    # W_j compares importance magnitudes, so a negative instance-based score
    # still counts as importance: (3,-1,1,2) -> (|3|-|1|, |-1|-|2|) = (2, -1).
    W = knockoff_stats(np.array([3.0, -1.0, 1.0, 2.0]))
    np.testing.assert_array_equal(W, np.array([2.0, -1.0]))


def test_knockoff_stats_antisymmetry():
    rng = np.random.default_rng(1)
    s1d = rng.standard_normal(8)
    W = knockoff_stats(s1d)
    for j in range(4):
        swapped = s1d.copy()
        swapped[j], swapped[j + 4] = s1d[j + 4], s1d[j]
        Ws = knockoff_stats(swapped)
        assert Ws[j] == -W[j]
        others = [k for k in range(4) if k != j]
        np.testing.assert_array_equal(Ws[others], W[others])


# ---------------------------------------------------------------- feature_threshold

def test_feature_threshold_spec_example():
    res = feature_threshold(np.array([5.0, 4.0, 3.0, -1.0]), 0.5)
    assert res.threshold == 3.0
    assert res.selected == [0, 1, 2]



def test_feature_threshold_to_dict(tmp_path):
    W = np.array([5, 4, 3, 2, 1, 6, 7, 8, 9, 10, -0.1])
    res = feature_threshold(W, 0.2)
    assert res.selected == list(range(10))
    assert res.to_dict()["selected"] == res.selected
    path = tmp_path / "sel.json"
    write_selection_json(path, res)
    assert json.loads(path.read_text())["selected"] == res.selected


def test_feature_threshold_all_negative():
    res = feature_threshold(np.array([-1.0, -2.0]), 0.5)
    assert not res.feasible


def test_feature_threshold_scale_equivariant():
    W = np.array([5.0, 4.0, -2.0, 1.0, -0.5])
    a = feature_threshold(W, 0.4)
    b = feature_threshold(3.0 * W, 0.4)
    assert a.selected == b.selected


def _brute_force_feature(W, q):
    candidates = sorted({abs(w) for w in W if w != 0})
    for t in candidates:
        neg = np.sum(W <= -t)
        pos = np.sum(W >= t)
        if pos > 0 and (1 + neg) / pos <= q:
            return t
    return None


@given(st.lists(st.integers(-6, 6), min_size=1, max_size=20),
       st.floats(0.05, 0.95))
@settings(max_examples=200, deadline=None)
def test_feature_threshold_oracle_property(ws, q):
    W = np.array(ws, dtype=float)
    res = feature_threshold(W, q)
    assert (res.threshold if res.feasible else None) == _brute_force_feature(W, q)


# ---------------------------------------------------------------- io

def test_selection_outputs(tmp_path):
    rng = np.random.default_rng(5)
    S = _symmetric(3, rng)
    gamma = build_gamma(S)
    res = interaction_threshold(gamma, 0.8)
    jpath = tmp_path / "sel.json"
    write_selection_json(jpath, res)
    blob = json.loads(jpath.read_text())
    assert blob["q"] == 0.8
    assert blob["threshold"] == res.threshold
    cpath = tmp_path / "sel.csv"
    write_selection_csv(cpath, gamma, res)
    lines = cpath.read_text().splitlines()
    assert len(lines) == len(gamma) + 1  # header + one row per labeled score
