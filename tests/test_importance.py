"""Tests for model-based and instance-based importance scores and the
calibration rule."""

import copy
import csv
from collections import Counter

import numpy as np
import pytest

from knockint.exceptions import ConfigurationError, ContractViolation, ValidationError
from knockint.fdr import CLASSES, build_gamma
from knockint.importance import (EPSILON_FLOOR, AttributionConfig, ImportanceScores,
                                 calibrate, compute_scores, instance_based_1d,
                                 instance_based_2d, model_based_1d,
                                 model_based_2d, read_scores_csv,
                                 write_scores_csv)
from knockint.network import (CoupledNetwork, TrainConfig, batch_input_hessian, init_network,
                              raw_output, train)

from conftest import peak_mib, random_network


def _hand_net(z, z_tilde, w0, w1, w2, w3, hidden=None):
    w = [np.asarray(m, dtype=float) for m in (w0, w1, w2, w3)]
    return CoupledNetwork(
        z=np.asarray(z, dtype=float), z_tilde=np.asarray(z_tilde, dtype=float),
        w=w, b=[np.zeros(m.shape[1]) for m in w],
        task="regression",
        hidden_sizes=hidden or tuple(m.shape[1] for m in w[:3]),
        coupling=True)


# ---------------------------------------------------------------- model-based

def test_model_2d_zero_filters():
    net = random_network(p=3, seed=0)
    net.z = np.zeros(3)
    net.z_tilde = np.zeros(3)
    np.testing.assert_array_equal(model_based_2d(net), np.zeros((6, 6)))


def test_model_2d_disjoint_first_layer_rows():
    # W0 = I2: rows have disjoint support, the elementwise product vanishes.
    net = _hand_net([1, 1], [0, 0], np.eye(2), np.ones((2, 1)),
                    np.ones((1, 1)), np.ones((1, 1)))
    s2d = model_based_2d(net)
    assert s2d[0, 1] == 0.0


def test_model_2d_symmetric():
    for seed in range(3):
        s2d = model_based_2d(random_network(p=4, seed=seed))
        assert np.array_equal(s2d, s2d.T)


def test_model_2d_hand_value():
    # p=1, p1=2: row = z*W0 = (2, 6); W_agg = W1@W2@W3 = (1, 1)^T
    # s2d[orig, orig] = sum_k row_k^2 * wagg_k = 4 + 36 = 40
    # s2d[orig, ko]   = (2*1 + 6*3) * ... with z_tilde row = (1, 3): 2*1+6*3 = 20
    net = _hand_net([2.0], [1.0], [[1.0, 3.0]],
                    [[1.0], [1.0]], [[1.0]], [[1.0]])
    s2d = model_based_2d(net)
    assert s2d[0, 0] == pytest.approx(40.0)
    assert s2d[0, 1] == pytest.approx(20.0)
    assert s2d[1, 1] == pytest.approx(10.0)


def test_model_1d_scalar_chain():
    net = _hand_net([2.0], [0.0], [[3.0]], [[1.0]], [[1.0]], [[5.0]])
    s1d = model_based_1d(net)
    np.testing.assert_allclose(s1d, [30.0, 0.0])


def test_model_1d_severed_knockoffs():
    net = random_network(p=4, seed=1)
    net.z_tilde = np.zeros(4)
    s1d = model_based_1d(net)
    np.testing.assert_array_equal(s1d[4:], np.zeros(4))
    s2d = model_based_2d(net)
    np.testing.assert_array_equal(s2d[4:, :], np.zeros((4, 8)))
    np.testing.assert_array_equal(s2d[:, 4:], np.zeros((8, 4)))


def test_model_1d_linear_in_last_layer():
    net = random_network(p=3, seed=2)
    base = model_based_1d(net)
    net2 = copy.deepcopy(net)
    net2.w = [w.copy() for w in net.w]
    net2.w[3] *= 4.0
    np.testing.assert_allclose(model_based_1d(net2), 4.0 * base, rtol=1e-12)


def test_model_2d_no_coupling_uses_full_first_layer():
    net = random_network(p=3, coupling=False, seed=3)
    s2d = model_based_2d(net)
    assert s2d.shape == (6, 6)
    assert np.array_equal(s2d, s2d.T)
    # without filters there is no structural zero on the knockoff block
    assert np.any(s2d[3:, 3:] != 0)


# ---------------------------------------------------------------- instance-based

def test_instance_1d_linear_completeness():
    # y = 3*x1 exactly (identity-wired positive path); baseline 0, one sample
    # with x1 = 2: integrated gradients recover the full attribution 6.
    net = _hand_net([3.0], [0.0], [[1.0]], [[1.0]], [[1.0]], [[1.0]])
    X = np.array([[2.0, 0.5]])
    cfg = AttributionConfig(alpha_steps=64, beta_steps=8,
                            baselines=[np.zeros(2)])
    s1d = instance_based_1d(net, X, cfg)
    assert s1d[0] == pytest.approx(6.0, rel=1e-9)
    assert s1d[1] == pytest.approx(0.0, abs=1e-12)



@pytest.mark.parametrize("coupling", [True, False], ids=["coupling", "dense"])
def test_instance_1d_completeness_nonlinear(coupling):
    # Integrated gradients: each sample's attributions sum to f(x) - f(x').
    # Random networks are rougher than trained ones, so 256 midpoint steps.
    for seed in range(3):
        net = random_network(p=4, hidden=(16, 8, 4), seed=seed, coupling=coupling)
        X = np.random.default_rng(seed).uniform(-2.0, 2.0, size=(6, 8))
        delta = raw_output(net, X) - raw_output(net, X.mean(axis=0)[None])[0]
        s1d = instance_based_1d(net, X, AttributionConfig(alpha_steps=256))
        assert abs(s1d.sum() - delta.sum()) <= 1e-3 * np.abs(delta).sum()


def test_instance_1d_additive_over_batches():
    net = random_network(p=3, seed=5)
    rng = np.random.default_rng(0)
    X = rng.uniform(size=(10, 6))
    cfg = AttributionConfig(alpha_steps=8, beta_steps=8,
                            baselines=[np.full(6, 0.5)])
    full = instance_based_1d(net, X, cfg)
    parts = (instance_based_1d(net, X[:4], cfg)
             + instance_based_1d(net, X[4:], cfg))
    np.testing.assert_allclose(full, parts, rtol=1e-10)


def test_instance_2d_locally_affine_is_zero():
    net = random_network(p=2, seed=6)
    net.w = [np.abs(w) for w in net.w]
    net.b = [np.abs(b) + 1.0 for b in net.b]
    net.z = np.abs(net.z)
    net.z_tilde = np.abs(net.z_tilde)
    X = np.abs(np.random.default_rng(1).standard_normal((3, 4))) + 0.1
    cfg = AttributionConfig(alpha_steps=4, beta_steps=4,
                            baselines=[np.full(4, 0.05)])
    s2d = instance_based_2d(net, X, cfg)
    np.testing.assert_allclose(s2d, np.zeros((4, 4)), atol=1e-12)


def test_instance_2d_product_interaction_dominates():
    # Train a tiny net on y = x1*x2; the (1,2) attribution must dominate
    # every other original-original off-diagonal entry.
    rng = np.random.default_rng(7)
    X = rng.uniform(size=(3000, 3))
    y = X[:, 0] * X[:, 1]
    aug = np.hstack([X, rng.uniform(size=(3000, 3))])
    net = init_network(3, hidden_sizes=(16, 8, 4), seed=0)
    trained, _ = train(net, aug[:2000], y[:2000],
                       TrainConfig(epochs=150, batch_size=64,
                                   l1_filter_penalty=0.0, l1_mlp_penalty=0.0,
                                   grad_clip=None), seed=0)
    from knockint.network import predict
    r2 = 1 - np.mean((predict(trained, aug[2000:]) - y[2000:]) ** 2) / np.var(y[2000:])
    assert r2 > 0.99
    cfg = AttributionConfig(alpha_steps=16, beta_steps=16, sample_cap=100)
    s2d = np.abs(instance_based_2d(trained, aug[2000:], cfg))
    others = [s2d[i, j] for i in range(3) for j in range(i + 1, 3)
              if (i, j) != (0, 1)]
    assert s2d[0, 1] > max(others)


def test_instance_2d_symmetric_and_finite():
    net = random_network(p=2, seed=8)
    X = np.random.default_rng(2).uniform(size=(4, 4))
    cfg = AttributionConfig(alpha_steps=6, beta_steps=6)
    s2d = instance_based_2d(net, X, cfg)
    assert np.array_equal(s2d, s2d.T)
    assert np.all(np.isfinite(s2d))


def test_instance_severed_knockoffs():
    net = random_network(p=2, seed=9)
    net.z_tilde = np.zeros(2)
    X = np.random.default_rng(3).uniform(size=(3, 4))
    cfg = AttributionConfig(alpha_steps=4, beta_steps=4)
    s1d = instance_based_1d(net, X, cfg)
    s2d = instance_based_2d(net, X, cfg)
    np.testing.assert_array_equal(s1d[2:], np.zeros(2))
    np.testing.assert_array_equal(s2d[2:, :], np.zeros((2, 4)))


@pytest.mark.parametrize("score", [instance_based_1d, instance_based_2d], ids=["1d", "2d"])
def test_instance_non_finite_sample_raises(score):
    net = random_network(p=2, seed=3)
    X = np.random.default_rng(3).uniform(size=(3, 4))
    X[1, 2] = np.nan
    cfg = AttributionConfig(alpha_steps=3, beta_steps=3, baselines=[np.zeros(4)])
    with pytest.raises(FloatingPointError, match="sample 1"):
        score(net, X, cfg)


def test_instance_2d_peak_memory():
    # One sample's mean Hessian over its 446 distinct path points (of 1,024)
    # is taken at a time, and no per-point Hessian is built (see the
    # network's peak test). Over all 1,024 points the peak was 19.4 MiB with
    # coupling and 34.7 MiB without; on the distinct points it is 8.8 and 15.7.
    X = np.random.default_rng(1).standard_normal((8, 60))
    for coupling, bound in ((True, 12.0), (False, 24.0)):
        net = random_network(p=30, hidden=(64, 32, 16), seed=1, scale=0.3, coupling=coupling)
        assert peak_mib(instance_based_2d, net, X, AttributionConfig(sample_cap=2)) <= bound


@pytest.mark.parametrize("coupling", [True, False], ids=["coupling", "dense"])
@pytest.mark.parametrize("steps", [(3, 2), (8, 8), (32, 32)], ids=["3x2", "8x8", "32x32"])
def test_instance_2d_equals_mean_of_per_point_hessians(coupling, steps):
    # The oracle visits every point of the alpha x beta grid, repeats
    # included, and averages the per-point Hessians.
    net = random_network(p=3, seed=11, coupling=coupling)
    rng = np.random.default_rng(11)
    X = rng.uniform(-2.0, 2.0, size=(3, 6))
    baselines = [np.zeros(6), rng.uniform(-1.0, 1.0, size=6)]
    cfg = AttributionConfig(alpha_steps=steps[0], beta_steps=steps[1], baselines=baselines)
    t = np.outer((np.arange(steps[0]) + 0.5) / steps[0],
                 (np.arange(steps[1]) + 0.5) / steps[1]).ravel()
    ref = np.zeros((6, 6))
    for base in baselines:
        for x in X:
            H = batch_input_hessian(net, base + t[:, None] * (x - base)).mean(axis=0)
            ref += np.outer(x - base, x - base) * H
    ref /= len(baselines)
    s2d = instance_based_2d(net, X, cfg)
    assert np.max(np.abs(s2d - ref)) <= 1e-12 * np.max(np.abs(ref))


def test_instance_2d_takes_one_hessian_call_per_sample_and_baseline(monkeypatch):
    # The benchmark traces Hessians through this binding, one call per sample
    # and baseline, each taking the weighted mean over the sample's distinct
    # path points: at 3 x 2, a*b = 1/2 * 1/4 repeats as 1/6 * 3/4.
    import knockint.importance as importance_mod
    calls = []

    def counted(net, points, *, mean=False, weights=None):
        calls.append((points.shape, mean))
        return batch_input_hessian(net, points, mean=mean, weights=weights)

    monkeypatch.setattr(importance_mod, "batch_input_hessian", counted)
    net = random_network(p=2, seed=4)
    X = np.random.default_rng(4).uniform(size=(5, 4))
    cfg = AttributionConfig(alpha_steps=3, beta_steps=2, sample_cap=3,
                            baselines=[np.zeros(4), np.full(4, 0.5)])
    instance_based_2d(net, X, cfg)
    assert calls == [((5, 4), True)] * 6


def test_attribution_config_validation():
    for bad in ({"alpha_steps": 0}, {"beta_steps": 0}, {"sample_cap": 0}, {"baselines": "median"}, {"baselines": [[0.0, np.nan]]},
                {"baselines": [[0.0], [0.0, 1.0]]}):
        with pytest.raises(ConfigurationError, match=next(iter(bad))):
            AttributionConfig(**bad)
    cfg = AttributionConfig(baselines=[np.zeros(6)])  # 2p = 4 below
    for score in (instance_based_1d, instance_based_2d):
        with pytest.raises(ConfigurationError, match="attribution.baselines"):
            score(random_network(p=2), np.zeros((3, 4)), cfg)


# ---------------------------------------------------------------- calibration

def test_calibrate_unit_denominator():
    s2d = np.array([[0.0, -3.0], [-3.0, 0.0]])
    s1d = np.array([1.0, 1.0])
    S = calibrate(s2d, s1d)
    assert S[0, 1] == pytest.approx(3.0)


def test_calibrate_spec_arithmetic():
    s2d = np.array([[0.0, 8.0], [8.0, 0.0]])
    s1d = np.array([4.0, 4.0])
    assert calibrate(s2d, s1d)[0, 1] == pytest.approx(2.0)


def test_calibrate_floor_engages():
    s2d = np.array([[0.0, 1.0], [1.0, 0.0]])
    s1d = np.array([0.0, 5.0])
    S = calibrate(s2d, s1d)
    assert np.all(np.isfinite(S))
    assert S[0, 1] == pytest.approx(1.0 / np.sqrt(EPSILON_FLOOR))


def test_calibrate_symmetric_nonnegative():
    rng = np.random.default_rng(4)
    s2d = rng.standard_normal((6, 6))
    s2d = (s2d + s2d.T) / 2
    s1d = rng.standard_normal(6)
    S = calibrate(s2d, s1d)
    assert np.array_equal(S, S.T)
    assert np.all(S >= 0)
    assert np.all(np.isfinite(S))


def test_calibrated_knockoff_scores_rescale_original():
    # With coupling, first-layer row i+p is row i scaled by z~_i / z_i, so a
    # calibrated knockoff-involving score is its OO score times
    # sqrt(|z~_i / z_i|) per knockoff member. When training drives z~ of two
    # signal features toward zero, their pair has no live knockoff control.
    p = 5
    net = random_network(p=p, seed=11)
    scores = compute_scores(net, "model_based")
    assert np.min(np.abs(np.outer(scores.s1d, scores.s1d))) > 1e-6  # no floor
    cal = scores.calibrated
    r = np.sqrt(np.abs(net.z_tilde / net.z))
    np.testing.assert_allclose(cal[p:, :p], r[:, None] * cal[:p, :p], rtol=1e-12)
    np.testing.assert_allclose(cal[p:, p:], np.outer(r, r) * cal[:p, :p],
                               rtol=1e-12)


# ---------------------------------------------------------------- plumbing

def test_compute_scores_dispatch_and_csv(tmp_path):
    net = random_network(p=2, seed=10)
    X = np.random.default_rng(5).uniform(size=(5, 4))
    cfg = AttributionConfig(alpha_steps=4, beta_steps=4)
    for method in ("model_based", "instance_based"):
        scores = compute_scores(net, method, X, cfg)
        assert scores.method == method
        assert scores.s2d.shape == (4, 4)
        path = tmp_path / f"{method}.csv"
        write_scores_csv(path, scores)
        back = read_scores_csv(path)
        # the long format stores the labelled pairs only; the diagonal and
        # each feature's pair with its own knockoff come back as zero
        labelled = np.triu(np.ones((4, 4), dtype=bool), 1)
        labelled[[0, 1], [2, 3]] = False
        for got, want in ((back.calibrated, scores.calibrated), (back.s2d, scores.s2d)):
            np.testing.assert_allclose(got[labelled], want[labelled], rtol=1e-15)
            assert not np.any(np.triu(got, 1)[~labelled])
    with pytest.raises(ConfigurationError):
        compute_scores(net, "nope", X, cfg)


def test_quadrature_convergence_on_trained_net():
    # Instance-based scores at grid 32 vs 64 agree within 5% relative
    # Frobenius distance on a net trained on a nonlinear simulated target.
    rng = np.random.default_rng(11)
    X = rng.uniform(size=(1500, 4))
    y = np.exp(np.abs(X[:, 0] - X[:, 1])) + X[:, 2] * X[:, 3]
    aug = np.hstack([X, rng.uniform(size=(1500, 4))])
    net = init_network(4, hidden_sizes=(12, 8, 4), seed=1)
    trained, _ = train(net, aug[:1000], y[:1000],
                       TrainConfig(epochs=60, batch_size=64,
                                   l1_mlp_penalty=0.0, grad_clip=None), seed=1)
    lo = instance_based_2d(trained, aug[1000:1010],
                           AttributionConfig(alpha_steps=32, beta_steps=32))
    hi = instance_based_2d(trained, aug[1000:1010],
                           AttributionConfig(alpha_steps=64, beta_steps=64))
    rel = np.linalg.norm(hi - lo) / np.linalg.norm(hi)
    assert rel < 0.05


def test_scores_csv_rows_match_gamma(tmp_path):
    # Every written row is a labelled pair, with build_gamma's class.
    p = 4
    rng = np.random.default_rng(3)
    S = rng.exponential(size=(2 * p, 2 * p))
    S = S + S.T
    path = tmp_path / "scores.csv"
    write_scores_csv(path, ImportanceScores(s1d=np.ones(2 * p), s2d=S, calibrated=S,
                                            method="model_based"))
    with open(path, newline="") as fh:
        rows = [(int(r["i"]) - 1, int(r["j"]) - 1, r["class"]) for r in csv.DictReader(fh)]
    gamma = build_gamma(S)
    klass = [CLASSES[k] for k in gamma["n_ko"]]
    assert Counter(c for _, _, c in rows) == Counter(klass)
    assert sorted(rows) == sorted(zip(gamma["i"].tolist(), gamma["j"].tolist(), klass))


def test_read_scores_csv_peak_memory(tmp_path):
    # p = 120: 28,560 rows. The file's text and its lines are not alive with
    # a second copy of the rows.
    p = 120
    S = np.random.default_rng(2).exponential(size=(2 * p, 2 * p))
    S = S + S.T
    path = tmp_path / "scores.csv"
    write_scores_csv(path, ImportanceScores(s1d=np.ones(2 * p), s2d=S, calibrated=S,
                                            method="model_based"))
    assert peak_mib(read_scores_csv, path) <= 6.0


def test_read_scores_csv_header_only(tmp_path):
    path = tmp_path / "scores.csv"
    path.write_text("i,j,class,raw,calibrated\n")
    with pytest.raises(ValidationError):
        read_scores_csv(path)
