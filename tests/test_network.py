"""Tests for the coupling-layer network: forward pass, training,
differentiation oracles, serialization."""

import copy

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from knockint.exceptions import (ConfigurationError, ContractViolation,
                                 TrainingDivergedError, ValidationError)
from knockint.network import (HESSIAN_BLOCK, CoupledNetwork, TrainConfig,
                              _forward_pass, _loss_and_param_grads, _on_buffer, _sigmoid,
                              batch_input_gradient,
                              batch_input_hessian, init_network, load_network,
                              mean_input_hessian, predict, pull_back, raw_output,
                              save_network, train)
from knockint.table import save_npz

from conftest import peak_mib, random_network


# -------------------------------------------- reference forward pass, plainly

def _elu(u):
    return np.where(u > 0, u, np.expm1(np.minimum(u, 0.0)))


def _elu_prime(u):
    return np.where(u > 0, 1.0, np.exp(np.minimum(u, 0.0)))


def _elu_second(u):
    # Left-limit convention at the kink: d2/du2 = exp(u) for u <= 0, else 0.
    return np.where(u > 0, 0.0, np.exp(np.minimum(u, 0.0)))


def _reference_forward(net, X):
    """(h0, pre-activations, activations, output) of the MLP on a batch."""
    h0 = X
    if net.coupling:
        p = net.p
        h0 = net.z * X[..., :p] + net.z_tilde * X[..., p:]
    pre, act = [], []
    h = h0
    for l in range(3):
        a = h @ net.w[l] + net.b[l]
        pre.append(a)
        h = _elu(a)
        act.append(h)
    return h0, pre, act, (h @ net.w[3] + net.b[3])[..., 0]


def _raw1(net, x):
    return raw_output(net, x[None])[0]


def _grad1(net, x):
    return batch_input_gradient(net, x[None])[0]


def _hess1(net, x):
    return batch_input_hessian(net, x[None])[0]


# ---------------------------------------------------------------- init

def test_init_filters_equal():
    net = init_network(3, hidden_sizes=(4, 3, 2), seed=7)
    np.testing.assert_array_equal(net.z, net.z_tilde)


def test_init_deterministic():
    a = init_network(3, hidden_sizes=(4, 3, 2), seed=7)
    b = init_network(3, hidden_sizes=(4, 3, 2), seed=7)
    for wa, wb in zip(a.w, b.w):
        np.testing.assert_array_equal(wa, wb)
    np.testing.assert_array_equal(a.z, b.z)


def test_init_shapes():
    net = init_network(30, hidden_sizes=(64, 32, 16))
    assert [w.shape for w in net.w] == [(30, 64), (64, 32), (32, 16), (16, 1)]
    assert [b.shape for b in net.b] == [(64,), (32,), (16,), (1,)]


def test_init_no_coupling_first_layer_width():
    net = init_network(5, hidden_sizes=(4, 3, 2), coupling=False)
    assert net.z is None and net.z_tilde is None
    assert net.w[0].shape == (10, 4)


def test_init_invalid_sizes():
    with pytest.raises(ConfigurationError):
        init_network(0)
    with pytest.raises(ConfigurationError):
        init_network(3, hidden_sizes=(4, 0, 2))


# ---------------------------------------------------------------- forward

def test_forward_zero_network():
    net = init_network(2, hidden_sizes=(3, 3, 3))
    net.z[:] = 0.0
    net.z_tilde[:] = 0.0
    for w in net.w:
        w[:] = 0.0
    assert _raw1(net, np.ones(4)) == 0.0


def test_forward_hand_evaluated_passthrough():
    # p=1, single-unit layers wired as identities; positive pre-activations
    # keep every ELU in its identity branch, so the output is just z*x.
    net = CoupledNetwork(
        z=np.array([1.0]), z_tilde=np.array([0.0]),
        w=[np.array([[1.0]])] * 4,
        b=[np.zeros(1)] * 4,
        task="regression", hidden_sizes=(1, 1, 1), coupling=True,
    )
    assert _raw1(net, np.array([2.0, 9.0])) == pytest.approx(2.0)


def test_forward_knockoff_path_severed():
    net = random_network(p=3, seed=1)
    net.z_tilde = np.zeros(3)
    x = np.array([0.3, -0.2, 0.9, 5.0, -4.0, 7.0])
    x2 = x.copy()
    x2[3:] = [1.0, 2.0, 3.0]
    assert _raw1(net, x) == _raw1(net, x2)


def test_forward_rejects_wrong_length():
    net = random_network(p=3)
    for fn in (raw_output, predict, batch_input_gradient, batch_input_hessian):
        with pytest.raises(ContractViolation):
            fn(net, np.zeros((1, 5)))


def test_binary_forward_in_unit_interval():
    net = random_network(p=3, seed=5, task="binary")
    vals = predict(net, np.random.default_rng(0).standard_normal((20, 6)))
    assert np.all((vals > 0) & (vals < 1))


# ---------------------------------------------------------------- gradients

def _finite_diff_grad(net, x, h=1e-4):
    g = np.zeros_like(x)
    for k in range(len(x)):
        e = np.zeros_like(x)
        e[k] = h
        g[k] = (raw_output(net, (x + e)[None])[0]
                - raw_output(net, (x - e)[None])[0]) / (2 * h)
    return g


def _away_from_kinks(net, x, margin=1e-2):
    _, pre, _, _ = _reference_forward(net, x[None])
    return all(np.min(np.abs(a)) >= margin for a in pre)


def test_gradient_zero_network():
    net = init_network(2, hidden_sizes=(3, 3, 3))
    net.z[:] = net.z_tilde[:] = 0.0
    for w in net.w:
        w[:] = 0.0
    np.testing.assert_array_equal(_grad1(net, np.ones(4)), np.zeros(4))


def test_gradient_matches_finite_differences():
    rng = np.random.default_rng(3)
    checked = 0
    for trial in range(40):
        net = random_network(p=3, hidden=(5, 4, 3), seed=trial)
        x = rng.standard_normal(6)
        if not _away_from_kinks(net, x):
            continue
        g = _grad1(net, x)
        fd = _finite_diff_grad(net, x)
        np.testing.assert_allclose(g, fd, rtol=1e-5, atol=1e-7)
        checked += 1
    assert checked >= 10


def test_gradient_scales_with_filter_weight():
    # Doubling z[j] doubles dy/dx_j when no pre-activation changes sign.
    net = random_network(p=3, seed=11)
    x = np.full(6, 0.01)  # tiny input keeps pre-activation signs stable
    g1 = _grad1(net, x)[0]
    net2 = copy.deepcopy(net)
    net2.z = net.z.copy()
    net2.z[0] *= 2.0
    # keep the filter output identical by halving the input coordinate
    x2 = x.copy()
    x2[0] /= 2.0
    g2 = _grad1(net2, x2)[0]
    assert g2 == pytest.approx(2 * g1, rel=1e-10)


def test_batch_gradient_matches_single():
    net = random_network(p=4, seed=2)
    X = np.random.default_rng(1).standard_normal((7, 8))
    G = batch_input_gradient(net, X)
    for i in range(7):
        np.testing.assert_allclose(G[i], _grad1(net, X[i]), rtol=1e-12)


# ---------------------------------------------------------------- Hessians

def test_hessian_zero_network():
    net = init_network(2, hidden_sizes=(3, 3, 3))
    net.z[:] = net.z_tilde[:] = 0.0
    for w in net.w:
        w[:] = 0.0
    np.testing.assert_array_equal(_hess1(net, np.ones(4)), np.zeros((4, 4)))


def test_hessian_locally_affine_region_is_zero():
    # Force every ELU input positive: the network is affine there.
    net = random_network(p=2, seed=4)
    net.w = [np.abs(w) for w in net.w]
    net.b = [np.abs(b) + 1.0 for b in net.b]
    net.z = np.abs(net.z)
    net.z_tilde = np.abs(net.z_tilde)
    x = np.abs(np.random.default_rng(0).standard_normal(4))
    H = _hess1(net, x)
    np.testing.assert_allclose(H, np.zeros((4, 4)), atol=1e-14)
    assert np.array_equal(mean_input_hessian(net, np.stack([x, x + 1.0])), np.zeros((4, 4)))


def test_hessian_matches_finite_difference_of_gradient():
    rng = np.random.default_rng(9)
    checked = 0
    for trial in range(40):
        net = random_network(p=2, hidden=(4, 4, 3), seed=100 + trial)
        x = rng.standard_normal(4)
        if not _away_from_kinks(net, x):
            continue
        H = _hess1(net, x)
        h = 1e-4
        fd = np.zeros((4, 4))
        for k in range(4):
            e = np.zeros(4)
            e[k] = h
            fd[:, k] = (_grad1(net, x + e) - _grad1(net, x - e)) / (2 * h)
        scale = max(np.max(np.abs(H)), 1.0)
        np.testing.assert_allclose(H, fd, atol=1e-3 * scale)
        np.testing.assert_allclose(mean_input_hessian(net, x[None]), fd, atol=1e-3 * scale)
        checked += 1
    assert checked >= 10


def test_hessian_exactly_symmetric():
    for trial in range(5):
        net = random_network(p=3, seed=trial)
        x = np.random.default_rng(trial).standard_normal(6)
        H = _hess1(net, x)
        assert np.max(np.abs(H - H.T)) == 0.0


def test_hessian_knockoff_severance():
    net = random_network(p=3, seed=8)
    net.z_tilde = np.zeros(3)
    x = np.random.default_rng(2).standard_normal(6)
    x2 = x.copy()
    x2[3:] += 10.0
    H1, H2 = _hess1(net, x), _hess1(net, x2)
    np.testing.assert_array_equal(H1[:3, :3], H2[:3, :3])
    g1, g2 = _grad1(net, x), _grad1(net, x2)
    np.testing.assert_array_equal(g1[:3], g2[:3])
    M = mean_input_hessian(net, np.stack([x, x2]))
    assert np.array_equal(M[3:, :], np.zeros((3, 6)))
    assert np.array_equal(M[:, 3:], np.zeros((6, 3)))
    assert np.any(M[:3, :3] != 0.0)



def _reference_hessian(net, X_aug):
    """Input Hessians with one tangent per augmented input (2p of them, each
    scaled by its filter weight), then the coupling layer's transpose on the
    last axis only. This is the network's earlier algorithm."""
    n, D = X_aug.shape
    p = net.p
    if net.coupling:
        t0 = np.zeros((D, p))
        t0[:p, :] = np.diag(net.z)
        t0[p:, :] = np.diag(net.z_tilde)
    else:
        t0 = np.eye(D)
    _, pre, _, _ = _reference_forward(net, X_aug)
    th = np.broadcast_to(t0, (n,) + t0.shape).copy()
    tpre = []
    for l in range(3):
        ta = th @ net.w[l]
        tpre.append(ta)
        th = _elu_prime(pre[l])[:, None, :] * ta
    d3 = net.w[3].shape[0]
    g = np.broadcast_to(net.w[3][:, 0], (n, d3)).copy()
    tg = np.zeros((n, D, d3))
    for l in (2, 1, 0):
        s1, s2 = _elu_prime(pre[l]), _elu_second(pre[l])
        tga = tg * s1[:, None, :] + (g * s2)[:, None, :] * tpre[l]
        g = (g * s1) @ net.w[l].T
        tg = tga @ net.w[l].T
    H = np.concatenate([net.z * tg, net.z_tilde * tg], axis=-1) if net.coupling else tg
    return (H + np.swapaxes(H, -1, -2)) / 2.0


@pytest.mark.parametrize("coupling", [True, False], ids=["coupling", "dense"])
@pytest.mark.parametrize("p, hidden, n", [(2, (4, 4, 3), 7), (5, (6, 5, 3), 40),
                                          (30, (64, 32, 16), 1024)],
                         ids=["p2", "p5", "p30"])
def test_hessian_matches_reference(coupling, p, hidden, n):
    # Each row's Hessian is a one-row layerwise mean, which rounds in another
    # order than the reference's tangent pass, with coupling or without.
    for seed in range(3):
        net = random_network(p=p, hidden=hidden, seed=seed, coupling=coupling,
                             scale=0.7 if p < 30 else 0.3)
        X = np.random.default_rng(seed).standard_normal((n, 2 * p))
        H, ref = batch_input_hessian(net, X), _reference_hessian(net, X)
        assert H.shape == (n, 2 * p, 2 * p)
        assert np.array_equal(H, np.swapaxes(H, -1, -2))
        assert np.max(np.abs(H - ref)) <= 1e-12 * np.max(np.abs(ref))


def test_hessian_peak_memory():
    # One sample's 32 x 32 path points at the protocol's sizes. The result is
    # 28 MiB; each row's layerwise mean may add at most 20 MiB more.
    net = random_network(p=30, hidden=(64, 32, 16), seed=0, scale=0.3)
    X = np.random.default_rng(0).standard_normal((1024, 60))
    assert peak_mib(batch_input_hessian, net, X) <= 48.0


@pytest.mark.parametrize("coupling", [True, False], ids=["coupling", "dense"])
@pytest.mark.parametrize("p, hidden, n", [(2, (4, 4, 3), 7), (5, (6, 5, 3), 40),
                                          (30, (64, 32, 16), 1024)],
                         ids=["p2", "p5", "p30"])
def test_mean_hessian_matches_batch_mean(coupling, p, hidden, n):
    # The layerwise sum reorders the rounding of the reference Hessians' mean.
    for seed in range(3):
        net = random_network(p=p, hidden=hidden, seed=seed, coupling=coupling,
                             scale=0.7 if p < 30 else 0.3)
        X = np.random.default_rng(seed).standard_normal((n, 2 * p))
        H, ref = mean_input_hessian(net, X), _reference_hessian(net, X).mean(axis=0)
        assert H.shape == (2 * p, 2 * p)
        assert np.array_equal(H, H.T)
        assert np.max(np.abs(H - ref)) <= 1e-12 * np.max(np.abs(ref))


@pytest.mark.parametrize("coupling", [True, False], ids=["coupling", "dense"])
def test_mean_hessian_kink_rule_matches_batch(coupling):
    # With zero biases, a zero row puts every pre-activation exactly at the
    # kink, where ELU'' takes its left limit 1: the Hessian there is not 0.
    net = random_network(p=3, seed=5, coupling=coupling)
    net.b = [np.zeros_like(b) for b in net.b]
    X = np.random.default_rng(5).standard_normal((4, 6))
    X[2] = 0.0
    pre = _forward_pass(net, X)[1]
    assert all(np.all(a[2] == 0.0) for a in pre)
    assert np.any(_reference_hessian(net, X[2:3])[0] != 0.0)
    for rows in (X[2:3], X):
        ref = _reference_hessian(net, rows).mean(axis=0)
        H = mean_input_hessian(net, rows)
        assert np.max(np.abs(H - ref)) <= 1e-12 * np.max(np.abs(ref))


def test_mean_hessian_non_finite_row_makes_mean_non_finite():
    net = random_network(p=2, seed=1)
    X = np.random.default_rng(1).standard_normal((6, 4))
    X[4, 1] = np.nan
    assert not np.all(np.isfinite(mean_input_hessian(net, X)))


def test_mean_hessian_rejects_empty_batch():
    with pytest.raises(ContractViolation):
        mean_input_hessian(random_network(p=2, seed=0), np.zeros((0, 4)))


@pytest.mark.parametrize("coupling", [True, False], ids=["coupling", "dense"])
def test_weighted_mean_hessian_equals_mean_over_repeated_rows(coupling):
    # Integer counts as weights: the weighted mean is the plain mean over the
    # batch with each row repeated its count of times.
    for seed in range(3):
        net = random_network(p=5, hidden=(6, 5, 3), seed=seed, coupling=coupling)
        rng = np.random.default_rng(seed)
        X = rng.standard_normal((9, 10))
        counts = rng.integers(1, 5, size=9)
        H = mean_input_hessian(net, X, counts / counts.sum())
        ref = mean_input_hessian(net, np.repeat(X, counts, axis=0))
        assert np.array_equal(H, H.T)
        assert np.max(np.abs(H - ref)) <= 1e-12 * np.max(np.abs(ref))
        uniform = np.full(9, 1 / 9)
        assert np.array_equal(mean_input_hessian(net, X), mean_input_hessian(net, X, uniform))


def test_mean_hessian_rejects_weights_not_one_per_row():
    net, X = random_network(p=2, seed=0), np.zeros((3, 4))
    for weights in (np.ones(1), np.ones(4), np.ones((3, 1))):
        with pytest.raises(ContractViolation, match="one weight per row"):
            mean_input_hessian(net, X, weights)


@pytest.mark.parametrize("coupling, bound", [(True, 24.0), (False, 40.0)],
                         ids=["coupling", "dense"])
def test_mean_input_hessian_peak_memory(coupling, bound):
    # One sample's 32 x 32 path points at the protocol's sizes. The rows are
    # taken in blocks of at most HESSIAN_BLOCK J_1 entries, so J_1 and its
    # scaled copy are at most 1 MiB each; no per-point Hessian is built.
    net = random_network(p=30, hidden=(64, 32, 16), seed=0, scale=0.3, coupling=coupling)
    X = np.random.default_rng(0).standard_normal((1024, 60))
    assert peak_mib(mean_input_hessian, net, X) <= bound


@pytest.mark.parametrize("coupling", [True, False], ids=["coupling", "dense"])
def test_mean_input_hessian_peak_memory_does_not_grow_with_rows(coupling):
    # The rows go through in fixed-size blocks, so 16 times the rows costs
    # no more memory: the arrays that grow with n are the weights alone.
    net = random_network(p=30, hidden=(64, 32, 16), seed=0, scale=0.3, coupling=coupling)
    X = np.random.default_rng(0).standard_normal((4096, 60))
    small, large = peak_mib(mean_input_hessian, net, X[:256]), peak_mib(mean_input_hessian, net, X)
    assert large <= small + 0.5
    assert large < 4.0


@pytest.mark.parametrize("coupling", [True, False], ids=["coupling", "dense"])
def test_weighted_mean_hessian_over_blocks_matches_reference(coupling):
    # Uneven weights on rows that span several blocks: each block's sum is
    # added to the total, which rounds in another order than the reference.
    net = random_network(p=30, hidden=(64, 32, 16), seed=4, scale=0.3, coupling=coupling)
    assert 400 > 2 * (HESSIAN_BLOCK // (32 * net.w[0].shape[0]))  # three blocks or more
    rng = np.random.default_rng(4)
    X = rng.standard_normal((400, 60))
    w = rng.uniform(0.0, 1.0, 400) ** 3
    w /= w.sum()
    H, ref = mean_input_hessian(net, X, w), np.tensordot(w, _reference_hessian(net, X), 1)
    assert np.array_equal(H, H.T)
    assert np.max(np.abs(H - ref)) <= 1e-12 * np.max(np.abs(ref))


@given(st.lists(st.floats(allow_nan=True, allow_infinity=True), min_size=1, max_size=50))
@settings(max_examples=300, deadline=None)
def test_elu_as_maximum_is_bit_equal_to_where(values):
    # _forward_pass computes ELU as maximum(a, expm1(min(a, 0))): expm1(a) >= a
    # for a <= 0, so it equals the masked form bit for bit.
    a = np.array(values + [0.0, -0.0, 5e-324, -5e-324, -745.0, np.inf, -np.inf, np.nan])
    neg = np.minimum(a, 0.0)
    masked = np.where(a > 0, a, np.expm1(neg))
    assert np.array_equal(np.maximum(a, np.expm1(neg)).view(np.int64), masked.view(np.int64))


@pytest.mark.parametrize("axes", [(0,), (-1,), (-2, -1)], ids=["first", "last", "last_two"])
def test_pull_back_bit_equal_to_take_formula(axes):
    # The coupling layer's transpose as a gather per axis, then one product
    # with the scale zbar_a * zbar_b * ... built in the same order.
    p = 5
    net = random_network(p=p, seed=3)
    G = np.random.default_rng(3).standard_normal((p, 3, p, p))
    zbar = np.concatenate([net.z, net.z_tilde])
    idx = np.tile(np.arange(p), 2)
    expected, scale = G, 1.0
    for axis in axes:
        shape = [1] * G.ndim
        shape[axis] = -1
        scale = scale * zbar.reshape(shape)
        expected = np.take(expected, idx, axis=axis)
    expected = scale * expected
    out = pull_back(net, G, axes)
    assert out.shape == expected.shape
    assert np.array_equal(out.view(np.int64), expected.view(np.int64))
    # Independently, contract each pulled axis with the layer's p x 2p matrix C,
    # h0 = C (x, x_ko): C[j, j] = z_j and C[j, j + p] = z_tilde_j.
    C = np.hstack([np.diag(net.z), np.diag(net.z_tilde)])
    contracted = G
    for axis in axes:
        contracted = np.moveaxis(np.tensordot(contracted, C, axes=([axis], [0])), -1, axis)
    assert np.max(np.abs(out - contracted)) <= 1e-15 * np.max(np.abs(expected))
    dense = random_network(p=p, seed=3, coupling=False)
    assert pull_back(dense, G, axes) is G


# ---------------------------------------------------------------- training

def test_train_descends_on_constant_target():
    rng = np.random.default_rng(0)
    X = rng.uniform(size=(200, 6))
    y = np.zeros(200)
    net = init_network(3, hidden_sizes=(8, 6, 4), seed=0)
    cfg = TrainConfig(epochs=10, batch_size=32)
    _, trace = train(net, X, y, cfg, seed=0)
    assert trace["train_loss"][-1] <= trace["train_loss"][0]
    assert all(np.isfinite(trace["train_loss"]))


def test_train_learns_linear_target():
    rng = np.random.default_rng(1)
    X = rng.uniform(size=(2000, 4))
    y = 3.0 * X[:, 0]
    net = init_network(2, hidden_sizes=(16, 8, 4), seed=1)
    cfg = TrainConfig(epochs=120, batch_size=64, l1_filter_penalty=0.0,
                      l1_mlp_penalty=0.0, grad_clip=None)
    trained, _ = train(net, X[:1000], y[:1000], cfg, seed=1)
    resid = predict(trained, X[1000:]) - y[1000:]
    assert np.mean(resid ** 2) < 0.01 * np.var(y[1000:])


def test_train_deterministic():
    rng = np.random.default_rng(2)
    X = rng.uniform(size=(300, 6))
    y = X[:, 0] * X[:, 1]
    cfg = TrainConfig(epochs=5, batch_size=50)
    n1, t1 = train(init_network(3, hidden_sizes=(6, 5, 4), seed=3), X, y, cfg, seed=3)
    n2, t2 = train(init_network(3, hidden_sizes=(6, 5, 4), seed=3), X, y, cfg, seed=3)
    for wa, wb in zip(n1.w, n2.w):
        np.testing.assert_array_equal(wa, wb)
    assert t1["train_loss"] == t2["train_loss"]


@pytest.mark.parametrize("stage", ["init_network", "train"])
@pytest.mark.parametrize("seed", [-1, np.nan, np.inf, -np.inf])
def test_seed_out_of_range_is_refused(stage, seed):
    # The check TrainConfig.seed made: each stage that draws from a seed
    # refuses one outside [0, inf) before drawing.
    X = np.random.default_rng(0).uniform(size=(40, 6))
    with pytest.raises(ConfigurationError, match="seed"):
        if stage == "init_network":
            init_network(3, hidden_sizes=(6, 5, 4), seed=seed)
        else:
            train(init_network(3, hidden_sizes=(6, 5, 4)), X, X[:, 0],
                  TrainConfig(epochs=1, batch_size=10), seed=seed)


def test_train_diverged_raises_with_epoch():
    rng = np.random.default_rng(4)
    X = rng.uniform(size=(100, 4))
    y = rng.uniform(size=100)
    net = init_network(2, hidden_sizes=(4, 3, 2), seed=0)
    net.w[3][:] = 1e200  # blow up the output scale so the loss overflows
    cfg = TrainConfig(epochs=3, batch_size=32)
    with pytest.raises(TrainingDivergedError) as err:
        train(net, X, y, cfg, seed=0)
    assert err.value.epoch >= 0


def test_train_binary_task():
    rng = np.random.default_rng(5)
    X = rng.uniform(size=(600, 4))
    y = (X[:, 0] > 0.5).astype(float)
    net = init_network(2, hidden_sizes=(8, 6, 4), task="binary", seed=0)
    trained, trace = train(net, X, y, TrainConfig(epochs=40, batch_size=64,
                                                  l1_mlp_penalty=0.0, grad_clip=None), seed=0)
    acc = np.mean((predict(trained, X) > 0.5) == y)
    assert acc > 0.9
    assert trace["train_loss"][-1] < trace["train_loss"][0]


def test_train_config_validation():
    for bad in ({"learning_rate": 0.0}, {"epochs": 0}, {"batch_size": 0},
                {"l1_filter_penalty": -1.0}, {"l1_mlp_penalty": -1.0}, {"grad_clip": 0.0},
                {"validation_fraction": 1.0}):
        with pytest.raises(ConfigurationError, match=next(iter(bad))):
            TrainConfig(**bad)


def test_validation_trace_present():
    rng = np.random.default_rng(6)
    X = rng.uniform(size=(200, 4))
    y = X[:, 0]
    net = init_network(2, hidden_sizes=(4, 3, 2), seed=0)
    cfg = TrainConfig(epochs=4, batch_size=32, validation_fraction=0.25)
    _, trace = train(net, X, y, cfg, seed=0)
    assert len(trace["val_loss"]) == 4
    assert all(np.isfinite(trace["val_loss"]))


def test_train_rejects_validation_split_without_training_rows():
    # round(0.95 * 10) holds out all 10 rows, which would leave y_mean, y_std
    # and every training loss NaN.
    X = np.random.default_rng(6).uniform(size=(10, 4))
    net = init_network(2, hidden_sizes=(4, 3, 2), seed=0)
    with pytest.raises(ConfigurationError, match="no training rows"):
        train(net, X, X[:, 0], TrainConfig(epochs=1, batch_size=4, validation_fraction=0.95))


# ------------------------------------------- training against a reference

def _reference_loss_and_grads(net, X, y, l1_filter, l1_mlp=0.0):
    """Loss and a dict of per-parameter gradients, one array per parameter."""
    n = X.shape[0]
    h0, pre, act, out = _reference_forward(net, X)
    if net.task == "binary":
        prob = _sigmoid(out)
        eps = 1e-12
        loss = -np.mean(y * np.log(prob + eps) + (1 - y) * np.log(1 - prob + eps))
        dout = (prob - y) / n
    else:
        resid = out - y
        loss = np.mean(resid ** 2)
        dout = 2.0 * resid / n

    grads = {}
    g = dout[:, None] * np.ones((1, 1))
    grads["w3"] = act[2].T @ g
    grads["b3"] = g.sum(axis=0)
    g = g @ net.w[3].T
    layer_inputs = [h0, act[0], act[1]]
    for l in (2, 1, 0):
        ga = g * _elu_prime(pre[l])
        grads[f"w{l}"] = layer_inputs[l].T @ ga
        grads[f"b{l}"] = ga.sum(axis=0)
        g = ga @ net.w[l].T
    if net.coupling:
        p = net.p
        grads["z"] = (X[:, :p] * g).sum(axis=0)
        grads["z_tilde"] = (X[:, p:] * g).sum(axis=0)
        if l1_filter > 0:
            loss += l1_filter * (np.abs(net.z).sum() + np.abs(net.z_tilde).sum())
            grads["z"] += l1_filter * np.sign(net.z)
            grads["z_tilde"] += l1_filter * np.sign(net.z_tilde)
    if l1_mlp > 0:
        for l in range(4):
            loss += l1_mlp * np.abs(net.w[l]).sum()
            grads[f"w{l}"] += l1_mlp * np.sign(net.w[l])
    return loss, grads


def _reference_train(net, X_aug, y, cfg, seed):
    """Mini-batch Adam with one dict entry per parameter, written plainly.

    ``train`` must reproduce it bit for bit. Also returns how many steps
    clipped the gradient.
    """
    net = copy.deepcopy(net)
    rng = np.random.default_rng(seed)
    n = X_aug.shape[0]
    n_val = int(round(cfg.validation_fraction * n))
    perm = rng.permutation(n)
    val_idx, train_idx = perm[:n_val], perm[n_val:]
    Xtr, ytr = X_aug[train_idx], y[train_idx]
    Xval, yval = X_aug[val_idx], y[val_idx]
    if net.task == "regression":
        net.y_mean = float(ytr.mean())
        net.y_std = float(ytr.std())
        if net.y_std <= 0:
            net.y_std = 1.0
        ytr = (ytr - net.y_mean) / net.y_std
        if n_val:
            yval = (yval - net.y_mean) / net.y_std

    params = {f"w{l}": net.w[l] for l in range(4)}
    params.update({f"b{l}": net.b[l] for l in range(4)})
    if net.coupling:
        params["z"] = net.z
        params["z_tilde"] = net.z_tilde
    m = {k: np.zeros_like(v) for k, v in params.items()}
    v = {k: np.zeros_like(p_) for k, p_ in params.items()}
    beta1, beta2, eps = 0.9, 0.999, 1e-8
    step = clipped = 0
    trace = {"train_loss": [], "val_loss": [] if n_val else None}
    n_tr = Xtr.shape[0]
    for epoch in range(cfg.epochs):
        order = rng.permutation(n_tr)
        epoch_losses = []
        for start in range(0, n_tr, cfg.batch_size):
            idx = order[start:start + cfg.batch_size]
            loss, grads = _reference_loss_and_grads(net, Xtr[idx], ytr[idx],
                                                    cfg.l1_filter_penalty,
                                                    cfg.l1_mlp_penalty)
            epoch_losses.append(loss)
            step += 1
            if cfg.grad_clip is not None:
                norm = np.sqrt(sum(float(np.sum(g * g)) for g in grads.values()))
                if norm > cfg.grad_clip:
                    clipped += 1
                    scale = cfg.grad_clip / norm
                    grads = {k: g * scale for k, g in grads.items()}
            for k, g in grads.items():
                m[k] = beta1 * m[k] + (1 - beta1) * g
                v[k] = beta2 * v[k] + (1 - beta2) * g * g
                mhat = m[k] / (1 - beta1 ** step)
                vhat = v[k] / (1 - beta2 ** step)
                params[k] -= cfg.learning_rate * mhat / (np.sqrt(vhat) + eps)
        trace["train_loss"].append(float(np.mean(epoch_losses)))
        if n_val:
            loss_val, _ = _reference_loss_and_grads(net, Xval, yval, 0.0)
            trace["val_loss"].append(float(loss_val))
    return net, trace, clipped


@pytest.mark.parametrize("coupling", [True, False], ids=["coupling", "dense"])
@pytest.mark.parametrize("task", ["regression", "binary"])
@pytest.mark.parametrize("grad_clip", [None, 1.0], ids=["noclip", "clip"])
@pytest.mark.parametrize("penalized", [True, False], ids=["l1+val", "plain"])
def test_train_bit_identical_to_reference(coupling, task, grad_clip, penalized):
    rng = np.random.default_rng(21)
    X = 3.0 * rng.standard_normal((203, 8))    # batch 30 leaves a batch of 23
    y = X[:, 0] * X[:, 1] + 5.0 * X[:, 2]
    if task == "binary":
        y = (y > 0).astype(float)
    net = init_network(4, hidden_sizes=(7, 5, 3), task=task, seed=4, coupling=coupling)
    extra = (dict(l1_filter_penalty=1e-3, l1_mlp_penalty=5e-4, validation_fraction=0.2)
             if penalized else dict(l1_filter_penalty=0.0, l1_mlp_penalty=0.0))
    cfg = TrainConfig(learning_rate=0.01, epochs=6, batch_size=30, grad_clip=grad_clip,
                      **extra)
    ref, ref_trace, clipped = _reference_train(net, X, y, cfg, seed=5)
    got, trace = train(net, X, y, cfg, seed=5)
    if grad_clip is not None:
        assert clipped > 0
    for a, b in zip(ref.named_params().values(), got.named_params().values(), strict=True):
        assert np.array_equal(a, b)
    assert (ref.y_mean, ref.y_std) == (got.y_mean, got.y_std)
    assert trace == ref_trace


def test_train_leaves_input_network_unchanged():
    net = random_network(p=3, seed=3)
    before = [a.copy() for a in net.named_params().values()]
    X = np.random.default_rng(0).standard_normal((40, 6))
    train(net, X, X[:, 0], TrainConfig(epochs=2, batch_size=16))
    for a, b in zip(before, net.named_params().values(), strict=True):
        assert np.array_equal(a, b)


@pytest.mark.parametrize("coupling", [True, False], ids=["coupling", "dense"])
@pytest.mark.parametrize("task", ["regression", "binary"])
def test_param_gradients_match_central_differences(coupling, task):
    # Every weight and filter weight is kept at least 0.2 from 0, so the L1
    # terms are differentiable within the stencil.
    rng = np.random.default_rng(31)
    net = random_network(p=3, hidden=(5, 4, 3), seed=8, task=task, coupling=coupling)
    away = lambda a: np.sign(a) * (0.2 + np.abs(a))
    net.w = [away(w) for w in net.w]
    if coupling:
        net.z, net.z_tilde = away(net.z), away(net.z_tilde)
    X = rng.standard_normal((25, 6))
    y = (X[:, 0] > 0).astype(float) if task == "binary" else X[:, 0] * X[:, 1]
    l1_filter, l1_mlp = 0.05, 0.03

    theta = np.concatenate([a.ravel() for a in net.named_params().values()])
    net = _on_buffer(net, theta)
    grad = np.zeros_like(theta)
    _loss_and_param_grads(net, _on_buffer(net, grad), X, y, l1_filter, l1_mlp)
    scratch = _on_buffer(net, np.zeros_like(theta))
    h = 1e-5
    fd = np.zeros_like(theta)
    for k in range(theta.size):
        x0 = theta[k]
        theta[k] = x0 + h
        up = _loss_and_param_grads(net, scratch, X, y, l1_filter, l1_mlp)
        theta[k] = x0 - h
        down = _loss_and_param_grads(net, scratch, X, y, l1_filter, l1_mlp)
        theta[k] = x0
        fd[k] = (up - down) / (2 * h)
    np.testing.assert_allclose(grad, fd, rtol=1e-6, atol=1e-7)


# ---------------------------------------------------------------- serialization

def test_network_roundtrip_bit_exact(tmp_path):
    rng = np.random.default_rng(0)
    X = rng.uniform(size=(200, 6))
    y = X[:, 0] + X[:, 1] * X[:, 2]
    net = init_network(3, hidden_sizes=(6, 5, 4), seed=0)
    trained, _ = train(net, X, y, TrainConfig(epochs=3, batch_size=32), seed=0)
    path = tmp_path / "net.npz"
    save_network(trained, path)
    loaded = load_network(path)
    for wa, wb in zip(trained.w, loaded.w):
        np.testing.assert_array_equal(wa, wb)
    np.testing.assert_array_equal(trained.z, loaded.z)
    np.testing.assert_array_equal(trained.z_tilde, loaded.z_tilde)
    assert loaded.task == trained.task
    assert loaded.hidden_sizes == trained.hidden_sizes
    assert loaded.y_mean == trained.y_mean and loaded.y_std == trained.y_std


@pytest.mark.parametrize("coupling", [True, False], ids=["coupling", "dense"])
def test_file_and_training_buffer_share_one_layout(coupling, tmp_path):
    # The saved file's arrays and the training buffer follow one order, the
    # order backpropagation makes the gradients in; the file's order is what
    # keeps saved networks byte-identical.
    net = random_network(p=3, seed=2, coupling=coupling)
    names = [f"{k}{l}" for l in (3, 2, 1, 0) for k in "wb"]
    names += ["z", "z_tilde"] if coupling else []
    save_network(net, tmp_path / "net.npz")
    with np.load(tmp_path / "net.npz") as data:
        assert data.files == names + ["meta"]
        raveled = np.concatenate([data[name].ravel() for name in names])
    on_buffer = _on_buffer(net, raveled).named_params()
    assert list(on_buffer) == names
    for a, b in zip(net.named_params().values(), on_buffer.values(), strict=True):
        assert np.array_equal(a, b)


def test_no_coupling_network_roundtrip(tmp_path):
    net = random_network(p=3, coupling=False, seed=1)
    path = tmp_path / "net.npz"
    save_network(net, path)
    loaded = load_network(path)
    assert loaded.z is None and loaded.z_tilde is None
    np.testing.assert_array_equal(loaded.w[0], net.w[0])


def test_load_network_names_an_unsupported_version(tmp_path):
    path = tmp_path / "net.npz"
    save_npz(path, 2, {"w0": np.zeros(1)})
    with pytest.raises(ValidationError, match="not of file version 1"):
        load_network(path)
