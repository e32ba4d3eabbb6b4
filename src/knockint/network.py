"""Feedforward network with a pairwise-coupling first layer.

The network consumes an augmented input ``(x, x_ko)`` of length ``2p``. A
coupling layer with per-feature weights ``z`` (originals) and ``z_tilde``
(knockoffs) produces ``p`` linear filter outputs, which feed a 3-hidden-layer
ELU MLP with an affine scalar head (logistic link for binary tasks).

An ablation variant (``coupling=False``) replaces the coupling layer with a
plain dense first layer on all ``2p`` inputs.

All differentiation is done analytically and in filter space, with respect
to the ``d0`` filter outputs ``h0`` (``p`` with coupling, ``2p`` without).
Input gradients are reverse mode. Input Hessians have one algorithm, the
layerwise identity ``H = sum_l J_l^T diag(c_l) J_l``, with ``J_l`` the
Jacobian of the pre-activation ``a_l`` in ``h0`` and
``c_l = (df/dh_{l+1}) * ELU''(a_l)``. ``mean_input_hessian`` takes a batch's
rows in blocks of at most ``HESSIAN_BLOCK`` entries of ``J_1`` and sums each
term over a block as one matrix product, so it builds no per-row Hessian and
its memory does not grow with the batch. Its ``weights`` scale each row's
``c_l``: by default every row weighs ``1/n``, and a path integral passes each
distinct point's share of its grid. ``batch_input_hessian`` takes each row's
Hessian as the mean over that row alone, whose one weight is exactly 1. The
coupling layer is the linear map ``h0 = z * x + z_tilde * x_ko``;
``pull_back`` applies its transpose, which carries a derivative from filter
space to the ``2p`` augmented inputs. No other module reads ``z`` or
``z_tilde``.

``CoupledNetwork.named_params`` is the one table of parameters and their
order (``w3, b3, w2, b2, w1, b1, w0, b0``, then ``z, z_tilde``), which the
saved file, the training buffer and the clipping norm all follow;
``_param_fields`` is its inverse. ``train`` keeps every parameter in one
float64 buffer and rebinds the network's arrays as views of it; gradients and
the Adam moments live in matching buffers. A step's L1 penalty gradient (one
weight vector over the buffer, ``_L1Penalty.weights``, the one place a
penalized parameter gets its weight), the clipping scale and the Adam update
are each a handful of whole-buffer operations. Two kinds of sum stay per
parameter, one reduce over each parameter's view: the penalty's ``sum |theta|``
terms of the loss and the ``sum g^2`` terms of the clipping norm. A sum over
the whole buffer or a segmented one (``np.add.reduceat``) rounds differently.
So every step rounds exactly as a per-parameter loop would, and ``train`` is
bit-identical to the reference loop kept in ``tests/test_network.py``.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from math import inf, isfinite, sqrt
from sys import float_info

import numpy as np

from .exceptions import (ConfigurationError, ContractViolation, TrainingDivergedError,
                         ValidationError, check_fields)
from .table import load_npz, save_npz

TASKS = ("regression", "binary")

SERIALIZATION_VERSION = 1

HIDDEN_SIZES = (64, 32, 16)

FILTER_INIT = 0.1  # the common start of every z and z_tilde

HESSIAN_BLOCK = 2 ** 17  # J_1 entries one block of mean_input_hessian's rows may hold


def _sigmoid(u):
    out = np.empty_like(u, dtype=float)
    pos = u >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-u[pos]))
    eu = np.exp(u[~pos])
    out[~pos] = eu / (1.0 + eu)
    return out


@dataclass(frozen=True)
class TrainConfig:
    """Hyperparameters for mini-batch Adam training; the defaults are the
    experiment protocol's profile, which every entry point shares."""

    learning_rate: float = 1e-3
    epochs: int = 300
    batch_size: int = 64
    l1_filter_penalty: float = 1e-4
    # Sparsity on the MLP weight matrices pushes additive effects into
    # disjoint hidden units, which the weight-path interaction scores need.
    l1_mlp_penalty: float = 5e-4
    grad_clip: float | None = 1.0
    validation_fraction: float = 0.0

    def __post_init__(self):
        check_fields(self, (
            ("learning_rate", 0 < self.learning_rate < inf, "in (0, inf)"),
            ("epochs", 1 <= self.epochs < inf, "in [1, inf)"),
            ("batch_size", 1 <= self.batch_size < inf, "in [1, inf)"),
            ("l1_filter_penalty", 0 <= self.l1_filter_penalty < inf, "in [0, inf)"),
            ("l1_mlp_penalty", 0 <= self.l1_mlp_penalty < inf, "in [0, inf)"),
            ("grad_clip", self.grad_clip is None or 0 < self.grad_clip < inf,
             "None or in (0, inf)"),
            ("validation_fraction", 0 <= self.validation_fraction < 1, "in [0, 1)")))


@dataclass
class CoupledNetwork:
    """Parameters of the coupling-layer MLP.

    ``z``/``z_tilde`` are None when ``coupling`` is False, in which case
    ``w[0]`` has ``2p`` rows instead of ``p``.
    """

    z: np.ndarray | None
    z_tilde: np.ndarray | None
    w: list
    b: list
    task: str
    hidden_sizes: tuple
    coupling: bool = True
    # Response standardization learned during training (regression only).
    y_mean: float = 0.0
    y_std: float = 1.0

    @property
    def p(self) -> int:
        return self.w[0].shape[0] // (1 if self.coupling else 2)

    def check_finite(self):
        if not all(np.all(np.isfinite(a)) for a in self.named_params().values()):
            raise ContractViolation("network contains non-finite parameters")

    def named_params(self) -> dict:
        """Every parameter array by name, in the order backpropagation makes
        their gradients: ``w3, b3, w2, b2, w1, b1, w0, b0``, then ``z`` and
        ``z_tilde`` with coupling. Every layout of the parameters is this one."""
        params = {name: a for l in (3, 2, 1, 0)
                  for name, a in ((f"w{l}", self.w[l]), (f"b{l}", self.b[l]))}
        if self.coupling:
            params.update(z=self.z, z_tilde=self.z_tilde)
        return params


def _param_fields(params, coupling: bool) -> dict:
    """The ``CoupledNetwork`` fields that hold ``params``, a mapping laid out as
    ``named_params`` lays it out; the inverse of that table."""
    return dict(w=[params[f"w{l}"] for l in range(4)], b=[params[f"b{l}"] for l in range(4)],
                z=params["z"] if coupling else None,
                z_tilde=params["z_tilde"] if coupling else None)


def check_hidden_sizes(hidden_sizes) -> tuple:
    """``hidden_sizes`` as a tuple, checked to hold three positive integers."""
    try:
        sizes = tuple(hidden_sizes)
    except TypeError:  # one number, or None
        sizes = (hidden_sizes,)
    if len(sizes) != 3 or not all(isinstance(h, (int, np.integer)) and not isinstance(h, bool)
                                  and h >= 1 for h in sizes):
        raise ConfigurationError(f"need 3 positive integer hidden sizes, got {list(sizes)}")
    return tuple(int(h) for h in sizes)


def init_network(p, hidden_sizes=HIDDEN_SIZES, task="regression", seed=0,
                 coupling=True) -> CoupledNetwork:
    """Build a freshly initialized network.

    MLP weights use a Glorot-style scaled-uniform draw; biases are zero. The
    filter weights ``z`` and ``z_tilde`` start equal (``FILTER_INIT``) so the
    original feature and its knockoff compete from a symmetric start.
    """
    if not 0 <= seed < inf:
        raise ConfigurationError(f"seed must be in [0, inf), got {seed!r}")
    if p < 1:
        raise ConfigurationError(f"feature count must be >= 1, got {p}")
    hidden_sizes = check_hidden_sizes(hidden_sizes)
    if task not in TASKS:
        raise ConfigurationError(f"unknown task {task!r}")

    rng = np.random.default_rng(seed)
    d0 = p if coupling else 2 * p
    dims = (d0,) + hidden_sizes + (1,)
    w, b = [], []
    for fan_in, fan_out in zip(dims[:-1], dims[1:]):
        limit = np.sqrt(6.0 / (fan_in + fan_out))
        w.append(rng.uniform(-limit, limit, size=(fan_in, fan_out)))
        b.append(np.zeros(fan_out))
    z = zt = None
    if coupling:
        z = np.full(p, FILTER_INIT)
        zt = np.full(p, FILTER_INIT)
    return CoupledNetwork(z=z, z_tilde=zt, w=w, b=b, task=task,
                          hidden_sizes=hidden_sizes, coupling=coupling)


def _checked_input(net: CoupledNetwork, X) -> np.ndarray:
    X = np.asarray(X, dtype=float)
    if X.shape[-1] != 2 * net.p:
        raise ContractViolation(
            f"expected augmented input of length {2 * net.p}, got {X.shape[-1]}")
    return X


def _filter_layer(net: CoupledNetwork, X: np.ndarray) -> np.ndarray:
    if net.coupling:
        return net.z * X[..., :net.p] + net.z_tilde * X[..., net.p:]
    return X


def pull_back(net: CoupledNetwork, G: np.ndarray, axes) -> np.ndarray:
    """Transpose of the coupling layer on the named axes of ``G``.

    Each axis in ``axes`` runs over the ``d0`` filter outputs and comes back
    over the ``2p`` augmented inputs as ``zbar * G[..., idx]``, where
    ``zbar = (z, z_tilde)`` and ``idx = (0..p-1, 0..p-1)``. The scale is one
    product over all axes, so a symmetric ``G`` pulls back to a symmetric
    result. Without coupling the filter outputs are the inputs and ``G`` is
    returned unchanged.
    """
    if not net.coupling:
        return G
    zbar = np.concatenate([net.z, net.z_tilde])
    idx = np.tile(np.arange(net.p), 2)
    scale = 1.0
    for axis in axes:
        shape = [1] * G.ndim
        shape[axis] = -1
        scale = scale * zbar.reshape(shape)
        G = np.take(G, idx, axis=axis)
    return scale * G


def _forward_pass(net: CoupledNetwork, X: np.ndarray):
    """Run the MLP on a batch.

    Returns the layer inputs ``[h0, h1, h2, h3]``, the pre-activations of the
    three ELU layers, ELU' of each pre-activation, and the output.
    """
    inputs, pre, elu_prime = [_filter_layer(net, X)], [], []
    for l in range(3):
        a = inputs[l] @ net.w[l]
        a += net.b[l]
        neg = np.minimum(a, 0.0)
        h = np.expm1(neg)
        np.maximum(a, h, out=h)  # expm1(a) >= a for a <= 0
        pre.append(a)
        inputs.append(h)
        elu_prime.append(np.exp(neg, out=neg))  # exp(0) is exactly 1, so no mask is needed
    out = (inputs[3] @ net.w[3] + net.b[3])[..., 0]
    return inputs, pre, elu_prime, out


def predict(net: CoupledNetwork, X_aug: np.ndarray) -> np.ndarray:
    """Batch predictions on the response scale.

    Regression outputs are mapped back through the training-time
    standardization; binary outputs are probabilities.
    """
    out = raw_output(net, X_aug)
    if net.task == "binary":
        return _sigmoid(out)
    return out * net.y_std + net.y_mean


def raw_output(net: CoupledNetwork, X_aug: np.ndarray) -> np.ndarray:
    """Pre-link affine output for a batch (the quantity attributions use)."""
    X_aug = _checked_input(net, X_aug)
    return _forward_pass(net, X_aug)[3]


def batch_input_gradient(net: CoupledNetwork, X_aug: np.ndarray) -> np.ndarray:
    """Gradient of the pre-link output w.r.t. each augmented input row, (n, 2p)."""
    X_aug = _checked_input(net, X_aug)
    net.check_finite()
    _, _, elu_prime, _ = _forward_pass(net, X_aug)
    g = net.w[3][:, 0]
    for l in (2, 1, 0):
        g = (g * elu_prime[l]) @ net.w[l].T
    return pull_back(net, g, (-1,))


def batch_input_hessian(net: CoupledNetwork, X_aug: np.ndarray, *,
                        mean: bool = False, weights=None) -> np.ndarray:
    """Input Hessians for a batch, shape (n, 2p, 2p), row ``k``'s being the
    one-row mean ``mean_input_hessian(net, X_aug[k:k + 1])``; with ``mean``,
    their mean over the rows, ``mean_input_hessian(net, X_aug, weights)``,
    shape (2p, 2p). ``weights`` is read only with ``mean``."""
    if mean:
        return mean_input_hessian(net, X_aug, weights)
    X_aug = _checked_input(net, X_aug)
    H = np.empty((X_aug.shape[0],) + (X_aug.shape[1],) * 2)
    for k in range(X_aug.shape[0]):
        H[k] = mean_input_hessian(net, X_aug[k:k + 1])
    return H


def _gram_over_rows(J: np.ndarray, c: np.ndarray) -> np.ndarray:
    """``sum_k J[k]^T diag(c[k]) J[k]`` as one product on ``J`` flattened over
    (row, unit)."""
    flat = J.reshape(-1, J.shape[-1])
    return (flat * c.reshape(-1, 1)).T @ flat


def mean_input_hessian(net: CoupledNetwork, X_aug: np.ndarray, weights=None) -> np.ndarray:
    """Weighted mean of the input Hessians over the rows of a batch, shape (2p, 2p).

    ``weights`` holds one value per row, by default ``1/n`` each; it scales
    each row's ``c_l``, so the sums below are the weighted mean. A one-row
    batch has weight 1, which leaves its Hessian's bits as they are.

    In filter space, ``H = sum_l J_l^T diag(c_l) J_l`` row by row, where
    ``J_l = da_l/dh0`` and ``c_l = (df/dh_{l+1}) * ELU''(a_l)``; at the kink
    ``a = 0`` ELU'' takes its left limit 1. ``J_0 = W0^T`` for every row, so
    its term is ``W0 diag(sum_k c_0) W0^T``. ``J_1 = W1^T diag(ELU'(a_0)) W0^T``
    is one product for a block's rows, ``ELU'(a_0) @ P`` with
    ``P[m, (j, i)] = W1[m, j] W0[i, m]``, and ``J_2 = W2^T diag(ELU'(a_1)) J_1``.
    Each term's sum over rows is one product on ``J_l`` flattened over
    (row, unit). The ``d0 x d0`` mean is symmetrized, so H == H.T holds
    exactly, and pulled back once.

    Memory: the rows are taken in blocks of ``HESSIAN_BLOCK // (hidden_sizes[1] * d0)``
    (at least one), each with its own forward pass and its three terms.
    ``J_1`` and its ``c_1``-scaled copy, each ``(block rows, hidden_sizes[1], d0)``,
    are the largest arrays, so memory does not grow with ``n``; no
    ``(n, d0, d0)`` block is made. The first block's sum is ``H`` itself and
    each later block's sum is added to it, so a batch within one block, one
    row among them, is exactly its three terms summed in order.
    """
    X_aug = _checked_input(net, X_aug)
    net.check_finite()
    n = X_aug.shape[0]
    if n < 1:
        raise ContractViolation("mean_input_hessian needs at least one row")
    weights = np.full(n, 1.0 / n) if weights is None else np.asarray(weights, dtype=float)
    if weights.shape != (n,):
        raise ContractViolation(f"need one weight per row, got shape {weights.shape} "
                                f"for {n} rows")
    w0, w1, w2 = net.w[:3]
    d0, h1 = w0.shape[0], w1.shape[1]
    P = (w1[:, :, None] * w0.T[:, None, :]).reshape(w1.shape[0], -1)
    rows = max(1, HESSIAN_BLOCK // (h1 * d0))
    for start in range(0, n, rows):
        block = slice(start, start + rows)
        _, pre, elu_prime, _ = _forward_pass(net, X_aug[block])
        c, g = [None] * 3, net.w[3][:, 0]      # g: gradient w.r.t. h_{l+1}
        for l in (2, 1, 0):
            c[l] = g * np.where(pre[l] > 0, 0.0, elu_prime[l])   # ELU'' = ELU' for a <= 0
            c[l] *= weights[block, None]
            if l:
                g = (g * elu_prime[l]) @ net.w[l].T
        part = (w0 * c[0].sum(axis=0)) @ w0.T
        J = (elu_prime[0] @ P).reshape(-1, h1, d0)                # J_1
        part += _gram_over_rows(J, c[1])
        J = (w2.T * elu_prime[1][:, None, :]) @ J                 # J_2
        part += _gram_over_rows(J, c[2])
        H = part if start == 0 else H + part
    return pull_back(net, (H + H.T) / 2.0, (-2, -1))


def _on_buffer(net: CoupledNetwork, buf: np.ndarray) -> CoupledNetwork:
    """A copy of ``net`` whose parameters are views of the flat ``buf``, one
    after another in ``named_params``' order."""
    params = net.named_params()
    ends = np.cumsum([a.size for a in params.values()])
    views = {name: buf[end - a.size:end].reshape(a.shape)
             for (name, a), end in zip(params.items(), ends)}
    return replace(net, **_param_fields(views, net.coupling))


def _data_loss(task: str, out: np.ndarray, y: np.ndarray):
    """Mean batch loss and its gradient with respect to ``out``. A mean is
    ``np.add.reduce(...) / n``, ``np.mean``'s own arithmetic."""
    n = out.shape[0]
    if task == "binary":
        prob = _sigmoid(out)
        eps = 1e-12
        loss = -(np.add.reduce(y * np.log(prob + eps) + (1 - y) * np.log(1 - prob + eps)) / n)
        return loss, (prob - y) / n
    resid = out - y
    return np.add.reduce(resid ** 2) / n, 2.0 * resid / n


class _L1Penalty:
    """The L1 penalty of one training run, over its flat buffers ``theta``
    (the parameters), ``grad`` and ``scratch``, each laid out as
    ``named_params`` lays out ``net``.

    ``weights`` is each buffer entry's L1 weight: ``l1_mlp`` on every ``w``,
    ``l1_filter`` on ``z`` and ``z_tilde`` and 0 on the biases. A penalized
    parameter gets its weight here and nowhere else.
    """

    def __init__(self, net: CoupledNetwork, theta: np.ndarray, grad: np.ndarray,
                 scratch: np.ndarray, l1_filter: float, l1_mlp: float):
        self.weights = np.zeros_like(theta)
        weight_net = _on_buffer(net, self.weights)
        for w in weight_net.w:
            w.fill(l1_mlp)
        if net.coupling:
            weight_net.z.fill(l1_filter)
            weight_net.z_tilde.fill(l1_filter)
        self.theta, self.grad, self.scratch = theta, grad, scratch
        self.l1_filter = l1_filter if net.coupling else 0.0
        self.l1_mlp = l1_mlp
        self.scratch_net = _on_buffer(net, scratch)

    def add_to(self, loss):
        """``loss`` plus the penalty, after adding its gradient
        ``weights * sign(theta)`` to ``grad``; uses ``scratch``.

        The loss adds ``l1_filter (sum |z| + sum |z_tilde|)``, then
        ``l1_mlp sum |w_l|`` for l = 0..3, each sum one reduce over that
        parameter alone, so the loss rounds as a per-parameter loop would.
        """
        if not (self.l1_filter > 0 or self.l1_mlp > 0):
            return loss
        tmp = self.scratch
        np.sign(self.theta, out=tmp)
        tmp *= self.weights
        self.grad += tmp
        np.abs(self.theta, out=tmp)
        absolute = self.scratch_net
        if self.l1_filter > 0:
            loss += self.l1_filter * (np.add.reduce(absolute.z) + np.add.reduce(absolute.z_tilde))
        if self.l1_mlp > 0:
            for w in absolute.w:
                loss += self.l1_mlp * np.add.reduce(w, axis=None)
        return loss


def _loss_and_param_grads(net: CoupledNetwork, g_net: CoupledNetwork, X: np.ndarray,
                          y: np.ndarray, l1: _L1Penalty):
    """Mean penalized loss of ``net`` over the batch; writes every gradient
    into the parameter of the same name in ``g_net``. ``net`` and ``g_net``
    are views of ``l1.theta`` and ``l1.grad``."""
    inputs, _, elu_prime, out = _forward_pass(net, X)
    loss, dout = _data_loss(net.task, out, y)

    g = dout.reshape(-1, 1)
    for l in (3, 2, 1, 0):
        np.matmul(inputs[l].T, g, out=g_net.w[l])
        np.add.reduce(g, axis=0, out=g_net.b[l])
        if l:
            g = g @ net.w[l].T
            g *= elu_prime[l - 1]
    if net.coupling:
        p = net.p
        g = g @ net.w[0].T  # only the filter weights read the input gradient
        np.add.reduce(X[:, :p] * g, axis=0, out=g_net.z)
        np.add.reduce(X[:, p:] * g, axis=0, out=g_net.z_tilde)
    return l1.add_to(loss)


def check_training_rows(cfg: TrainConfig, n: int) -> int:
    """The validation rows ``cfg`` holds out of ``n`` training rows, checked to
    leave rows to train on and no fewer rows than one batch."""
    if cfg.batch_size > n:
        raise ConfigurationError(f"batch_size {cfg.batch_size} exceeds n={n}")
    n_val = int(round(cfg.validation_fraction * n))
    if n_val == n:
        raise ConfigurationError(f"validation_fraction leaves no training rows of n={n}")
    return n_val


def train(net: CoupledNetwork, X_aug: np.ndarray, y: np.ndarray,
          cfg: TrainConfig | None = None, seed: int = 0):
    """Train a copy of ``net`` with mini-batch Adam, shuffling from ``seed``.

    Returns ``(trained_net, trace)`` where ``trace`` holds per-epoch mean
    training loss (and validation loss when a validation split is held out).
    The trained network's parameters are views of one flat buffer.
    Raises :class:`TrainingDivergedError` if the loss ever goes non-finite.

    A step's L1 penalty gradient, clipping scale and Adam update run over the
    whole buffer; the penalty's loss terms and the clipping norm add one sum
    per parameter, which keeps the bits of a per-parameter loop.
    """
    cfg = cfg or TrainConfig()
    if not 0 <= seed < inf:
        raise ConfigurationError(f"seed must be in [0, inf), got {seed!r}")
    X_aug = _checked_input(net, X_aug)
    y = np.asarray(y, dtype=float)
    if X_aug.shape[0] != y.shape[0]:
        raise ContractViolation("X_aug and y row counts differ")
    if not (np.all(np.isfinite(X_aug)) and np.all(np.isfinite(y))):
        raise ContractViolation("training data must be finite")
    n = X_aug.shape[0]
    n_val = check_training_rows(cfg, n)

    theta = np.concatenate([a.ravel() for a in net.named_params().values()], dtype=float)
    net = _on_buffer(net, theta)
    rng = np.random.default_rng(seed)
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

    grad = np.zeros_like(theta)
    g_net = _on_buffer(net, grad)
    m, v = np.zeros_like(theta), np.zeros_like(theta)
    tmp, tmp2 = np.empty_like(theta), np.empty_like(theta)
    l1 = _L1Penalty(net, theta, grad, tmp, cfg.l1_filter_penalty, cfg.l1_mlp_penalty)
    # norm_terms view tmp, which holds grad * grad when clipping. The norm adds
    # one sum per parameter in named_params' order: one sum over the buffer, or
    # another order, would move the last bits of every trained network.
    norm_terms = list(l1.scratch_net.named_params().values())
    beta1, beta2, eps = 0.9, 0.999, 1e-8
    lr = cfg.learning_rate
    step = 0
    trace = {"train_loss": [], "val_loss": [] if n_val else None}

    n_tr = Xtr.shape[0]
    for epoch in range(cfg.epochs):
        order = rng.permutation(n_tr)
        X_ep, y_ep = Xtr[order], ytr[order]
        epoch_losses = []
        for start in range(0, n_tr, cfg.batch_size):
            stop = start + cfg.batch_size
            loss = _loss_and_param_grads(net, g_net, X_ep[start:stop], y_ep[start:stop], l1)
            if not isfinite(loss):
                raise TrainingDivergedError(epoch)
            epoch_losses.append(loss)
            step += 1
            if cfg.grad_clip is not None:
                np.multiply(grad, grad, out=tmp)
                norm = sqrt(sum(float(np.add.reduce(t, axis=None)) for t in norm_terms))
                if norm > cfg.grad_clip:
                    grad *= cfg.grad_clip / norm
            # Adam in place, rounding as m = b1 m + (1 - b1) g,
            # v = b2 v + ((1 - b2) g) g and theta -= (lr (m / c1)) / (sqrt(v / c2) + eps)
            # with c1 = 1 - b1^step and c2 = 1 - b2^step.
            m *= beta1
            np.multiply(grad, 1 - beta1, out=tmp)
            m += tmp
            v *= beta2
            np.multiply(grad, 1 - beta2, out=tmp)
            tmp *= grad
            v += tmp
            np.divide(m, 1 - beta1 ** step, out=tmp)
            tmp *= lr
            np.divide(v, 1 - beta2 ** step, out=tmp2)
            np.sqrt(tmp2, out=tmp2)
            tmp2 += eps
            tmp /= tmp2
            theta -= tmp
        trace["train_loss"].append(float(np.mean(epoch_losses)))
        if n_val:
            loss_val, _ = _data_loss(net.task, _forward_pass(net, Xval)[3], yval)
            trace["val_loss"].append(float(loss_val))
    net.check_finite()
    return net, trace


def save_network(net: CoupledNetwork, path):
    """Serialize to a versioned ``.npz`` file; round trips bit-exactly."""
    save_npz(path, SERIALIZATION_VERSION, net.named_params(), task=net.task,
             hidden_sizes=list(net.hidden_sizes), coupling=net.coupling,
             y_mean=net.y_mean, y_std=net.y_std)


def _finite_number(value) -> bool:
    """Whether a JSON value is a number (not a bool) that a finite float holds."""
    return type(value) in (int, float) and abs(value) <= float_info.max


def load_network(path) -> CoupledNetwork:
    """The network ``save_network`` wrote to ``path``. Raises ``ValidationError``
    naming the file when its coupling is not a bool, its ``y_mean`` not a
    finite number or its ``y_std`` not a positive one, its task or hidden
    sizes are not a network's, or its arrays are not the ones ``init_network``
    gives, by name, shape and dtype."""
    meta, data = load_npz(path, SERIALIZATION_VERSION)
    coupling, y_mean, y_std = meta["coupling"], meta["y_mean"], meta["y_std"]
    meta.check((("coupling", coupling, type(coupling) is bool, "true or false"),
                ("y_mean", y_mean, _finite_number(y_mean), "a finite number"),
                ("y_std", y_std, _finite_number(y_std) and y_std > 0, "a finite number > 0")))
    fields = _param_fields(data, coupling)
    w0 = fields["w"][0]
    try:
        template = init_network(w0.shape[0] // (1 if coupling else 2) if w0.ndim else 0,
                                meta["hidden_sizes"], meta["task"], coupling=coupling)
    except ConfigurationError as exc:
        raise ValidationError(f"{path}: {exc}") from exc
    params = template.named_params()
    extra = sorted(data.keys() - params.keys())
    if extra:
        raise ValidationError(f"{path}: array {extra[0]} is not a parameter of a network "
                              f"with coupling {str(coupling).lower()}")
    for name, a in params.items():
        if (data[name].shape, data[name].dtype) != (a.shape, a.dtype):
            raise ValidationError(f"{path}: array {name} is {data[name].dtype} of shape "
                                  f"{data[name].shape}, expected {a.dtype} of shape {a.shape}")
    return replace(template, **fields, y_mean=float(y_mean), y_std=float(y_std))
