"""Feedforward network with a pairwise-coupling first layer.

The network consumes an augmented input ``(x, x_ko)`` of length ``2p``. A
coupling layer with per-feature weights ``z`` (originals) and ``z_tilde``
(knockoffs) produces ``p`` linear filter outputs, which feed a 3-hidden-layer
ELU MLP with an affine scalar head (logistic link for binary tasks).

An ablation variant (``coupling=False``) replaces the coupling layer with a
plain dense first layer on all ``2p`` inputs.

All differentiation is done analytically: reverse mode for input gradients,
forward-over-reverse for input Hessians. Both are taken in filter space, with
respect to the ``d0`` filter outputs ``h0`` (``p`` with coupling, ``2p``
without), so the Hessian pushes ``d0`` tangents. The coupling layer is the
linear map ``h0 = z * x + z_tilde * x_ko``; ``pull_back`` applies its
transpose, which carries a derivative from filter space to the ``2p``
augmented inputs. No other module reads ``z`` or ``z_tilde``.

``train`` keeps every parameter in one float64 buffer (``w0..w3``, then
``z, z_tilde``, then ``b0..b3``) and rebinds the network's arrays as views of
it; gradients and the Adam moments live in matching buffers, so clipping and
each Adam step are a handful of whole-buffer operations. Each of them rounds
exactly as a per-parameter Adam loop would, and ``train`` is bit-identical to
the reference loop kept in ``tests/test_network.py``.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from .exceptions import ConfigurationError, ContractViolation, TrainingDivergedError
from .table import load_npz, save_npz

TASKS = ("regression", "binary")

SERIALIZATION_VERSION = 1

HIDDEN_SIZES = (64, 32, 16)

FILTER_INIT = 0.1  # the common start of every z and z_tilde


def _sigmoid(u):
    out = np.empty_like(u, dtype=float)
    pos = u >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-u[pos]))
    eu = np.exp(u[~pos])
    out[~pos] = eu / (1.0 + eu)
    return out


@dataclass
class TrainConfig:
    """Hyperparameters for mini-batch Adam training; the defaults are the
    experiment protocol's profile, which every entry point shares."""

    learning_rate: float = 1e-3
    epochs: int = 300
    batch_size: int = 64
    seed: int = 0
    l1_filter_penalty: float = 1e-4
    # Sparsity on the MLP weight matrices pushes additive effects into
    # disjoint hidden units, which the weight-path interaction scores need.
    l1_mlp_penalty: float = 5e-4
    grad_clip: float | None = 1.0
    validation_fraction: float = 0.0

    def validate(self):
        if self.l1_mlp_penalty < 0:
            raise ConfigurationError("l1_mlp_penalty must be nonnegative")
        if self.grad_clip is not None and self.grad_clip <= 0:
            raise ConfigurationError("grad_clip must be positive")
        if self.learning_rate <= 0:
            raise ConfigurationError("learning_rate must be positive")
        if self.epochs < 1:
            raise ConfigurationError("epochs must be >= 1")
        if self.batch_size < 1:
            raise ConfigurationError("batch_size must be >= 1")
        if self.l1_filter_penalty < 0:
            raise ConfigurationError("l1_filter_penalty must be nonnegative")
        if not 0.0 <= self.validation_fraction < 1.0:
            raise ConfigurationError("validation_fraction must be in [0, 1)")


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
        if self.coupling:
            return self.w[0].shape[0]
        return self.w[0].shape[0] // 2

    def check_finite(self):
        for arr in self._all_params():
            if not np.all(np.isfinite(arr)):
                raise ContractViolation("network contains non-finite parameters")

    def _all_params(self):
        params = []
        if self.coupling:
            params += [self.z, self.z_tilde]
        params += list(self.w) + list(self.b)
        return params


def init_network(p, hidden_sizes=HIDDEN_SIZES, task="regression", seed=0,
                 coupling=True) -> CoupledNetwork:
    """Build a freshly initialized network.

    MLP weights use a Glorot-style scaled-uniform draw; biases are zero. The
    filter weights ``z`` and ``z_tilde`` start equal (``FILTER_INIT``) so the
    original feature and its knockoff compete from a symmetric start.
    """
    if p < 1:
        raise ConfigurationError(f"feature count must be >= 1, got {p}")
    hidden_sizes = tuple(int(h) for h in hidden_sizes)
    if len(hidden_sizes) != 3 or any(h < 1 for h in hidden_sizes):
        raise ConfigurationError(f"need 3 positive hidden sizes, got {hidden_sizes}")
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
        p = net.p
        return net.z * X[..., :p] + net.z_tilde * X[..., p:]
    return X


def pull_back(net: CoupledNetwork, G: np.ndarray, axes) -> np.ndarray:
    """Transpose of the coupling layer on the named axes of ``G``.

    Each axis in ``axes`` runs over the ``d0`` filter outputs and comes back
    over the ``2p`` augmented inputs as ``zbar * G[..., idx]``, where
    ``zbar = (z, z_tilde)`` and ``idx = (0..p-1, 0..p-1)``. The scale is one
    product over all axes, so a symmetric ``G`` pulls back to a symmetric
    result. Without coupling the filter outputs are the inputs and ``G`` is
    returned unchanged.

    Memory: the result is the one new array. ``G`` is viewed with a length-1
    axis before each pulled axis and multiplied once by the ``(2, p)`` scale,
    so no gathered copy of ``G`` is made.
    """
    if not net.coupling:
        return G
    zbar = np.concatenate([net.z, net.z_tilde]).reshape(2, net.p)
    pulled = [axis % G.ndim for axis in axes]
    split, joined = [], []
    for axis, size in enumerate(G.shape):
        split += [1, size] if axis in pulled else [size]
        joined.append(2 * size if axis in pulled else size)
    scale = 1.0
    for axis in pulled:
        shape = [1] * len(split)
        at = axis + sum(a < axis for a in pulled)   # where ``axis`` splits in two
        shape[at:at + 2] = zbar.shape
        scale = scale * zbar.reshape(shape)
    return (scale * G.reshape(split)).reshape(joined)


def _forward_pass(net: CoupledNetwork, X: np.ndarray):
    """Run the MLP on a batch.

    Returns the layer inputs ``[h0, h1, h2, h3]``, the pre-activations of the
    three ELU layers, ELU' of each pre-activation, and the output.
    """
    inputs, pre, elu_prime = [_filter_layer(net, X)], [], []
    for l in range(3):
        a = inputs[l] @ net.w[l] + net.b[l]
        neg = np.minimum(a, 0.0)
        pre.append(a)
        inputs.append(np.maximum(a, np.expm1(neg)))  # expm1(a) >= a for a <= 0
        elu_prime.append(np.exp(neg))  # exp(0) is exactly 1, so no mask is needed
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


def batch_input_hessian(net: CoupledNetwork, X_aug: np.ndarray) -> np.ndarray:
    """Input Hessians for a batch, shape (n, 2p, 2p).

    Forward-over-reverse in filter space: one unit tangent per filter output
    is pushed through the forward pass, then through the adjoint pass. The
    ``d0 x d0`` result is symmetrized, so H == H.T holds exactly, and both
    axes are pulled back to the augmented inputs.

    Memory: apart from the pre-activation tangents kept for the adjoint pass,
    each freed as that pass uses it, at most two ``(n, d0, width)`` tangent
    blocks are alive at a time. The tangents are freed before the pull-back,
    which holds the ``(n, d0, d0)`` block and its ``(n, 2p, 2p)`` result.
    """
    X_aug = _checked_input(net, X_aug)
    net.check_finite()
    inputs, pre, elu_prime, _ = _forward_pass(net, X_aug)

    # Tangents of the pre-activations, one row per filter-output direction.
    tpre = [np.eye(inputs[0].shape[-1]) @ net.w[0]]
    for l in (1, 2):
        tpre.append((elu_prime[l - 1][:, None, :] * tpre[l - 1]) @ net.w[l])

    g, tg = net.w[3][:, 0], 0.0        # gradient w.r.t. h3 and its tangents
    for l in (2, 1, 0):
        # ELU'' with the left-limit convention at the kink: ELU' for a <= 0, else 0.
        elu_second = np.where(pre[l] > 0, 0.0, elu_prime[l])
        ga = g * elu_prime[l]
        tga = (g * elu_second)[:, None, :] * tpre.pop()
        tg *= elu_prime[l][:, None, :]     # the first pass makes the scalar 0 an array
        tga += tg
        g = ga @ net.w[l].T
        tg = tga @ net.w[l].T
        del tga
    G = tg + np.swapaxes(tg, -1, -2)
    del tg
    G /= 2.0
    return pull_back(net, G, (-2, -1))


class _Flat(NamedTuple):
    """One float64 buffer and a network whose parameters are views of it.

    Layout: w0..w3, then z and z_tilde (coupling only), then b0..b3, so the
    MLP weights and the filter weights are each one contiguous slice.
    """

    buf: np.ndarray
    net: CoupledNetwork


def _flatten(net: CoupledNetwork, buf: np.ndarray | None = None) -> _Flat:
    """Copy ``net``'s parameters into a new buffer, or view ``buf`` laid out alike."""
    arrays = [*net.w, *([net.z, net.z_tilde] if net.coupling else []), *net.b]
    if buf is None:
        buf = np.concatenate([a.ravel() for a in arrays], dtype=float)
    views, start = [], 0
    for a in arrays:
        views.append(buf[start:start + a.size].reshape(a.shape))
        start += a.size
    z, z_tilde = views[4:6] if net.coupling else (None, None)
    return _Flat(buf, replace(net, w=views[:4], b=views[-4:], z=z, z_tilde=z_tilde))


def _data_loss(task: str, out: np.ndarray, y: np.ndarray):
    """Mean batch loss and its gradient with respect to ``out``."""
    n = out.shape[0]
    if task == "binary":
        prob = _sigmoid(out)
        eps = 1e-12
        loss = -np.mean(y * np.log(prob + eps) + (1 - y) * np.log(1 - prob + eps))
        return loss, (prob - y) / n
    resid = out - y
    return np.mean(resid ** 2), 2.0 * resid / n


def _loss_and_param_grads(params: _Flat, grads: _Flat, X: np.ndarray, y: np.ndarray,
                          l1_filter: float, l1_mlp: float):
    """Mean penalized loss over the batch; writes every gradient into ``grads``."""
    net, g_net = params.net, grads.net
    inputs, _, elu_prime, out = _forward_pass(net, X)
    loss, dout = _data_loss(net.task, out, y)

    g = dout.reshape(-1, 1)
    for l in (3, 2, 1, 0):
        np.matmul(inputs[l].T, g, out=g_net.w[l])
        np.add.reduce(g, axis=0, out=g_net.b[l])
        g = g @ net.w[l].T
        if l:
            g *= elu_prime[l - 1]
    n_w = sum(w.size for w in net.w)
    if net.coupling:
        p = net.p
        np.add.reduce(X[:, :p] * g, axis=0, out=g_net.z)
        np.add.reduce(X[:, p:] * g, axis=0, out=g_net.z_tilde)
        if l1_filter > 0:
            loss += l1_filter * (np.abs(net.z).sum() + np.abs(net.z_tilde).sum())
            filters = slice(n_w, n_w + 2 * p)
            grads.buf[filters] += l1_filter * np.sign(params.buf[filters])
    if l1_mlp > 0:
        for l in range(4):
            loss += l1_mlp * np.abs(net.w[l]).sum()
        grads.buf[:n_w] += l1_mlp * np.sign(params.buf[:n_w])
    return loss


def train(net: CoupledNetwork, X_aug: np.ndarray, y: np.ndarray,
          cfg: TrainConfig | None = None):
    """Train a copy of ``net`` with mini-batch Adam.

    Returns ``(trained_net, trace)`` where ``trace`` holds per-epoch mean
    training loss (and validation loss when a validation split is held out).
    The trained network's parameters are views of one flat buffer.
    Raises :class:`TrainingDivergedError` if the loss ever goes non-finite.
    """
    cfg = cfg or TrainConfig()
    cfg.validate()
    X_aug = _checked_input(net, X_aug)
    y = np.asarray(y, dtype=float)
    if X_aug.shape[0] != y.shape[0]:
        raise ContractViolation("X_aug and y row counts differ")
    if not (np.all(np.isfinite(X_aug)) and np.all(np.isfinite(y))):
        raise ContractViolation("training data must be finite")
    n = X_aug.shape[0]
    if cfg.batch_size > n:
        raise ConfigurationError(f"batch_size {cfg.batch_size} exceeds n={n}")

    params = _flatten(net)
    net = params.net
    rng = np.random.default_rng(cfg.seed)

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

    theta = params.buf
    grads = _flatten(net, np.zeros_like(theta))
    grad = grads.buf
    m, v = np.zeros_like(theta), np.zeros_like(theta)
    tmp, tmp2 = np.empty_like(theta), np.empty_like(theta)
    # norm_terms view tmp, which holds grad * grad when clipping. The norm adds
    # one sum per parameter, output layer first: one sum over the buffer, or
    # another order, would move the last bits of every trained network.
    sq = _flatten(net, tmp).net
    norm_terms = [t for l in (3, 2, 1, 0) for t in (sq.w[l], sq.b[l])]
    if net.coupling:
        norm_terms += [sq.z, sq.z_tilde]
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
            loss = _loss_and_param_grads(params, grads, X_ep[start:stop], y_ep[start:stop],
                                         cfg.l1_filter_penalty, cfg.l1_mlp_penalty)
            if not np.isfinite(loss):
                raise TrainingDivergedError(epoch)
            epoch_losses.append(loss)
            step += 1
            if cfg.grad_clip is not None:
                np.multiply(grad, grad, out=tmp)
                norm = np.sqrt(sum(float(np.add.reduce(t, axis=None)) for t in norm_terms))
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
    arrays = {f"w{l}": net.w[l] for l in range(4)}
    arrays.update({f"b{l}": net.b[l] for l in range(4)})
    if net.coupling:
        arrays.update(z=net.z, z_tilde=net.z_tilde)
    save_npz(path, SERIALIZATION_VERSION, arrays, task=net.task,
             hidden_sizes=list(net.hidden_sizes), coupling=net.coupling,
             y_mean=net.y_mean, y_std=net.y_std)


def load_network(path) -> CoupledNetwork:
    meta, data = load_npz(path, SERIALIZATION_VERSION)
    coupling = bool(meta["coupling"])
    return CoupledNetwork(
        z=data["z"] if coupling else None,
        z_tilde=data["z_tilde"] if coupling else None,
        w=[data[f"w{l}"] for l in range(4)],
        b=[data[f"b{l}"] for l in range(4)],
        task=meta["task"],
        hidden_sizes=tuple(meta["hidden_sizes"]),
        coupling=coupling,
        y_mean=float(meta["y_mean"]),
        y_std=float(meta["y_std"]),
    )
