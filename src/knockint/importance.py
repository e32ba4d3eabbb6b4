"""Univariate and pairwise importance scores for trained networks.

Two families:

* model-based — read directly off the trained weights: the first-layer rows,
  pulled back through the coupling layer (``network.pull_back``), aggregated
  through the product of the deeper weight matrices;
* instance-based — path-integrated input gradients (univariate) and
  path-integrated input Hessians (pairwise), accumulated over samples.

Both index augmented features 0..2p-1 (originals first, knockoffs second)
and feed the same calibration rule: the pairwise magnitude divided by the
geometric mean of the two univariate magnitudes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exceptions import ConfigurationError, ContractViolation, ValidationError
from .fdr import CLASSES, labelled_pairs
from .network import CoupledNetwork, batch_input_gradient, batch_input_hessian, pull_back
from .table import read_table, write_table

METHODS = ("model_based", "instance_based")


@dataclass
class AttributionConfig:
    """Quadrature and aggregation knobs for instance-based scores."""

    alpha_steps: int = 32
    beta_steps: int = 32
    baselines: object = "dataset_mean"   # or a list of length-2p vectors
    sample_cap: int = 1000
    epsilon_floor: float = 1e-12

    def validate(self):
        if self.alpha_steps < 1 or self.beta_steps < 1:
            raise ConfigurationError("quadrature steps must be >= 1")
        if self.sample_cap < 1:
            raise ConfigurationError("sample_cap must be >= 1")
        if self.epsilon_floor <= 0:
            raise ConfigurationError("epsilon_floor must be positive")


@dataclass
class ImportanceScores:
    """Raw and calibrated scores; indices 0..p-1 originals, p..2p-1 knockoffs."""

    s1d: np.ndarray          # (2p,)
    s2d: np.ndarray          # (2p, 2p), symmetric
    calibrated: np.ndarray   # (2p, 2p), symmetric nonnegative
    method: str


def _aggregate_weights(net: CoupledNetwork) -> np.ndarray:
    """Product of the post-first-layer weight matrices, shape (p1,)."""
    return (net.w[1] @ net.w[2] @ net.w[3])[:, 0]


def model_based_2d(net: CoupledNetwork) -> np.ndarray:
    """Weight-path interaction scores: A diag(w_agg) A^T on the pulled-back rows."""
    net.check_finite()
    A = pull_back(net, net.w[0], (0,))
    w_agg = _aggregate_weights(net)
    s2d = (A * w_agg) @ A.T
    return (s2d + s2d.T) / 2.0


def model_based_1d(net: CoupledNetwork) -> np.ndarray:
    net.check_finite()
    return pull_back(net, net.w[0] @ _aggregate_weights(net), (0,))


def _resolve_baselines(cfg: AttributionConfig, X_aug: np.ndarray) -> np.ndarray:
    if isinstance(cfg.baselines, str):
        if cfg.baselines != "dataset_mean":
            raise ConfigurationError(f"unknown baseline spec {cfg.baselines!r}")
        return X_aug.mean(axis=0)[None, :]
    baselines = np.asarray(cfg.baselines, dtype=float)
    if baselines.ndim == 1:
        baselines = baselines[None, :]
    if baselines.shape[1] != X_aug.shape[1]:
        raise ContractViolation("baseline length does not match augmented width")
    return baselines


def _midpoints(steps: int) -> np.ndarray:
    return (np.arange(steps) + 0.5) / steps


def _path_integral(net: CoupledNetwork, X_aug: np.ndarray, cfg: AttributionConfig | None,
                   grid, derivative, weight, what: str) -> np.ndarray:
    """Sum over samples of ``weight(dx)`` times the mean of ``derivative`` on
    the path points ``x' + t dx``, ``t`` in ``grid(cfg)``, averaged over the
    baselines ``x'``.

    Samples are the first ``sample_cap`` rows of ``X_aug``; ``dx = x - x'``.
    ``derivative`` is called once per sample, on all of its path points.

    Memory: one sample's ``(points, ...)`` block of derivatives, for
    Hessians ``(points, 2p, 2p)``, is alive at a time; it is released before
    the next sample's derivative is taken.
    """
    cfg = cfg or AttributionConfig()
    cfg.validate()
    X_aug = np.asarray(X_aug, dtype=float)
    if X_aug.ndim != 2:
        raise ContractViolation("X_aug must be 2-D")
    baselines = _resolve_baselines(cfg, X_aug)
    t = grid(cfg)
    total = weight(np.zeros(X_aug.shape[1]))   # zeros in the result's shape
    for base in baselines:
        for k, x in enumerate(X_aug[:cfg.sample_cap]):
            dx = x - base
            values = derivative(net, base[None, :] + t[:, None] * dx[None, :])
            if not np.all(np.isfinite(values)):
                raise FloatingPointError(f"non-finite {what} for sample {k}")
            total += weight(dx) * values.mean(axis=0)
            del values
    return total / baselines.shape[0]


def instance_based_2d(net: CoupledNetwork, X_aug: np.ndarray,
                      cfg: AttributionConfig | None = None) -> np.ndarray:
    """Path-integrated Hessian interaction scores.

    For each sample x and baseline x', the double integral over the scaled
    path x' + a*b*(x - x') is approximated on a midpoint product grid of
    ``alpha_steps x beta_steps`` Hessian evaluations, weighted by
    (x_i - x'_i)(x_j - x'_j); contributions are summed over samples (up to
    ``sample_cap``) and averaged over baselines.
    """
    total = _path_integral(
        net, X_aug, cfg,
        lambda c: np.outer(_midpoints(c.alpha_steps), _midpoints(c.beta_steps)).ravel(),
        batch_input_hessian, lambda dx: np.outer(dx, dx), "Hessian")
    return (total + total.T) / 2.0


def instance_based_1d(net: CoupledNetwork, X_aug: np.ndarray,
                      cfg: AttributionConfig | None = None) -> np.ndarray:
    """Integrated-gradients univariate scores (midpoint grid on the path).

    The baselines are fixed points, by default the dataset mean. This is not
    expected gradients, which draws its baselines from the data.
    """
    return _path_integral(net, X_aug, cfg, lambda c: _midpoints(c.alpha_steps),
                          batch_input_gradient, lambda dx: dx, "gradient")


def calibrate(s2d: np.ndarray, s1d: np.ndarray, epsilon_floor: float = 1e-12) -> np.ndarray:
    """Divide |s2d[i,j]| by sqrt(|s1d[i] * s1d[j]|), floored to stay finite."""
    s2d = np.asarray(s2d, dtype=float)
    s1d = np.asarray(s1d, dtype=float)
    if epsilon_floor <= 0:
        raise ConfigurationError("epsilon_floor must be positive")
    if s2d.shape != (s1d.shape[0], s1d.shape[0]):
        raise ContractViolation("s2d/s1d dimensions do not match")
    denom = np.sqrt(np.maximum(np.abs(np.outer(s1d, s1d)), epsilon_floor))
    out = np.abs(s2d) / denom
    return (out + out.T) / 2.0


def compute_scores(net: CoupledNetwork, method: str, X_aug: np.ndarray | None = None,
                   cfg: AttributionConfig | None = None) -> ImportanceScores:
    """One-stop scoring: raw 1D/2D scores plus the calibrated matrix."""
    cfg = cfg or AttributionConfig()
    if method == "model_based":
        s2d = model_based_2d(net)
        s1d = model_based_1d(net)
    elif method == "instance_based":
        if X_aug is None:
            raise ContractViolation("instance_based scoring needs sample data")
        s2d = instance_based_2d(net, X_aug, cfg)
        s1d = instance_based_1d(net, X_aug, cfg)
    else:
        raise ConfigurationError(f"unknown method {method!r}")
    calibrated = calibrate(s2d, s1d, cfg.epsilon_floor)
    return ImportanceScores(s1d=s1d, s2d=s2d, calibrated=calibrated, method=method)


def write_scores_csv(path, scores: ImportanceScores):
    """Long-format export: one row per labelled pair (i, j), 1-based indices.

    A feature paired with its own knockoff (j = i + p) carries no signal and
    is not in the labelled set (see ``fdr.labelled_pairs``), so it gets no row.
    """
    i, j, n_ko = labelled_pairs(scores.s1d.shape[0] // 2)
    write_table(path, ["i", "j", "class", "raw", "calibrated"],
                zip((i + 1).tolist(), (j + 1).tolist(), np.array(CLASSES)[n_ko].tolist(),
                    scores.s2d[i, j].tolist(), scores.calibrated[i, j].tolist()))


def read_scores_csv(path) -> ImportanceScores:
    """Rebuild score matrices from the long-format CSV (s1d is not stored).

    Pairs without a row, such as a feature with its own knockoff, read as 0.
    """
    _, data = read_table(path, ["i", "j", "raw", "calibrated"])
    ij = data[:, :2]
    if np.any(ij < 1) or np.any(ij != np.floor(ij)):
        raise ValidationError(f"{path}: pair indices must be positive integers")
    i, j = ij.T.astype(np.intp) - 1
    two_p = int(ij.max())
    s2d = np.zeros((two_p, two_p))
    cal = np.zeros((two_p, two_p))
    s2d[i, j] = s2d[j, i] = data[:, 2]
    cal[i, j] = cal[j, i] = data[:, 3]
    return ImportanceScores(s1d=np.zeros(two_p), s2d=s2d, calibrated=cal,
                            method="model_based")
