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
from math import inf

import numpy as np

from .exceptions import ConfigurationError, ContractViolation, ValidationError, check_fields
from .fdr import CLASSES, labelled_pairs
from .network import CoupledNetwork, batch_input_gradient, batch_input_hessian, pull_back
from .table import read_table, write_table

METHODS = ("model_based", "instance_based")

EPSILON_FLOOR = 1e-12  # calibrate's floor on |s1d[i] * s1d[j]|


def _is_baselines(value) -> bool:
    """Whether ``value`` is ``"dataset_mean"`` or finite vectors."""
    if isinstance(value, str):
        return value == "dataset_mean"
    try:
        return bool(np.isfinite(np.asarray(value, dtype=float)).all())
    except (TypeError, ValueError):  # ragged, or not numbers
        return False


@dataclass(frozen=True)
class AttributionConfig:
    """Quadrature and aggregation knobs for instance-based scores."""

    alpha_steps: int = 32
    beta_steps: int = 32
    baselines: object = "dataset_mean"   # or length-2p vectors, kept as float tuples
    sample_cap: int = 1000

    def __post_init__(self):
        check_fields(self, (
            ("alpha_steps", 1 <= self.alpha_steps < inf, "in [1, inf)"),
            ("beta_steps", 1 <= self.beta_steps < inf, "in [1, inf)"),
            ("baselines", _is_baselines(self.baselines), "'dataset_mean' or finite vectors"),
            ("sample_cap", 1 <= self.sample_cap < inf, "in [1, inf)")))
        if not isinstance(self.baselines, str):  # plain floats, as report.json writes them
            object.__setattr__(self, "baselines", tuple(map(tuple, np.atleast_2d(
                np.asarray(self.baselines, dtype=float)).tolist())))

    def check_baselines(self, width: int):
        """Raise a ConfigurationError unless the baselines are ``"dataset_mean"``
        or vectors of length ``width``, the augmented width 2p."""
        if isinstance(self.baselines, str):
            return
        shape = np.atleast_2d(np.asarray(self.baselines, dtype=float)).shape
        if shape[1:] != (width,):
            raise ConfigurationError(f"attribution.baselines must be vectors of length "
                                     f"2p = {width}, got shape {shape}")


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


def _midpoints(steps: int) -> np.ndarray:
    return (np.arange(steps) + 0.5) / steps


def _path_integral(net: CoupledNetwork, X_aug: np.ndarray, cfg: AttributionConfig | None,
                   grid, derivative, weight, what: str) -> np.ndarray:
    """Sum over samples of ``weight(dx)`` times the mean derivative on the
    path points ``x' + t dx``, ``t`` in ``grid(cfg)``, averaged over the
    baselines ``x'``.

    Samples are the first ``sample_cap`` rows of ``X_aug``; ``dx = x - x'``.
    A path point depends only on ``t``, so the grid is reduced once to its
    distinct values, each weighted by its share of the grid; equal floats
    make identical points, so the mean is over the same points.
    ``derivative(net, points, weights)`` is called once per sample, on its
    distinct path points, and returns their weighted mean; a non-finite
    point makes it non-finite.

    Memory: one sample's derivative call is the only large allocation alive.
    For Hessians, ``mean_input_hessian`` builds no per-point ``(2p, 2p)``
    block and takes the points in blocks of a fixed number of ``J_1``
    entries (``network.HESSIAN_BLOCK``), so its memory does not grow with
    the grid.
    """
    cfg = cfg or AttributionConfig()
    X_aug = np.asarray(X_aug, dtype=float)
    if X_aug.ndim != 2:
        raise ContractViolation("X_aug must be 2-D")
    cfg.check_baselines(X_aug.shape[1])
    baselines = np.atleast_2d(X_aug.mean(axis=0) if isinstance(cfg.baselines, str)
                              else np.asarray(cfg.baselines, dtype=float))
    t, counts = np.unique(grid(cfg), return_counts=True)
    weights = counts / counts.sum()
    total = weight(np.zeros(X_aug.shape[1]))   # zeros in the result's shape
    for base in baselines:
        for k, x in enumerate(X_aug[:cfg.sample_cap]):
            dx = x - base
            mean = derivative(net, base[None, :] + t[:, None] * dx[None, :], weights)
            if not np.all(np.isfinite(mean)):
                raise FloatingPointError(f"non-finite {what} for sample {k}")
            total += weight(dx) * mean
    return total / baselines.shape[0]


def instance_based_2d(net: CoupledNetwork, X_aug: np.ndarray,
                      cfg: AttributionConfig | None = None) -> np.ndarray:
    """Path-integrated Hessian interaction scores.

    For each sample x and baseline x', the double integral over the scaled
    path x' + a*b*(x - x') is approximated on a midpoint product grid of
    ``alpha_steps x beta_steps`` points, weighted by (x_i - x'_i)(x_j - x'_j);
    contributions are summed over samples (up to ``sample_cap``) and averaged
    over baselines. The grid's mean Hessian is taken once per distinct
    product a*b (446 of 1,024 on the 32 x 32 default), each weighted by how
    often it occurs; the integrand carries no a*b weight. Each term, a
    symmetric ``outer(dx, dx)`` times a symmetric mean Hessian, is symmetric.
    """
    return _path_integral(
        net, X_aug, cfg,
        lambda c: np.outer(_midpoints(c.alpha_steps), _midpoints(c.beta_steps)).ravel(),
        # The mean Hessian goes through batch_input_hessian, the name that
        # bench/tracer.py times as the network.hessian layer.
        lambda net, points, weights: batch_input_hessian(net, points, mean=True,
                                                         weights=weights),
        lambda dx: np.outer(dx, dx), "Hessian")


def instance_based_1d(net: CoupledNetwork, X_aug: np.ndarray,
                      cfg: AttributionConfig | None = None) -> np.ndarray:
    """Integrated-gradients univariate scores (midpoint grid on the path).

    The baselines are fixed points, by default the dataset mean. This is not
    expected gradients, which draws its baselines from the data.
    """
    # A scaled sum, not weights @ G: with equal power-of-two weights it
    # rounds exactly as the plain mean over the points does.
    return _path_integral(
        net, X_aug, cfg, lambda c: _midpoints(c.alpha_steps),
        lambda net, points, weights: (weights[:, None]
                                      * batch_input_gradient(net, points)).sum(axis=0),
        lambda dx: dx, "gradient")


def calibrate(s2d: np.ndarray, s1d: np.ndarray) -> np.ndarray:
    """Divide |s2d[i,j]| by sqrt(|s1d[i] * s1d[j]|), floored at ``EPSILON_FLOOR``
    to stay finite."""
    s2d = np.asarray(s2d, dtype=float)
    s1d = np.asarray(s1d, dtype=float)
    if s2d.shape != (s1d.shape[0], s1d.shape[0]):
        raise ContractViolation("s2d/s1d dimensions do not match")
    denom = np.sqrt(np.maximum(np.abs(np.outer(s1d, s1d)), EPSILON_FLOOR))
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
    calibrated = calibrate(s2d, s1d)
    return ImportanceScores(s1d=s1d, s2d=s2d, calibrated=calibrated, method=method)


def write_scores_csv(path, scores: ImportanceScores):
    """Long-format export: one row per labelled pair (i, j), 1-based indices.

    A feature paired with its own knockoff (j = i + p) carries no signal and
    is not in the labelled set (see ``fdr.labelled_pairs``), so it gets no row.
    """
    i, j, n_ko = labelled_pairs(scores.s1d.shape[0] // 2)
    write_table(path, ["i", "j", "class", "raw", "calibrated"],
                [i + 1, j + 1, np.array(CLASSES)[n_ko], scores.s2d[i, j],
                 scores.calibrated[i, j]])


def read_scores_csv(path) -> ImportanceScores:
    """Rebuild score matrices from the long-format CSV (s1d is not stored).

    Pairs without a row, such as a feature with its own knockoff, read as 0.
    Each pair has at most one row, with 1 <= i < j, and the largest index is
    the even width 2p.
    """
    _, data = read_table(path, ["i", "j", "raw", "calibrated"])
    ij = data[:, :2]
    if np.any(ij < 1) or np.any(ij != np.floor(ij)):
        raise ValidationError(f"{path}: pair indices must be positive integers")
    i, j = ij.T.astype(np.intp) - 1
    two_p = int(ij.max())
    reversed_ = np.flatnonzero(i >= j)
    if reversed_.size:
        k = reversed_[0]
        raise ValidationError(f"{path}: pair ({i[k] + 1}, {j[k] + 1}) in row {k + 2} "
                              "does not have i < j")
    if two_p % 2:
        raise ValidationError(f"{path}: largest index {two_p} is odd, "
                              "not the width 2p of an augmented matrix")
    _, first = np.unique(i * two_p + j, return_index=True)
    if first.size < i.size:
        k = np.setdiff1d(np.arange(i.size), first)[0]  # the first row that repeats a pair
        raise ValidationError(f"{path}: pair ({i[k] + 1}, {j[k] + 1}) in row {k + 2} "
                              "repeats an earlier row")
    s2d = np.zeros((two_p, two_p))
    cal = np.zeros((two_p, two_p))
    s2d[i, j] = s2d[j, i] = data[:, 2]
    cal[i, j] = cal[j, i] = data[:, 3]
    return ImportanceScores(s1d=np.zeros(two_p), s2d=s2d, calibrated=cal,
                            method="model_based")
