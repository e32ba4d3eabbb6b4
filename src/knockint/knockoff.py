"""Second-order Gaussian knockoff construction.

Fits a Gaussian model (mean + covariance) to the feature matrix and samples
knockoff copies from the conditional distribution

    X_ko | X ~ N(X - diag(s) Sigma^-1 (X - mu) + ..., 2 diag(s) - diag(s) Sigma^-1 diag(s))

using the closed-form equicorrelated choice of ``s``. The joint second
moments of ``(X, X_ko)`` then match the knockoff target: cov(X_ko) = Sigma
and cov(X, X_ko) = Sigma - diag(s).

Sampling never sees the response, by construction of the interface.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np
from scipy import linalg

from .exceptions import ConfigurationError, ContractViolation, DegenerateFeatureError
from .table import float_rows, load_npz, read_table, save_npz, write_table

MODEL_VERSION = 1


@dataclass
class GaussianKnockoffModel:
    """Fitted feature model plus precomputed conditional-sampling factors."""

    mu: np.ndarray            # (p,)
    sigma: np.ndarray         # (p, p), SPD after ridge
    s: np.ndarray             # (p,), strictly positive
    cond_mean_map: np.ndarray   # I - diag(s) Sigma^-1
    cond_cov_factor: np.ndarray  # lower Cholesky of 2 diag(s) - diag(s) Sigma^-1 diag(s)

    @property
    def p(self) -> int:
        return self.mu.shape[0]


def solve_s(sigma: np.ndarray, epsilon: float = 1e-3) -> np.ndarray:
    """Equicorrelated s-vector on the correlation scale.

    On the correlation matrix R the classic choice is
    ``s_corr = min(2 lambda_min(R), 1)`` for every coordinate; shrinking by
    ``1 - epsilon`` keeps the conditional covariance strictly PD. The result
    is rescaled back by the feature variances.
    """
    sigma = np.asarray(sigma, dtype=float)
    if sigma.ndim != 2 or sigma.shape[0] != sigma.shape[1]:
        raise ContractViolation("sigma must be square")
    if not np.allclose(sigma, sigma.T, atol=1e-10):
        raise ContractViolation("sigma must be symmetric")
    var = np.diag(sigma)
    if np.any(var <= 0):
        raise ContractViolation("sigma has nonpositive diagonal")
    scale = np.sqrt(var)
    corr = sigma / np.outer(scale, scale)
    lam_min = linalg.eigh(corr, eigvals_only=True)[0]
    if lam_min <= 0:
        raise ContractViolation("sigma is not positive definite")
    s_corr = (1.0 - epsilon) * min(2.0 * lam_min, 1.0)
    return s_corr * var


def _conditional_factors(sigma: np.ndarray, s: np.ndarray):
    sigma_inv = linalg.inv(sigma)
    ds = np.diag(s)
    cond_mean_map = np.eye(len(s)) - ds @ sigma_inv
    cond_cov = 2.0 * ds - ds @ sigma_inv @ ds
    cond_cov = (cond_cov + cond_cov.T) / 2.0
    factor = linalg.cholesky(cond_cov, lower=True)
    return cond_mean_map, factor


def fit_gaussian(X: np.ndarray, ridge: float = 0.0,
                 s_scale: float = 1.0) -> GaussianKnockoffModel:
    """Estimate mean/covariance and precompute the sampling factors.

    The ridge is added to the covariance diagonal and auto-increased (decade
    steps) until the smallest eigenvalue reaches 1e-8.

    ``s_scale`` in (0, 1] shrinks the equicorrelated gap vector. Any positive
    s keeping the conditional covariance PD yields valid knockoffs; smaller s
    correlates each knockoff with its original, trading selection power for
    stronger null controls.
    """
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[0] < 2:
        raise ContractViolation(f"need an n x p matrix with n >= 2, got shape {X.shape}")
    if not np.all(np.isfinite(X)):
        raise ContractViolation("X must be finite")
    if ridge < 0:
        raise ConfigurationError("ridge must be nonnegative")
    if not 0 < s_scale <= 1:
        raise ConfigurationError("s_scale must lie in (0, 1]")
    variances = X.var(axis=0)
    if ridge == 0.0 and np.any(variances == 0):
        raise DegenerateFeatureError(np.flatnonzero(variances == 0))

    mu = X.mean(axis=0)
    sigma = np.cov(X, rowvar=False)
    sigma = np.atleast_2d(sigma)
    sigma = (sigma + sigma.T) / 2.0
    p = sigma.shape[0]

    current = ridge
    sigma_r = sigma + current * np.eye(p)
    lam_min = linalg.eigh(sigma_r, eigvals_only=True)[0]
    while lam_min < 1e-8:
        current = max(current * 10.0, 1e-10)
        sigma_r = sigma + current * np.eye(p)
        lam_min = linalg.eigh(sigma_r, eigvals_only=True)[0]

    s = s_scale * solve_s(sigma_r)
    cond_mean_map, factor = _conditional_factors(sigma_r, s)
    return GaussianKnockoffModel(mu=mu, sigma=sigma_r, s=s,
                                 cond_mean_map=cond_mean_map,
                                 cond_cov_factor=factor)


def sample_knockoffs(X: np.ndarray, model: GaussianKnockoffModel, seed: int = 0) -> np.ndarray:
    """Draw one knockoff row per input row; deterministic per seed."""
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[1] != model.p:
        raise ContractViolation(f"X has shape {X.shape}, model expects p={model.p}")
    centered = X - model.mu
    cond_mean = model.mu + centered @ model.cond_mean_map.T
    rng = np.random.default_rng(seed)
    noise = rng.standard_normal(size=X.shape)
    return cond_mean + noise @ model.cond_cov_factor.T


def knockoff_diagnostics(X: np.ndarray, X_ko: np.ndarray, model: GaussianKnockoffModel) -> dict:
    """Max deviations of the empirical joint moments from their targets."""
    X = np.asarray(X, dtype=float)
    X_ko = np.asarray(X_ko, dtype=float)
    if X.shape != X_ko.shape:
        raise ContractViolation("X and X_ko shapes differ")
    if X.shape[0] < 2:
        raise ContractViolation("need at least 2 rows for diagnostics")
    p = model.p
    joint = np.cov(np.hstack([X, X_ko]), rowvar=False)
    cov_ko = joint[p:, p:]
    cross = joint[:p, p:]
    target_cross = model.sigma - np.diag(model.s)
    return {
        "max_dev_cov_knockoff": float(np.max(np.abs(cov_ko - model.sigma))),
        "max_dev_cross_cov": float(np.max(np.abs(cross - target_cross))),
        "mean_shift": (X_ko.mean(axis=0) - model.mu).tolist(),
    }


def write_augmented_csv(path, X: np.ndarray, X_ko: np.ndarray):
    """CSV export with columns x1..xp, x1_ko..xp_ko."""
    if X.shape != X_ko.shape:
        raise ContractViolation("X and X_ko shapes differ")
    p = X.shape[1]
    write_table(path, [f"x{j+1}" for j in range(p)] + [f"x{j+1}_ko" for j in range(p)],
                float_rows(X, X_ko))


def read_augmented_csv(path) -> np.ndarray:
    header, data = read_table(path)
    n_ko = sum(1 for name in header if name.endswith("_ko"))
    if n_ko * 2 != len(header):
        raise ContractViolation("augmented CSV must have equal original and _ko columns")
    return data


def save_model(model: GaussianKnockoffModel, path):
    save_npz(path, MODEL_VERSION, {f.name: getattr(model, f.name) for f in fields(model)})


def load_model(path) -> GaussianKnockoffModel:
    _, data = load_npz(path, MODEL_VERSION)
    return GaussianKnockoffModel(**{f.name: data[f.name] for f in fields(GaussianKnockoffModel)})
