"""Tests for the second-order Gaussian knockoff construction."""

import warnings

import numpy as np
import pytest
from scipy import linalg

from knockint.exceptions import (ConfigurationError, ContractViolation,
                                 DegenerateFeatureError, ValidationError)
from knockint.knockoff import (GaussianKnockoffModel, fit_gaussian, knockoff_diagnostics, load_model,
                               read_augmented_csv, sample_knockoffs, save_model,
                               solve_s, write_augmented_csv)

EPS = 1e-3  # shrink factor used by solve_s


# ---------------------------------------------------------------- solve_s

def test_solve_s_identity():
    s = solve_s(np.eye(3))
    np.testing.assert_allclose(s, (1 - EPS) * np.ones(3))


def test_solve_s_two_by_two_half_correlation():
    # eigenvalues of [[1,.5],[.5,1]] are 1.5 and 0.5; 2*lambda_min = 1.
    s = solve_s(np.array([[1.0, 0.5], [0.5, 1.0]]))
    np.testing.assert_allclose(s, (1 - EPS) * np.ones(2))


def test_solve_s_diagonal_variances_rescale():
    s = solve_s(np.diag([4.0, 9.0]))
    np.testing.assert_allclose(s, (1 - EPS) * np.array([4.0, 9.0]))


def test_solve_s_rejects_non_pd():
    with pytest.raises(ContractViolation):
        solve_s(np.array([[1.0, 2.0], [2.0, 1.0]]))
    with pytest.raises(ContractViolation):
        solve_s(np.array([[1.0, 0.1], [0.3, 1.0]]))


def test_solve_s_conditional_covariance_pd():
    rng = np.random.default_rng(0)
    A = rng.standard_normal((6, 4))
    sigma = A.T @ A / 6 + 0.1 * np.eye(4)
    s = solve_s(sigma)
    ds = np.diag(s)
    cond = 2 * ds - ds @ linalg.inv(sigma) @ ds
    assert np.all(linalg.eigh(cond, eigvals_only=True) > 0)


# ---------------------------------------------------------------- fit

def test_fit_iid_normal_sigma_near_identity(rng):
    X = rng.standard_normal((100_000, 4))
    model = fit_gaussian(X)
    assert np.max(np.abs(model.sigma - np.eye(4))) < 0.05


def test_fit_rejects_single_row():
    with pytest.raises(ContractViolation):
        fit_gaussian(np.ones((1, 3)))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_fit_rejects_non_finite(rng, bad):
    X = rng.standard_normal((50, 3))
    X[7, 1] = bad
    with pytest.raises(ContractViolation, match="finite"):
        fit_gaussian(X, ridge=1e-6)


def test_fit_rejects_overflowing_covariance(rng):
    # Finite features whose covariance overflows float64 fail before any
    # eigensolve, and without a numpy warning.
    X = rng.uniform(size=(40, 10)) * 1e200
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ContractViolation, match="covariance of X is not finite"):
            fit_gaussian(X)


def test_fit_duplicated_column_with_ridge(rng):
    X = rng.standard_normal((500, 2))
    X = np.hstack([X, X[:, :1]])
    model = fit_gaussian(X, ridge=1e-6)
    assert np.all(linalg.eigh(model.sigma, eigvals_only=True) > 0)
    assert np.all(model.s > 0)


@pytest.mark.parametrize("n", [3, 10, 1000])
@pytest.mark.parametrize("value", [7.0, 0.1, 0.7, 0.3, 1 / 3])
def test_fit_constant_column_degenerate_error(rng, value, n):
    # The mean of a column of 0.1 rounds away from 0.1, so its variance is
    # about 1e-33 and not 0; constancy is tested exactly.
    X = rng.standard_normal((n, 3))
    X[:, 1] = value
    with pytest.raises(DegenerateFeatureError) as err:
        fit_gaussian(X, ridge=0.0)
    assert list(err.value.columns) == [1]


def test_fit_s_scale_validation(rng):
    X = rng.standard_normal((100, 3))
    with pytest.raises(ConfigurationError):
        fit_gaussian(X, s_scale=0.0)
    with pytest.raises(ConfigurationError):
        fit_gaussian(X, s_scale=1.5)
    half = fit_gaussian(X, s_scale=0.5)
    full = fit_gaussian(X, s_scale=1.0)
    np.testing.assert_allclose(half.s, 0.5 * full.s)


def test_conditional_factor_identity():
    # L L^T must reconstruct 2 diag(s) - diag(s) Sigma^-1 diag(s).
    rng = np.random.default_rng(1)
    X = rng.standard_normal((2000, 5)) @ rng.standard_normal((5, 5))
    model = fit_gaussian(X, ridge=1e-8)
    ds = np.diag(model.s)
    target = 2 * ds - ds @ linalg.inv(model.sigma) @ ds
    np.testing.assert_allclose(model.cond_cov_factor @ model.cond_cov_factor.T,
                               target, atol=1e-10)


def _spd_covariances():
    rng = np.random.default_rng(7)
    A = rng.standard_normal((8, 6))
    ar1 = 0.8 ** np.abs(np.subtract.outer(np.arange(6), np.arange(6)))
    scale = np.array([1e-3, 0.1, 1.0, 10.0, 1e3, 1e4])
    return {"identity": np.eye(6), "equicorrelated": 0.6 * np.ones((6, 6)) + 0.4 * np.eye(6),
            "ar1": ar1, "wishart": A.T @ A / 8 + 0.05 * np.eye(6),
            "ar1_rescaled": ar1 * np.outer(scale, scale)}


@pytest.mark.parametrize("name", sorted(_spd_covariances()))
def test_conditional_factors_match_scipy_formula(name):
    # The model's sampling factors against the formula written out with
    # scipy.linalg: I - diag(s) Sigma^-1 and the lower Cholesky factor of
    # 2 diag(s) - diag(s) Sigma^-1 diag(s).
    sigma_true = _spd_covariances()[name]
    rng = np.random.default_rng(3)
    X = rng.standard_normal((400, 6)) @ linalg.cholesky(sigma_true, lower=True).T
    model = fit_gaussian(X, ridge=1e-8)
    ds = np.diag(model.s)
    sigma_inv = linalg.inv(model.sigma)
    cond_cov = 2 * ds - ds @ sigma_inv @ ds
    factor = linalg.cholesky((cond_cov + cond_cov.T) / 2, lower=True)
    np.testing.assert_allclose(model.cond_mean_map, np.eye(6) - ds @ sigma_inv,
                               rtol=1e-10, atol=1e-10 * np.max(np.abs(ds @ sigma_inv)))
    np.testing.assert_allclose(model.cond_cov_factor, factor,
                               rtol=1e-10, atol=1e-10 * np.max(np.abs(factor)))


# ---------------------------------------------------------------- sampling

def test_sample_deterministic(rng):
    X = rng.standard_normal((200, 3))
    model = fit_gaussian(X)
    a = sample_knockoffs(X, model, seed=5)
    b = sample_knockoffs(X, model, seed=5)
    np.testing.assert_array_equal(a, b)
    c = sample_knockoffs(X, model, seed=6)
    assert np.any(a != c)


@pytest.mark.parametrize("seed", [-1, np.nan, np.inf, -np.inf])
def test_sample_seed_out_of_range_is_refused(rng, seed):
    X = rng.standard_normal((50, 4))
    with pytest.raises(ConfigurationError, match="seed"):
        sample_knockoffs(X, fit_gaussian(X), seed=seed)


def test_sample_identity_sigma_independent(rng):
    # With Sigma = I and s ~ 1 the knockoffs are independent copies.
    X = rng.standard_normal((100_000, 3))
    model = fit_gaussian(X)
    Xko = sample_knockoffs(X, model, seed=0)
    n = len(X)
    cross = (X - X.mean(0)).T @ (Xko - Xko.mean(0)) / (n - 1)
    assert np.max(np.abs(cross - (model.sigma - np.diag(model.s)))) < 0.05
    # target cross-cov is ~0 here because s ~ diag(Sigma)
    assert np.max(np.abs(cross)) < 0.05


def test_sample_joint_moments_match_targets(rng):
    # Correlated design: joint second moments must match the knockoff targets.
    rho = 0.6
    sigma_true = rho * np.ones((4, 4)) + (1 - rho) * np.eye(4)
    L = linalg.cholesky(sigma_true, lower=True)
    X = rng.standard_normal((100_000, 4)) @ L.T
    model = fit_gaussian(X)
    Xko = sample_knockoffs(X, model, seed=1)
    diag = knockoff_diagnostics(X, Xko, model)
    assert diag["max_dev_cov_knockoff"] < 0.05
    assert diag["max_dev_cross_cov"] < 0.05


def test_sample_shape_mismatch():
    rng = np.random.default_rng(0)
    X = rng.standard_normal((50, 3))
    model = fit_gaussian(X)
    with pytest.raises(ContractViolation):
        sample_knockoffs(X[:, :2], model)


def test_diagnostics_flag_invalid_knockoffs(rng):
    X = rng.standard_normal((50_000, 3))
    model = fit_gaussian(X)
    diag = knockoff_diagnostics(X, X, model)  # X as its own knockoff
    # cross-cov deviates by about diag(s) ~ 1, far above tolerance
    assert diag["max_dev_cross_cov"] > 0.5


def test_diagnostics_rejects_empty():
    model = fit_gaussian(np.random.default_rng(0).standard_normal((50, 2)))
    with pytest.raises(ContractViolation):
        knockoff_diagnostics(np.empty((0, 2)), np.empty((0, 2)), model)


def test_swap_exchangeability_second_moments(rng):
    # Swapping any subset of (X_j, Xko_j) leaves the joint covariance at its
    # target, because the target is itself swap-invariant.
    X = rng.standard_normal((100_000, 3))
    model = fit_gaussian(X)
    Xko = sample_knockoffs(X, model, seed=2)
    p = 3
    G = np.block([[model.sigma, model.sigma - np.diag(model.s)],
                  [model.sigma - np.diag(model.s), model.sigma]])
    for swap in ({0}, {1, 2}, {0, 1, 2}):
        Xs, Ks = X.copy(), Xko.copy()
        for j in swap:
            Xs[:, j], Ks[:, j] = Xko[:, j].copy(), X[:, j].copy()
        emp = np.cov(np.hstack([Xs, Ks]), rowvar=False)
        assert np.max(np.abs(emp - G)) < 0.05


# ---------------------------------------------------------------- io

def test_augmented_csv_roundtrip(tmp_path, rng):
    X = rng.standard_normal((20, 3))
    model = fit_gaussian(X)
    Xko = sample_knockoffs(X, model, seed=0)
    path = tmp_path / "aug.csv"
    write_augmented_csv(path, X, Xko)
    header = path.read_text().splitlines()[0]
    assert header == "x1,x2,x3,x1_ko,x2_ko,x3_ko"
    back = read_augmented_csv(path)
    np.testing.assert_array_equal(back, np.hstack([X, Xko]))


def test_read_augmented_csv_header_only(tmp_path):
    path = tmp_path / "aug.csv"
    path.write_text("x1,x1_ko\r\n")
    with pytest.raises(ValidationError, match="no data rows"):
        read_augmented_csv(path)


def test_model_roundtrip(tmp_path, rng):
    X = rng.standard_normal((100, 3))
    model = fit_gaussian(X)
    path = tmp_path / "model.npz"
    save_model(model, path)
    loaded = load_model(path)
    for field in ("mu", "sigma", "s", "cond_mean_map", "cond_cov_factor"):
        np.testing.assert_array_equal(getattr(model, field), getattr(loaded, field))
