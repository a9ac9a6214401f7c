"""OLS machinery: exact arithmetic oracles and Monte Carlo convergence."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from breaklab.break_tests import cusum_path
from breaklab.dgp import DgpSpec, spec_from_config
from breaklab.errors import BreakIndexError, DegenerateSampleError, SingularDesignError
from breaklab.estimators import (
    OlsFit,
    fit_xy,
    ols_fit,
    partial_sum_covariance,
    residual_partial_sums,
    split_fit,
)
from breaklab.dgp import generate
from breaklab.rng import replication_stream
from shared import intercept_sample


def test_mean_fit_oracle():
    fit = ols_fit(intercept_sample([1.0, 2.0, 3.0]))
    assert_allclose(fit.beta_hat, [2.0], rtol=0, atol=0)
    assert_allclose(fit.residuals, [-1.0, 0.0, 1.0], rtol=0, atol=0)
    assert_allclose(fit.sigma_hat_sq, 2.0 / 3.0, rtol=1e-15)


def test_step_sample_oracle():
    fit = ols_fit(intercept_sample([0.0, 0.0, 2.0, 2.0]))
    assert_allclose(fit.beta_hat, [1.0], rtol=0, atol=0)
    assert fit.sigma_hat_sq == 1.0


def test_noiseless_interpolation():
    rng = np.random.default_rng(0)
    X = np.column_stack([np.ones(20), rng.standard_normal(20)])
    y = X @ np.array([0.5, -2.0])
    fit = fit_xy(X, y)
    assert_allclose(fit.residuals, 0.0, atol=1e-13)
    assert fit.sigma_hat_sq < 1e-26


def test_normal_equations_invariant():
    rng = np.random.default_rng(1)
    for trial in range(20):
        X = np.column_stack([np.ones(50), rng.standard_normal((50, 2))])
        y = rng.standard_normal(50) * 10
        fit = fit_xy(X, y)
        assert np.max(np.abs(X.T @ fit.residuals)) <= 1e-8 * np.linalg.norm(y)


def test_singular_design_names_offending_column():
    X = np.column_stack([np.ones(10), np.arange(10.0), np.arange(10.0)])
    with pytest.raises(SingularDesignError) as info:
        fit_xy(X, np.zeros(10))
    assert info.value.column == 2


def test_zero_design_rejected():
    with pytest.raises(SingularDesignError):
        fit_xy(np.zeros((5, 1)), np.zeros(5))


def test_fit_flags_the_rows_the_statistics_are_defined_on():
    T = 12
    t = np.arange(T, dtype=float)
    x = np.column_stack([np.ones(T), np.cos(t)])
    X = np.stack([x, x, np.ones((T, 2))])  # the last design repeats its column
    y = np.stack([np.sin(t) + 0.1 * t, np.full(T, 3.0), t**2])
    fit = fit_xy(X, y)
    assert fit.usable.tolist() == [True, False, False]
    assert fit.full_rank.tolist() == [True, True, False]
    flat = fit_xy(x, np.full(T, 3.0))
    assert flat.full_rank and not flat.usable
    with pytest.raises(DegenerateSampleError):
        cusum_path(flat)


# ---------------------------------------------------------------------------
# split fits
# ---------------------------------------------------------------------------

def test_split_fit_regime_means():
    sf = split_fit(intercept_sample([0.0, 0.0, 2.0, 2.0]), 2)
    assert_allclose(sf.fit_pre.beta_hat, [0.0], rtol=0, atol=0)
    assert_allclose(sf.fit_post.beta_hat, [2.0], rtol=0, atol=0)
    assert_allclose(sf.pooled_null_fit.beta_hat, [1.0], rtol=0, atol=0)


def test_fit_records_are_json_ready():
    import json

    sf = split_fit(intercept_sample([0.0, 0.0, 2.0, 2.0]), 2)
    record = sf.to_record()
    assert record["k"] == 2
    assert record["pre"]["beta_hat"] == [0.0]
    assert record["post"]["beta_hat"] == [2.0]
    assert record["pooled"]["sigma_hat_sq"] == 1.0
    json.dumps(record)  # serializable as-is


def test_split_fit_boundary_indices():
    sample = intercept_sample([0.0, 1.0, 2.0, 3.0])
    split_fit(sample, 1)  # accepted with p = 1
    split_fit(sample, 3)
    with pytest.raises(BreakIndexError):
        split_fit(sample, 0)
    with pytest.raises(BreakIndexError):
        split_fit(sample, 4)


def test_split_estimates_converge_at_root_t_rate():
    spec_kw = dict(family="location", s=0.0, params_pre=(0.0,), params_post=(0.0,))
    medians = {}
    for T in (100, 400, 1600):
        gaps = []
        for r in range(300):
            sample = generate(DgpSpec(T=T, **spec_kw), replication_stream(31, r))
            sf = split_fit(sample, T // 2)
            gaps.append(abs(sf.fit_pre.beta_hat[0] - sf.fit_post.beta_hat[0]))
        medians[T] = np.median(gaps)
    assert 0.35 < medians[400] / medians[100] < 0.7
    assert 0.35 < medians[1600] / medians[400] < 0.7


def test_pooled_rss_at_least_sum_of_regime_rss():
    rng = np.random.default_rng(2)
    for trial in range(10):
        y = rng.standard_normal(40)
        sample = intercept_sample(y)
        sf = split_fit(sample, 13)
        rss_pooled = sf.pooled_null_fit.sigma_hat_sq * 40
        rss_regimes = (
            sf.fit_pre.sigma_hat_sq * 13 + sf.fit_post.sigma_hat_sq * 27
        )
        assert rss_pooled >= rss_regimes - 1e-10


def test_orthogonal_split_identity_exact():
    # integer-valued design keeps the block identity exact in floating point
    X = np.column_stack([np.ones(8), np.array([1.0, 2, 1, 3, 2, 1, 4, 2])])
    k = 3
    x_pre = X * (np.arange(8) < k)[:, None]
    x_post = X * (np.arange(8) >= k)[:, None]
    assert np.array_equal(x_pre.T @ x_post, np.zeros((2, 2)))
    assert np.array_equal(X.T @ X, x_pre.T @ x_pre + x_post.T @ x_post)


# ---------------------------------------------------------------------------
# residual partial sums and their moment matrix
# ---------------------------------------------------------------------------

def test_partial_sums_oracle():
    fit = ols_fit(intercept_sample([0.0, 0.0, 2.0, 2.0]))
    sums = residual_partial_sums(fit)
    assert_allclose(sums[:, 0], [-1.0, -2.0, -1.0, 0.0], rtol=0, atol=0)


def test_partial_sums_end_at_zero_with_intercept():
    rng = np.random.default_rng(3)
    for trial in range(10):
        y = rng.standard_normal(30) * 5
        fit = ols_fit(intercept_sample(y))
        sums = residual_partial_sums(fit)
        assert abs(sums[-1, 0]) <= 1e-8 * np.linalg.norm(y)


def test_partial_sums_zero_for_perfect_fit():
    X = np.ones((6, 1))
    fit = fit_xy(X, np.full(6, 3.0))
    assert_allclose(residual_partial_sums(fit), 0.0, atol=1e-12)
    assert_allclose(partial_sum_covariance(fit), 0.0, atol=1e-24)


def test_partial_sum_covariance_oracle():
    fit = ols_fit(intercept_sample([0.0, 0.0, 2.0, 2.0]))
    assert_allclose(partial_sum_covariance(fit), [[0.375]], rtol=0, atol=0)


def test_partial_sum_helpers_take_a_stacked_fit():
    # the replication axis comes first; each row equals the one-sample call
    spec = spec_from_config({"family": "linear_regression", "T": 40, "beta_pre": [1.0, 0.5]})
    fit = ols_fit(generate(spec, replication_stream(9, range(7))))
    sums, cov = residual_partial_sums(fit), partial_sum_covariance(fit)
    assert sums.shape == (7, 40, 2) and cov.shape == (7, 2, 2)
    for r in range(7):
        row = OlsFit(fit.beta_hat[r], fit.residuals[r], fit.sigma_hat_sq[r], fit.design[r])
        assert np.array_equal(sums[r], residual_partial_sums(row))
        assert_allclose(cov[r], partial_sum_covariance(row), rtol=1e-12, atol=0)


def test_partial_sum_covariance_psd_and_symmetric():
    rng = np.random.default_rng(4)
    X = np.column_stack([np.ones(60), rng.standard_normal(60)])
    fit = fit_xy(X, rng.standard_normal(60))
    cov = partial_sum_covariance(fit)
    assert_allclose(cov, cov.T, rtol=0, atol=0)
    assert np.all(np.linalg.eigvalsh(cov) >= -1e-14)


def test_partial_sum_covariance_sign_invariant():
    y = np.array([0.4, -1.2, 3.0, 0.1, -0.4, 2.2])
    fit_a = ols_fit(intercept_sample(y))
    fit_b = ols_fit(intercept_sample(-y))
    assert_allclose(
        partial_sum_covariance(fit_a), partial_sum_covariance(fit_b), rtol=1e-12
    )


def test_partial_sum_covariance_limit_oracle():
    # intercept-only null: E[C / sigma2] approaches the integrated squared
    # bridge mean of 1/6
    ratios = np.empty(10_000)
    spec = DgpSpec(family="location", T=1000, s=0.0)
    for r in range(ratios.shape[0]):
        sample = generate(spec, replication_stream(17, r))
        fit = ols_fit(sample)
        ratios[r] = partial_sum_covariance(fit)[0, 0] / fit.sigma_hat_sq
    assert_allclose(ratios.mean(), 1.0 / 6.0, rtol=0.02)
