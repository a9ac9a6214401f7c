"""Statistic paths: arithmetic oracles, exact identities, and invariances."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from breaklab.break_tests import (
    CUSUMSQ_NORM_RESID_SD,
    cusum_path,
    cusum_sq_path,
    decide,
    scan_range,
    wald_path,
    z_mean_path,
)
from breaklab.dgp import Sample
from breaklab.errors import (
    DegenerateSampleError,
    NumericalError,
    SpecError,
    TableLookupError,
)
from breaklab.estimators import fit_xy, ols_fit
from breaklab.limit_lab import CriticalValueTable
from shared import intercept_sample


STEP = intercept_sample([0.0, 0.0, 2.0, 2.0])


def test_scan_range_formula():
    assert scan_range(4, 1, 0.0) == (1, 3)
    assert scan_range(500, 1, 0.15) == (75, 425)
    assert scan_range(500, 2, 0.0) == (2, 498)
    with pytest.raises(SpecError):
        scan_range(10, 1, 0.5)
    with pytest.raises(SpecError):
        scan_range(4, 3, 0.4)  # no feasible k


# ---------------------------------------------------------------------------
# cusum
# ---------------------------------------------------------------------------

def test_cusum_step_oracle():
    out = cusum_path(ols_fit(STEP))
    assert_allclose(out.path, [-0.5, -1.0, -0.5], rtol=0, atol=0)
    assert out.sup_value == 1.0
    assert out.argmax_k == 2
    assert list(out.ks) == [1, 2, 3]


def test_cusum_degenerate_sample():
    with pytest.raises(DegenerateSampleError):
        cusum_path(ols_fit(intercept_sample([3.0, 3.0, 3.0, 3.0])))


def test_cusum_signed_variant():
    out = cusum_path(ols_fit(STEP), sided="signed")
    # the signed sup of (-0.5, -1, -0.5) is -0.5, first attained at k = 1
    assert out.sup_value == -0.5
    assert out.argmax_k == 1


def test_cusum_argmax_tie_breaks_to_smallest_k():
    out = cusum_path(ols_fit(intercept_sample([0.0, 0.0, 1.0, 1.0, 0.0, 0.0])))
    scores = np.abs(out.path)
    assert np.count_nonzero(scores == out.sup_value) == 2
    assert out.argmax_k == 2


def test_cusum_reversal_antisymmetry():
    rng = np.random.default_rng(21)
    y = rng.standard_normal(37)
    fwd = cusum_path(ols_fit(intercept_sample(y)))
    rev = cusum_path(ols_fit(intercept_sample(y[::-1])))
    T = 37
    for idx, k in enumerate(rev.ks):
        mirror = np.where(fwd.ks == T - k)[0][0]
        assert_allclose(rev.path[idx], -fwd.path[mirror], atol=1e-12)


def test_trimming_only_restricts_scanned_indices():
    rng = np.random.default_rng(22)
    y = rng.standard_normal(60)
    fit = ols_fit(intercept_sample(y))
    full = cusum_path(fit, nu=0.0)
    trimmed = cusum_path(fit, nu=0.2)
    for idx, k in enumerate(trimmed.ks):
        at = np.where(full.ks == k)[0][0]
        assert trimmed.path[idx] == full.path[at]


# ---------------------------------------------------------------------------
# cusum of squares
# ---------------------------------------------------------------------------

def test_cusumsq_constant_squares_gives_zero_path():
    fit = fit_xy(np.ones((4, 1)), np.array([0.0, 0.0, 2.0, 2.0]))
    assert_allclose(fit.residuals**2, 1.0, rtol=0, atol=0)
    out = cusum_sq_path(fit)
    assert_allclose(out.path, 0.0, rtol=0, atol=0)
    assert out.sup_value == 0.0


def test_cusumsq_spike_oracle():
    # residuals (-0.5, -0.5, 1.5, -0.5) have squares (0,0,4,0)/... after
    # rescaling; use the exact construction with residuals (0,0,2,0)
    fit = fit_xy(np.ones((4, 1)), np.array([1.0, 1.0, 3.0, 1.0]))
    out = cusum_sq_path(fit)
    # squares of the centered residuals are (0.25, 0.25, 2.25, 0.25): same
    # path as squares (0,0,4,0) by scale invariance of the normalization
    expected = np.array([-1.0, -2.0, 1.0]) / (np.sqrt(3.0) * 2.0)
    assert_allclose(out.path, expected, rtol=1e-12)
    assert_allclose(out.sup_value, 2.0 / (np.sqrt(3.0) * 2.0), rtol=1e-12)
    assert out.argmax_k == 2


def test_cusumsq_literal_normalization_variant():
    # residuals (-1,-1,3,-1): squares (1,1,9,1) with mean 3, so the centered
    # sums are (-2,-4,2); the literal variant divides by the residual sd
    fit = fit_xy(np.ones((4, 1)), np.array([1.0, 1.0, 5.0, 1.0]))
    out = cusum_sq_path(fit, normalization=CUSUMSQ_NORM_RESID_SD)
    sigma = np.sqrt(fit.sigma_hat_sq)
    assert sigma == np.sqrt(3.0)
    expected = np.array([-2.0, -4.0, 2.0]) / (sigma * 2.0)
    assert_allclose(out.path, expected, rtol=1e-12)
    default = cusum_sq_path(fit)
    assert not np.allclose(default.path, out.path)


def test_cusumsq_degenerate_sample():
    with pytest.raises(DegenerateSampleError):
        cusum_sq_path(ols_fit(intercept_sample([1.0, 1.0, 1.0, 1.0])))


# ---------------------------------------------------------------------------
# unconditional-mean statistic
# ---------------------------------------------------------------------------

def test_zmean_step_oracle():
    out = z_mean_path(STEP, nu=0.0)
    assert out.sup_value == 4.0
    assert out.argmax_k == 2
    assert_allclose(out.path, [4.0 / 3.0, 4.0, 4.0 / 3.0], rtol=1e-12)


def test_zmean_requires_intercept_only_design():
    sample = Sample(y=np.zeros(6), X=np.column_stack([np.ones(6), np.arange(6.0)]))
    with pytest.raises(SpecError):
        z_mean_path(sample)


def test_zmean_degenerate_sample():
    with pytest.raises(DegenerateSampleError):
        z_mean_path(intercept_sample([2.0, 2.0, 2.0, 2.0]))


def test_zmean_equals_normalized_squared_cusum_everywhere():
    rng = np.random.default_rng(23)
    y = rng.standard_normal(41)
    sample = intercept_sample(y)
    z = z_mean_path(sample, nu=0.0)
    c = cusum_path(ols_fit(sample), nu=0.0)
    frac = z.ks / 41
    assert_allclose(z.path, c.path**2 / (frac * (1 - frac)), rtol=1e-10)


# ---------------------------------------------------------------------------
# Wald statistic
# ---------------------------------------------------------------------------

def test_wald_step_oracle():
    out = wald_path(STEP, nu=0.0)
    assert_allclose(out.path, [4.0 / 3.0, 4.0, 4.0 / 3.0], rtol=1e-12)
    assert out.sup_value == 4.0
    assert out.argmax_k == 2


def test_wald_equals_zmean_for_intercept_model():
    rng = np.random.default_rng(24)
    y = rng.standard_normal(53)
    sample = intercept_sample(y)
    w = wald_path(sample, nu=0.0)
    z = z_mean_path(sample, nu=0.0)
    assert_allclose(w.path, z.path, rtol=1e-10)


def test_wald_cusum_exact_identity():
    rng = np.random.default_rng(25)
    y = rng.standard_normal(29)
    sample = intercept_sample(y)
    w = wald_path(sample, nu=0.0)
    c = cusum_path(ols_fit(sample), nu=0.0)
    frac = w.ks / 29
    assert_allclose(w.path * frac * (1 - frac), c.path**2, rtol=1e-10)


def test_wald_degenerate_sample():
    X = np.ones((6, 1))
    sample = Sample(y=np.full(6, 2.0), X=X)
    with pytest.raises(DegenerateSampleError):
        wald_path(sample, nu=0.0)


def _collinear_sample():
    # second regressor constant over the early regime: singular regime Gram
    X = np.column_stack([np.ones(12), np.r_[np.full(6, 2.0), np.arange(1.0, 7.0)]])
    y = np.arange(12.0) + np.r_[np.zeros(6), np.ones(6)]
    return Sample(y=y, X=X)


def test_wald_skips_singular_regimes_and_records_them():
    out = wald_path(_collinear_sample(), nu=0.0)
    assert out.skipped == (2, 3, 4, 5, 6)
    assert np.isnan(out.path[:5]).all()
    assert np.isfinite(out.sup_value)


def test_wald_on_singular_fail_raises():
    with pytest.raises(NumericalError):
        wald_path(_collinear_sample(), nu=0.0, on_singular="fail")


# ---------------------------------------------------------------------------
# scale equivariance
# ---------------------------------------------------------------------------

def test_all_statistics_scale_equivariant_positive_affine():
    rng = np.random.default_rng(26)
    y = rng.standard_normal(48)
    a, b = 2.5, -3.0
    s1, s2 = intercept_sample(y), intercept_sample(a * y + b)
    assert_allclose(
        cusum_path(ols_fit(s1)).path, cusum_path(ols_fit(s2)).path, atol=1e-8
    )
    assert_allclose(
        cusum_sq_path(ols_fit(s1)).path, cusum_sq_path(ols_fit(s2)).path, atol=1e-8
    )
    assert_allclose(z_mean_path(s1).path, z_mean_path(s2).path, atol=1e-8)
    assert_allclose(wald_path(s1).path, wald_path(s2).path, atol=1e-8)


def test_negative_scale_flips_only_the_signed_cusum():
    rng = np.random.default_rng(27)
    y = rng.standard_normal(48)
    s1, s2 = intercept_sample(y), intercept_sample(-4.0 * y + 1.0)
    assert_allclose(
        np.abs(cusum_path(ols_fit(s1)).path), np.abs(cusum_path(ols_fit(s2)).path), atol=1e-8
    )
    assert_allclose(z_mean_path(s1).path, z_mean_path(s2).path, atol=1e-8)
    assert_allclose(wald_path(s1).path, wald_path(s2).path, atol=1e-8)
    assert_allclose(
        cusum_sq_path(ols_fit(s1)).path, cusum_sq_path(ols_fit(s2)).path, atol=1e-8
    )


# ---------------------------------------------------------------------------
# decisions
# ---------------------------------------------------------------------------

def _table(kind="supabsbb", p=1, nu=0.0, levels=None):
    return CriticalValueTable(
        functional_kind=kind,
        p=p,
        nu=nu,
        c=None,
        corr=None,
        quantiles=levels or {0.95: 1.358},
        meta={"n_steps": 1000, "n_reps": 10000, "master_seed": 0},
    )


def test_an_empty_stack_gives_empty_paths():
    fit = fit_xy(np.ones((0, 20, 1)), np.zeros((0, 20)))
    assert cusum_path(fit).path.shape == (0, 19)
    assert cusum_sq_path(fit).path.shape == (0, 19)


def test_decide_thresholds():
    out = cusum_path(ols_fit(STEP))
    low = decide(out, _table(levels={0.95: 1.358}), 0.05)
    assert low.critical_value == 1.358
    assert low.reject is False  # sup = 1.0
    high = decide(out, _table(levels={0.95: 0.9}), 0.05)
    assert high.reject is True


def test_decide_boundary_is_strict():
    out = cusum_path(ols_fit(STEP))
    boundary = decide(out, _table(levels={0.95: 1.0}), 0.05)
    assert boundary.reject is False


def test_decide_rejects_mismatched_table():
    out = cusum_path(ols_fit(STEP))
    with pytest.raises(TableLookupError):
        decide(out, _table(kind="supqp"), 0.05)
    with pytest.raises(TableLookupError):
        decide(out, _table(p=2), 0.05)
    with pytest.raises(TableLookupError):
        decide(out, _table(nu=0.15), 0.05)


def test_decide_missing_level_is_an_error():
    out = cusum_path(ols_fit(STEP))
    with pytest.raises(TableLookupError):
        decide(out, _table(levels={0.9: 1.224}), 0.05)


def test_decide_wald_needs_matching_dimension():
    rng = np.random.default_rng(28)
    X = np.column_stack([np.ones(40), rng.standard_normal(40)])
    sample = Sample(y=rng.standard_normal(40), X=X)
    out = wald_path(sample, nu=0.15)
    assert out.p == 2
    table = _table(kind="supqp", p=2, nu=0.15, levels={0.95: 11.79})
    decided = decide(out, table, 0.05)
    assert decided.critical_value == 11.79
