"""Ordinary least squares machinery shared by all break tests.

Residual variance uses the 1/T normalization throughout; several exact
finite-sample identities between the test statistics depend on this choice.
"""

from dataclasses import dataclass

import numpy as np

from .errors import BreakIndexError, DataError, SingularDesignError
from .kernels import GRAM_PIVOT_RTOL, ldl, ldl_solve


@dataclass
class OlsFit:
    """Least-squares fit with the pieces downstream statistics need.

    ``design`` keeps the regressor matrix so partial-sum operations can be
    computed from the fit alone.  A fit of stacked samples carries the
    replication axis first in every field, and ``full_rank`` flags the
    samples whose design passed the rank check (the other rows hold no
    estimate).
    ``usable`` flags where the statistics are defined: a full-rank fit whose
    residual variance is finite and neither <= 0 nor <= 1e-20 times the mean squared
    fitted value, so exactly- or numerically-constant samples fail while
    genuinely noisy ones never do.  Both flags are scalars for one sample.
    """

    beta_hat: np.ndarray
    residuals: np.ndarray
    sigma_hat_sq: float
    design: np.ndarray
    full_rank: object = True
    usable: object = True

    @property
    def n_obs(self):
        return self.residuals.shape[-1]

    @property
    def p(self):
        return self.design.shape[-1]

    def to_record(self):
        """JSON-ready summary record."""
        return {
            "beta_hat": [float(b) for b in self.beta_hat],
            "sigma_hat_sq": float(self.sigma_hat_sq),
            "n_obs": int(self.n_obs),
        }


@dataclass
class SplitFit:
    """Regime fits on rows 1..k and k+1..T plus the pooled no-break fit."""

    k: int
    fit_pre: OlsFit
    fit_post: OlsFit
    pooled_null_fit: OlsFit

    def to_record(self):
        return {
            "k": int(self.k),
            "pre": self.fit_pre.to_record(),
            "post": self.fit_post.to_record(),
            "pooled": self.pooled_null_fit.to_record(),
        }


def fit_xy(X, y):
    """OLS via the normal equations with a rank-revealing singularity check.

    ``X`` (T, p) and ``y`` (T,) are one sample; with a leading replication
    axis, (R, T, p) and (R, T), every stacked sample is fitted at once by
    one batched LDL' and the fit's fields carry that axis too.  Pivots are
    checked against ``GRAM_PIVOT_RTOL`` times the largest Gram diagonal.
    One rank-deficient sample raises :class:`SingularDesignError` naming the
    first design column that is linearly dependent on the ones before it; in
    a stack, ``full_rank`` flags each sample instead.  ``usable`` flags the
    samples the statistics are defined on (see :class:`OlsFit`).
    """
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if X.ndim not in (2, 3) or X.shape[-1] == 0:
        raise DataError(f"design matrix must be (T, p) or (R, T, p) with p > 0, got shape {X.shape}")
    T, p = X.shape[-2:]
    if T < p:
        raise DataError(f"need at least p={p} observations, got {T}")
    Xt = np.swapaxes(X, -1, -2)
    xtx = Xt @ X
    floor = GRAM_PIVOT_RTOL * np.max(np.diagonal(xtx, axis1=-2, axis2=-1), axis=-1)
    lower, diag, bad = ldl(np.moveaxis(xtx, (-2, -1), (0, 1)), floor)
    if X.ndim == 2 and bad < p:
        raise SingularDesignError(int(bad))
    beta = ldl_solve(lower, diag, (Xt @ y[..., None])[..., 0].T).T
    fitted = (X @ beta[..., None])[..., 0]
    fitted_sq = np.mean(fitted**2, axis=-1)
    residuals = np.subtract(y, fitted, out=fitted)
    sigma_hat_sq = (residuals[..., None, :] @ residuals[..., :, None])[..., 0, 0] / T
    degenerate = ~np.isfinite(sigma_hat_sq) | (sigma_hat_sq <= 0.0) | (sigma_hat_sq <= 1e-20 * fitted_sq)
    return OlsFit(
        beta_hat=beta,
        residuals=residuals,
        sigma_hat_sq=sigma_hat_sq,
        design=X,
        full_rank=bad == p,
        usable=(bad == p) & ~degenerate,
    )


def ols_fit(sample):
    """Full-sample OLS fit of a :class:`~breaklab.dgp.Sample`, or of a stack
    of samples exposing (R, T, p) ``X`` and (R, T) ``y`` (see :func:`fit_xy`)."""
    return fit_xy(sample.X, sample.y)


def split_fit(sample, k):
    """Independent OLS on rows 1..k and k+1..T plus the pooled fit.

    Requires p <= k <= T - p so both regimes identify the coefficients.
    """
    T, p = sample.X.shape
    if not p <= k <= T - p:
        raise BreakIndexError(
            f"break index k={k} must satisfy p={p} <= k <= T-p={T - p}"
        )
    pre = fit_xy(sample.X[:k], sample.y[:k])
    post = fit_xy(sample.X[k:], sample.y[k:])
    pooled = ols_fit(sample)
    return SplitFit(k=int(k), fit_pre=pre, fit_post=post, pooled_null_fit=pooled)


def residual_partial_sums(fit):
    """Running sums S_t = sum_{j<=t} x_j * resid_j, one p-vector per row
    (per sample of a stacked fit).

    With an all-ones design this is the plain cumulative sum of residuals.
    The statistics do not read it: they take their running sums at the
    scanned splits from :func:`breaklab.kernels.partial_sums`.
    """
    return np.cumsum(fit.design * fit.residuals[..., None], axis=-2)


def partial_sum_covariance(fit):
    """Moment matrix of the residual partial sums, scaled by T^-2."""
    sums = residual_partial_sums(fit)
    T = fit.n_obs
    return (np.swapaxes(sums, -1, -2) @ sums) / (T * T)
