"""Break-point test statistics as full paths over candidate split indices.

All four statistics are self-normalized: rescaling the data leaves the paths
unchanged.  Candidate indices run over ``k_min = max(floor(nu*T), p)`` up to
``k_max = T - k_min``; the trimming ``nu`` only restricts which k are
scanned, never the value at a given k.
"""

import logging
import math
from dataclasses import dataclass, replace

import numpy as np

from . import kernels
from .errors import (
    BreakLabError,
    DegenerateSampleError,
    NumericalError,
    SpecError,
    TableLookupError,
)
from .estimators import ols_fit

log = logging.getLogger(__name__)

TWO_SIDED_ABS = "two_sided_abs"
SIGNED = "signed"

#: what the Wald scan does at a split with a singular regime fit
ON_SINGULAR_SKIP = "skip"
ON_SINGULAR_FAIL = "fail"

#: normalization choices for the squared-residual statistic
CUSUMSQ_NORM_SQ_SD = "sq_sd"
CUSUMSQ_NORM_RESID_SD = "resid_sd"


@dataclass(frozen=True)
class TestOutcome:
    """Statistic path over candidate break indices plus its supremum.

    ``p`` is the dimension of the limit functional the statistic converges
    to (``limit_dim`` of its :data:`STAT_RECIPES` entry); critical-value
    tables must match it.  ``skipped`` lists candidate indices where no
    statistic was computable (singular regime fit).

    An outcome computed from a fit of stacked samples holds one row per
    replication: ``path`` is (R, m), ``sup_value`` and ``argmax_k`` are
    arrays (NaN and -1 where the per-sample call would raise), and
    ``skipped`` counts the skipped indices of each replication.
    """

    statistic_kind: str
    ks: np.ndarray
    path: np.ndarray
    sup_value: float
    argmax_k: int
    nu: float
    p: int
    skipped: tuple = ()
    critical_value: float | None = None
    reject: bool | None = None

    def to_record(self):
        return {
            "stat": self.statistic_kind,
            "sup": float(self.sup_value),
            "k_hat": int(self.argmax_k),
            "cv": None if self.critical_value is None else float(self.critical_value),
            "reject": self.reject,
            "nu": float(self.nu),
            "n_skipped": len(self.skipped),
        }


def scan_range(T, p, nu):
    """Candidate break indices: k_min = max(floor(nu*T), p), k_max = T - k_min."""
    if not 0.0 <= nu < 0.5:
        raise SpecError(f"trimming nu must lie in [0, 0.5), got {nu}")
    k_lo = max(int(math.floor(nu * T + 1e-9)), p)
    k_hi = T - k_lo
    if k_lo > k_hi:
        raise SpecError(
            f"trimming nu={nu} leaves no candidate break indices for T={T}, p={p}"
        )
    return k_lo, k_hi


def _sup_over_path(path, sided):
    """Supremum of each path over its last axis, ignoring NaN entries.

    Returns ``(sup, index)``; ties resolve to the smallest index, and a path
    with no computable entry gives NaN.
    """
    if sided == TWO_SIDED_ABS:
        score = np.abs(path)
    elif sided == SIGNED:
        score = path.copy()
    else:
        raise SpecError(f"unknown sidedness {sided!r}")
    missing = np.isnan(score)
    score[missing] = -np.inf
    best = np.argmax(score, axis=-1)
    sup = np.take_along_axis(score, np.expand_dims(best, -1), axis=-1)[..., 0]
    return np.where(missing.all(axis=-1), np.nan, sup), best


def _scan_setup(kind, fit, nu):
    """Rows of ``fit`` the statistic is defined on, its trimming (None: the
    kind's default) and scan range; one degenerate sample raises."""
    if np.ndim(fit.usable) == 0 and not fit.usable:
        raise DegenerateSampleError("residual variance is zero or not finite; statistic undefined")
    nu = STAT_RECIPES[kind].default_nu if nu is None else nu
    return fit.usable, nu, scan_range(fit.n_obs, fit.p, nu)


def _finish(kind, ks, path, nu, design_dim, sided, valid, skipped=()):
    """Outcome of ``path`` (which it owns) with the rows that are not
    ``valid`` masked out."""
    np.copyto(path, np.nan, where=~np.expand_dims(valid, -1))
    sup, best = _sup_over_path(path, sided)
    argmax_k = np.where(np.isnan(sup), -1, ks[best])
    if np.ndim(sup) == 0:  # one sample: plain values, or no outcome at all
        if np.isnan(sup):
            raise NumericalError(f"{kind}: no candidate break index was computable")
        sup, argmax_k, skipped = float(sup), int(argmax_k), tuple(int(k) for k in skipped)
    p = STAT_RECIPES[kind].limit_dim(design_dim)
    return TestOutcome(kind, ks, path, sup, argmax_k, float(nu), p, skipped)


# ---------------------------------------------------------------------------
# statistics of one pooled fit
#
# Every statistic is a functional of the pooled fit's running sums at the
# scanned splits and at T (``kernels.partial_sums``): the CUSUMs of its
# residuals, bridged; Wald and zmean of its residual cross-products and the
# cumulative Gram matrix.  The fit may be of one sample or of stacked samples
# (see ``estimators.fit_xy``); the engine evaluates each cell's whole stack
# through the same functions.
# ---------------------------------------------------------------------------

def _cusum_outcome(kind, fit, nu, sided, values, spread):
    """Bridge-centered partial sums of ``values`` at the scanned splits, S_k - (k/T) S_T,
    scaled by sqrt(spread * T)."""
    valid, nu, (k_lo, k_hi) = _scan_setup(kind, fit, nu)
    ks = np.arange(k_lo, k_hi + 1)
    splits, total = kernels.partial_sums(values, k_lo, k_hi)
    path = kernels.bridge_in_place(splits, end=total[..., None], j_lo=k_lo, n=fit.n_obs)
    scale = np.expand_dims(np.sqrt(spread) * math.sqrt(fit.n_obs), -1)
    with np.errstate(divide="ignore", invalid="ignore"):
        path /= scale
    # zero spread: an exactly centered path (constant squared residuals), no evidence
    np.copyto(path, 0.0, where=scale == 0.0)
    return _finish(kind, ks, path, nu, fit.p, sided, valid)


def cusum_path(fit, nu=None, sided=TWO_SIDED_ABS):
    """Bridge-centered, variance-normalized residual partial-sum path.

    Parameters
    ----------
    fit : OlsFit
        Full-sample fit whose residuals drive the statistic, of one sample
        or of stacked samples.
    nu : float or None
        Trimming fraction; None (default) takes the statistic's default.
    sided : str
        ``two_sided_abs`` (default) takes the sup of |path|; ``signed``
        takes the sup of the path itself.
    """
    return _cusum_outcome("cusum", fit, nu, sided, fit.residuals, fit.sigma_hat_sq)


def cusum_sq_path(fit, nu=None, normalization=CUSUMSQ_NORM_SQ_SD, sided=TWO_SIDED_ABS):
    """Bridge-centered path of squared residuals.

    The default normalization divides by the standard deviation of the
    squared residuals, which keeps the null limit free of the innovation
    distribution's fourth moment.  ``resid_sd`` instead divides by the
    residual standard deviation (the literal display form); that variant is
    not pivotal and exists for comparison.
    """
    sq = fit.residuals**2
    if normalization == CUSUMSQ_NORM_SQ_SD:
        spread = np.mean((sq - np.mean(sq, axis=-1, keepdims=True)) ** 2, axis=-1)
    elif normalization == CUSUMSQ_NORM_RESID_SD:
        spread = fit.sigma_hat_sq
    else:
        raise SpecError(f"unknown cusumsq normalization {normalization!r}")
    return _cusum_outcome("cusumsq", fit, nu, sided, sq, spread)


def _is_intercept_only(X):
    return X.shape[-1] == 1 and np.all(X == 1.0, axis=(-2, -1))


def _wald_outcome(kind, fit, nu, on_singular=ON_SINGULAR_SKIP):
    """Wald (or, on the intercept-only design, zmean) outcome of a pooled fit."""
    valid, nu, (k_lo, k_hi) = _scan_setup(kind, fit, nu)
    vals, ok = kernels.wald_scan(fit.design, fit.residuals, k_lo, k_hi, fit.sigma_hat_sq)
    ks = np.arange(k_lo, k_hi + 1)
    if kind == "zmean":
        valid = valid & _is_intercept_only(fit.design)
    if np.ndim(valid):
        skipped = np.where(valid, np.count_nonzero(~ok, axis=-1), 0)
    else:  # one sample: the skipped ks themselves
        skipped = ks[~ok]
        if skipped.size:
            if on_singular == ON_SINGULAR_FAIL:
                raise NumericalError(
                    f"{kind}: singular regime fit at k={int(skipped[0])}"
                    + (f" (+{skipped.size - 1} more)" if skipped.size > 1 else "")
                )
            log.warning(
                "%s: skipped %d candidate index(es) with singular regime fits", kind, skipped.size
            )
    return _finish(kind, ks, vals, nu, fit.p, SIGNED, valid, skipped)


def z_mean_path(sample, nu=None):
    """Squared standardized difference of regime means, already scaled by T.

    Defined for the intercept-only model, where it is the Wald statistic of
    the mean; the path is nonnegative so the supremum is one-sided.
    """
    if not _is_intercept_only(sample.X):
        raise SpecError("statistic requires the intercept-only model (design must be a single all-ones column)")
    return _wald_outcome("zmean", ols_fit(sample), nu)


def wald_path(sample, nu=None, on_singular=ON_SINGULAR_SKIP):
    """Coefficient-stability Wald statistic at every candidate split.

    W(k) contrasts the two regime estimates through the pooled residual
    variance.  Candidate indices with a singular regime Gram matrix are
    skipped with a logged warning by default, or abort the scan when
    ``on_singular='fail'``.
    """
    if on_singular not in (ON_SINGULAR_SKIP, ON_SINGULAR_FAIL):
        raise SpecError(f"on_singular must be 'skip' or 'fail', got {on_singular!r}")
    return _wald_outcome("wald", ols_fit(sample), nu, on_singular)


# ---------------------------------------------------------------------------
# statistic registry
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class StatRecipe:
    """How the engine computes one statistic kind and how it is tested.

    ``compute(stack, fit, nu)`` evaluates a stack of replications, a
    :class:`~breaklab.dgp.SampleStack` with its pooled ``fit``, and returns
    the stacked outcome: ``sup_value`` per replication (NaN where it
    failed), ``path`` rows over one shared ``ks`` and ``skipped`` (the
    number of skipped Wald splits) per replication.  The built-in kinds read
    the fit alone and call their statistic's function once on it; a
    registered kind reads the stack (:func:`register_statistic`).
    ``table_kinds`` may calibrate it (the engine uses the first; none means
    a critical value of 0), at the dimension ``limit_dim(design_dim)`` and,
    by default, the trimming ``default_nu``.
    """

    compute: object
    table_kinds: tuple = ()
    limit_dim: object = lambda design_dim: 1
    default_nu: float = 0.0


def _per_sample(kind, compute):
    """Stack form of ``compute(sample, nu, cache)`` (see :func:`register_statistic`):
    the replications' outcomes stacked, with no ``argmax_k``; ``ks`` and
    ``path`` stay None when every replication fails."""

    def stack_compute(stack, fit, nu):
        sups = np.full(len(stack), np.nan)
        ks = path = None
        for i in range(len(stack)):
            try:
                outcome = compute(stack.sample(i), nu, {})
            except BreakLabError:
                continue
            if path is None:
                ks = np.asarray(outcome.ks)
                path = np.full((len(stack), len(ks)), np.nan)
            sups[i], path[i] = outcome.sup_value, outcome.path
        return TestOutcome(kind, ks, path, sups, None, nu, 1, np.zeros(len(stack), int))

    return stack_compute


#: statistic kind -> recipe: the CUSUMs converge to sup |Brownian bridge| over the
#: whole sample, the Wald types to the trimmed sup of a squared bridge of the design's dimension.
#: A compute looks its function up here at each call, so a wrapper set on this module sees it
STAT_RECIPES = {
    "cusum": StatRecipe(lambda stack, fit, nu: cusum_path(fit, nu), ("supabsbb", "supabslurcusum")),
    "cusumsq": StatRecipe(lambda stack, fit, nu: cusum_sq_path(fit, nu), ("supabsbb",)),
    "zmean": StatRecipe(lambda stack, fit, nu: _wald_outcome("zmean", fit, nu), ("supqp",), default_nu=0.15),
    "wald": StatRecipe(lambda stack, fit, nu: _wald_outcome("wald", fit, nu), ("supqp",), lambda d: d, 0.15),
}


def evaluate_block(kind, fit, nu):
    """Built-in statistic ``kind`` of :data:`STAT_RECIPES` at its default settings on a fit of stacked
    samples; a stacked :class:`TestOutcome`.  Unlike the engine, it leaves floating-point warnings on."""
    if kind not in STAT_RECIPES:
        raise SpecError(f"unknown statistic kind {kind!r}")
    return STAT_RECIPES[kind].compute(None, fit, nu)


def register_statistic(kind, compute):
    """Register an additional statistic kind (used by harness self-tests).

    ``compute(sample, nu, cache)`` is called once per replication with a
    fresh ``cache`` dict; it returns an outcome with ``sup_value``, ``ks``
    and ``path``, the same ``ks`` for every replication of a cell, or raises
    :class:`~breaklab.errors.BreakLabError` where the sample fails.  The
    replication counts as failed there and wherever ``sup_value`` is NaN.
    The kind is decided at a critical value of 0, with limit dimension 1
    and trimming 0.  The engine runs it in every experiment that lists it;
    ``breaklab test`` does not offer it, since it has no one-sample outcome.
    """
    STAT_RECIPES[kind] = StatRecipe(_per_sample(kind, compute))


def decide(outcome, table, level):
    """Attach the critical value at significance ``level`` and the decision.

    The table must cover the outcome exactly (functional kind compatible
    with the statistic, matching limit dimension and trimming); missing
    entries raise rather than interpolate.  The null is rejected when the
    supremum strictly exceeds the critical value.
    """
    if not 0.0 < level < 1.0:
        raise SpecError(f"significance level must lie in (0, 1), got {level}")
    if outcome.statistic_kind not in STAT_RECIPES:
        raise SpecError(f"unknown statistic kind {outcome.statistic_kind!r}")
    allowed = STAT_RECIPES[outcome.statistic_kind].table_kinds
    if table.functional_kind not in allowed:
        raise TableLookupError(
            f"table kind {table.functional_kind!r} cannot calibrate statistic "
            f"{outcome.statistic_kind!r} (expected one of {allowed})"
        )
    if table.p != outcome.p:
        raise TableLookupError(
            f"table dimension p={table.p} does not match statistic dimension p={outcome.p}"
        )
    if abs(table.nu - outcome.nu) > 1e-12:
        raise TableLookupError(
            f"table trimming nu={table.nu} does not match statistic trimming nu={outcome.nu}"
        )
    cv = table.lookup(1.0 - level)
    return replace(outcome, critical_value=float(cv), reject=bool(outcome.sup_value > cv))
