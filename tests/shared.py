"""Test references and helpers, each defined once: the independent oracles the
suite checks breaklab against, and the inputs several test modules build.

Plain functions, so a hypothesis test may call them as well as any other test.
"""

import tracemalloc

import numpy as np

from breaklab.dgp import Sample

#: bytes a 4096-draw tabulation may hold besides its normals and scratch: the draws
#: (32 KiB a functional) and everything small
TABULATION_ALLOWANCE = 256 << 10


def traced_peak(fn, *args, **kwargs):
    """Peak bytes that tracemalloc sees allocated while ``fn(*args, **kwargs)`` runs."""
    tracemalloc.start()
    try:
        fn(*args, **kwargs)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def kolmogorov_sf(x, terms=100):
    """P(sup |bridge| > x) by the alternating exponential series."""
    j = np.arange(1, terms + 1)
    return float(2.0 * np.sum((-1.0) ** (j - 1) * np.exp(-2.0 * j * j * x * x)))


def kolmogorov_quantile(level, lo=0.5, hi=3.0):
    """The ``level`` quantile of sup |bridge|, by bisection on :func:`kolmogorov_sf`."""
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if kolmogorov_sf(mid) > 1.0 - level:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def wald_by_refits(X, y, k_lo, k_hi, sigma2):
    """W(k) for k_lo..k_hi from separate regime estimates and the textbook middle matrix."""
    vals = []
    for k in range(k_lo, k_hi + 1):
        g1, g2 = X[:k].T @ X[:k], X[k:].T @ X[k:]
        d = np.linalg.solve(g1, X[:k].T @ y[:k]) - np.linalg.solve(g2, X[k:].T @ y[k:])
        middle = np.linalg.inv(np.linalg.inv(g1) + np.linalg.inv(g2))
        vals.append(d @ middle @ d / sigma2)
    return np.array(vals)


def intercept_sample(y):
    """The sample ``y`` on the single all-ones column."""
    y = np.asarray(y, dtype=float)
    return Sample(y=y, X=np.ones((y.shape[0], 1)))


def reading_argv(what, path, out, sample):
    """The argv of the command that reads a ``what`` payload at ``path`` and writes
    ``out``: an experiment ``spec``, a ``simulate`` ``config``, or a critical-value
    ``table`` that calibrates ``test`` on the sample file ``sample``."""
    if what == "spec":
        return ["experiment", "--spec", str(path), "--out", str(out)]
    if what == "config":
        return ["simulate", "--config", str(path), "--out", str(out)]
    return ["test", "--stat", "cusum", "--input", str(sample), "--critvals", str(path), "--out", str(out)]
