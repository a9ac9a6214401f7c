"""Hot numeric kernels, vectorized in numpy alone.

Kernels operate on pre-drawn innovation arrays and are fully deterministic:
all randomness lives in :mod:`breaklab.rng` streams owned by the callers.
The first-order recursion, the factorization and the Wald scan take stacks
of series or small problems and treat every stacked one independently, so a
result never depends on what else was stacked with it.  Kernels never write
their inputs.  The limit kernels and the recursion take their scratch from a
keyword-only ``out`` array or ``work`` pair of flat buffers if given, with
the same bits, so tabulation reuses one workspace across its sub-blocks.
"""

import numpy as np

#: relative pivot tolerance below which a Gram matrix counts as singular;
#: the one rank rule of every fit in the package
GRAM_PIVOT_RTOL = 1e-10


# ---------------------------------------------------------------------------
# first-order recursions: x_t = rho * x_{t-1} + shock_t
# ---------------------------------------------------------------------------

def ar1_path(shocks, rho, x0=0.0, *, out=None):
    """Recursion x_t = rho_t * x_{t-1} + shock_t started at x0; returns x_1..x_n.

    ``shocks`` is one series (n,) or a stack (R, n) of them, ``x0`` a scalar
    or one start per row, and ``rho`` broadcasts against the stack likewise:
    a scalar, one root per step (n,) or per row (R, 1).  The loop runs over
    time, one vector operation across the stack per step, in place on a copy
    of ``shocks`` in ``out`` (``shocks`` itself, any view of its shape, or new
    if None), which it returns.  Every step rounds ``rho_t * x_{t-1}`` before
    adding the shock, however the roots were given.
    """
    shocks = np.asarray(shocks, dtype=np.float64)
    path = np.empty(shocks.shape) if out is None else out
    path[...] = shocks
    rows = np.atleast_2d(path)
    rhos = np.broadcast_to(np.asarray(rho, dtype=np.float64), rows.shape).T
    prev = np.broadcast_to(np.asarray(x0, dtype=np.float64), rows.shape[:1])
    for step, rho_t in zip(rows.T, rhos):
        step += rho_t * prev
        prev = step
    return path


# ---------------------------------------------------------------------------
# square-root-free LDL' of many small Gram matrices
#
# Stacks keep the matrix axes first, shape (p, p, ...), so every scalar step
# of the factorization is one elementwise operation over the whole stack.
# The factorization keeps integer-valued Gram systems exact, which the
# noiseless hand-check examples rely on.
# ---------------------------------------------------------------------------

def ldl(a, pivot_floor):
    """LDL' of every symmetric matrix in the stack ``a`` of shape (p, p, ...).

    Only the lower triangle is read.  ``pivot_floor`` broadcasts against the
    stack shape.  Returns ``(lower, diag, bad)``: the unit lower factors as
    a dict from ``(j, i)``, j > i, to the stacked entries below the unit
    diagonal, the pivots (shape (p, ...)), and for each matrix the first
    column whose pivot is at or below the floor (``p`` when none is).  A
    failed pivot is replaced by 1 so the factors stay finite; callers
    discard the matrices ``bad`` flags.
    """
    p = a.shape[0]
    lower = {}
    diag = np.empty(a.shape[1:])
    failed = []
    for i in range(p):
        pivot = diag[i, ...]  # a view even of one matrix's pivots
        np.copyto(pivot, a[i, i])
        for k in range(i):
            pivot -= lower[i, k] * lower[i, k] * diag[k]
        failed.append(pivot <= pivot_floor)
        np.copyto(pivot, 1.0, where=failed[i])
        for j in range(i + 1, p):
            s2 = a[j, i]
            for k in range(i):
                s2 = s2 - lower[j, k] * lower[i, k] * diag[k]
            lower[j, i] = s2 / pivot
    bad = np.full(a.shape[2:], p)
    for i in range(p - 1, -1, -1):  # the first failed column is written last
        np.copyto(bad, i, where=failed[i])
    return lower, diag, bad


def _forward(lower, rhs):
    """The solution z_0, z_1, ... of L z = rhs for the unit lower ``L`` of
    :func:`ldl`, as a list; ``rhs`` has shape (p, ...) and z_0 is ``rhs[0]``."""
    z = []
    for i in range(rhs.shape[0]):
        s = rhs[i]
        for k in range(i):
            s = s - lower[i, k] * z[k]
        z.append(s)
    return z


def ldl_solve(lower, diag, rhs):
    """Solve (L D L') x = rhs for every stacked system."""
    p = rhs.shape[0]
    z = _forward(lower, rhs)
    back = np.empty_like(rhs)
    for i in range(p - 1, -1, -1):
        s = z[i] / diag[i]
        for k in range(i + 1, p):
            s = s - lower[k, i] * back[k]
        back[i] = s
    return back


def _inverse_quadratic(lower, diag, v):
    """v' (L D L')^-1 v by forward substitution alone."""
    z = _forward(lower, v)
    quad, term = z[0] * z[0] / diag[0], None
    for i in range(1, len(z)):  # in place, in the order (z_i * z_i) / d_i then the sum
        term = np.divide(np.multiply(z[i], z[i], out=term), diag[i], out=term)
        quad += term
    return quad


def _regime_quadratic(gram, floor, sums):
    """sums' gram^-1 sums for every stacked regime, and where ``gram`` passed
    the pivot floor; the factors are freed before the caller factors again."""
    lower, diag, bad = ldl(gram, floor)
    return _inverse_quadratic(lower, diag, sums), bad == gram.shape[0]


# ---------------------------------------------------------------------------
# Wald statistic scan over candidate break indices
# ---------------------------------------------------------------------------
#
# With S_k the partial sum of x_t e_t over t <= k, e the residuals of the
# pooled fit and G1, G2 the regime Gram matrices, the regime estimates differ
# by th1 - th2 = G1^-1 S_k + G2^-1 S_k, because the regime-2 partial sum is
# -S_k.  Their Wald contrast therefore collapses to
#     W(k) = S_k' (G1^-1 + G2^-1) S_k / sigma2,
# one forward substitution per regime and no regime estimates.

#: working-set budget of one tile of :func:`wald_scan`'s stacked samples,
#: counted per sample as one running sum over T and (p + 2)^2 arrays over the
#: scanned splits: the regime Grams, partial sums and regime factors
WALD_TILE_BYTES = 1 << 20


def wald_scan(X, y, k_lo, k_hi, sigma2):
    """Wald statistic at every candidate split k in [k_lo, k_hi].

    ``X`` is one (T, p) design or a stack (R, T, p) of them, with ``y`` of
    shape (T,) or (R, T) and ``sigma2`` a scalar or one value per stacked
    sample.  ``y`` may be the response or the residuals of its pooled fit:
    the scan removes the full-sample fit from the cumulative cross-products,
    so the partial sums end at zero either way.  Returns ``(values, ok)`` of
    shape (k_hi - k_lo + 1,) or (R, k_hi - k_lo + 1): the statistic, NaN
    where a regime Gram matrix (or the full one) was singular at
    ``GRAM_PIVOT_RTOL``, and flags of the computable entries.  Values match
    independent per-k refits to 1e-10 relative.  One sample is a stack of
    one; a stack is scanned in tiles of rows within :data:`WALD_TILE_BYTES`.
    """
    X = np.asarray(X, dtype=np.float64)
    T, p = X.shape[-2:]
    shape = (*X.shape[:-2], k_hi - k_lo + 1)
    X, y = X.reshape(-1, T, p), np.asarray(y, dtype=np.float64).reshape(-1, T)
    sigma2 = np.broadcast_to(sigma2, X.shape[:1])
    values, ok = np.empty((len(X), shape[-1])), np.empty((len(X), shape[-1]), dtype=bool)
    rows = max(1, WALD_TILE_BYTES // (8 * (T + (p + 2) ** 2 * shape[-1])))
    for lo in range(0, len(X), rows):
        tile = slice(lo, lo + rows)
        _scan_tile(X[tile], y[tile], k_lo, k_hi, sigma2[tile], values[tile], ok[tile])
    return values.reshape(shape), ok.reshape(shape)


def _scan_tile(X, y, k_lo, k_hi, sigma2, values, ok):
    """:func:`wald_scan` of one tile's stacked samples into its rows of
    ``(values, ok)``.  Gram stacks hold only the lower triangle :func:`ldl`
    reads, and running sums only their values at the splits and at T."""
    p = X.shape[-1]
    lower = [(i, j) for i in range(p) for j in range(i + 1)]
    run = np.empty(y.shape)

    def running(a, b, split, total):
        # cumulative sums of a * b: their values at the splits, and at T
        np.cumsum(np.multiply(a, b, out=run), axis=-1, out=run)
        split[...], total[...] = run[:, k_lo - 1 : k_hi], run[:, -1]

    g1, gram = np.empty((p, p, *values.shape)), np.empty((p, p, len(y)))
    sums, xy = np.empty((p, *values.shape)), np.empty((p, len(y)))
    for i, j in lower:
        running(X[..., i], X[..., j], g1[i, j], gram[i, j])
    for i in range(p):
        running(X[..., i], y, sums[i], xy[i])
    floor = GRAM_PIVOT_RTOL * np.max(np.diagonal(gram), axis=-1)
    l_full, d_full, bad_full = ldl(gram, floor)
    beta = ldl_solve(l_full, d_full, xy)[..., None]
    for j in range(p):
        for i in range(p):
            sums[i] -= g1[max(i, j), min(i, j)] * beta[j]
    quad1, ok1 = _regime_quadratic(g1, floor[:, None], sums)
    for i, j in lower:  # regime 2's Gram, in place of regime 1's
        np.subtract(gram[i, j][:, None], g1[i, j], out=g1[i, j])
    quad2, ok2 = _regime_quadratic(g1, floor[:, None], sums)
    ok[...] = ok1 & ok2 & (bad_full == p)[:, None]
    values[...] = np.where(ok, (quad1 + quad2) / sigma2[:, None], np.nan)


# ---------------------------------------------------------------------------
# limit-process draws from pre-drawn standard-normal increments
# ---------------------------------------------------------------------------

def carve(work, *shapes):
    """An array of each of ``shapes``: the i-th at the start of the i-th flat
    buffer of ``work``, or a new one when ``work`` is None."""
    if work is None:
        return [np.empty(shape) for shape in shapes]
    return [buf[: np.prod(shape)].reshape(shape) for buf, shape in zip(work, shapes)]


def bridge_in_place(w, tmp=None):
    """Rows of partial sums ``w`` (..., n) to bridges w(j/n) - (j/n) w(1), in
    place; ``tmp``, of the shape of ``w``, holds the subtrahend if given."""
    n = w.shape[-1]
    w -= np.multiply(np.arange(1, n + 1) / n, w[..., -1:], out=tmp)
    return w


def bridge_sup(z, j_lo, j_hi, *, work=None):
    """Per-row sup |W(j/n) - (j/n) W(1)| over grid points j in [j_lo, j_hi].

    ``z`` is a (draws, n) array of standard-normal increments, of any strides.
    """
    z = np.asarray(z, dtype=np.float64)
    B, n = z.shape
    w, tmp = carve(work, z.shape, z.shape)
    np.cumsum(z, axis=1, out=w)
    w *= 1.0 / np.sqrt(n)
    seg = bridge_in_place(w, tmp)[:, max(int(j_lo), 1) - 1 : int(j_hi)]
    if seg.shape[1] == 0:
        return np.zeros(B)
    return np.abs(seg, out=seg).max(axis=1)


def qp_sup(z, j_lo, j_hi, *, work=None):
    """Per-row sup of the squared normalized vector bridge over grid points.

    ``z`` is (draws, p, n), of any strides; the statistic at grid fraction
    pi = j/n is ||W_p(pi) - pi W_p(1)||^2 / (pi (1 - pi)), maximised over j
    in [j_lo, j_hi] with 1 <= j_lo <= j_hi <= n - 1.
    """
    z = np.asarray(z, dtype=np.float64)
    j_lo, j_hi = int(j_lo), int(j_hi)
    n = z.shape[-1]
    bb, tmp = carve(work, z.shape, z.shape)
    np.cumsum(z, axis=2, out=bb)
    bb *= 1.0 / np.sqrt(n)
    np.square(bridge_in_place(bb, tmp), out=bb)
    q = np.sum(bb, axis=1, out=tmp[:, 0])[:, j_lo - 1 : j_hi]
    frac_in = np.arange(j_lo, j_hi + 1) / n
    q /= frac_in * (1.0 - frac_in)
    return q.max(axis=1)


def ou_step(c, dt):
    """(decay, lam) of the exact one-step rule of the mean-reverting process
    dJ = c J dt + dW: J moves to ``decay * J + lam * dW`` over a step of ``dt``,
    where ``lam`` scales a N(0, dt) shock to the exact conditional variance."""
    decay = np.exp(c * dt)
    if c == 0.0:
        lam = 1.0
    else:
        lam = np.sqrt((np.exp(2.0 * c * dt) - 1.0) / (2.0 * c * dt))
    return decay, lam


def lur_cusum_sup(dbe, dbu, c, *, work=None):
    """Per-row sup of the persistence-contaminated bridge functional.

    ``dbe``/``dbu`` are (draws, n) Brownian increments (already scaled by
    sqrt(dt) and carrying any cross-correlation), rows not necessarily
    adjacent.  The mean-reverting process is driven by ``dbu`` with exact
    one-step decay, and all stochastic integrals use left-endpoint sums.
    """
    dbe = np.asarray(dbe, dtype=np.float64)
    dbu = np.asarray(dbu, dtype=np.float64)
    B, n = dbe.shape
    dt = 1.0 / n
    decay, lam = ou_step(float(c), dt)
    (j_prev, correction), (path, tmp) = carve(work, (2, *dbe.shape), (2, *dbe.shape))
    j_prev[:, 0] = 0.0
    ar1_path(np.multiply(lam, dbu[:, :-1], out=j_prev[:, 1:]), decay, out=j_prev[:, 1:])
    int_jsq = np.maximum(np.sum(np.multiply(j_prev, j_prev, out=tmp), axis=1) * dt, 1e-300)
    np.cumsum(np.multiply(j_prev, dbu, out=correction), axis=1, out=correction)
    correction /= int_jsq[:, None]
    np.cumsum(j_prev, axis=1, out=j_prev)
    j_prev *= dt
    correction *= j_prev
    bridge_in_place(np.cumsum(dbe, axis=1, out=path), tmp)
    path -= bridge_in_place(correction, tmp)
    return np.abs(path, out=path).max(axis=1)
