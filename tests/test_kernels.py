"""Kernel correctness."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from breaklab.kernels import (
    GRAM_PIVOT_RTOL,
    ar1_path,
    bridge_sup,
    ldl,
    lur_cusum_sup,
    qp_sup,
    wald_scan,
)
from breaklab.limit_lab import FUNCTIONAL_KINDS, _cvm_from_increments, _draw_block, _draw_one
from breaklab.rng import limit_draw_stream

# ---------------------------------------------------------------------------
# ar1_path
# ---------------------------------------------------------------------------

def test_ar1_path_pure_sum():
    shocks = np.array([1.0, 1.0, 1.0, 1.0])
    assert_allclose(ar1_path(shocks, 1.0, 0.0), [1.0, 2.0, 3.0, 4.0], rtol=0, atol=0)


def test_ar1_path_initial_condition():
    out = ar1_path(np.zeros(3), 0.5, 8.0)
    assert_allclose(out, [4.0, 2.0, 1.0], rtol=0, atol=0)


def test_ar1_path_matches_direct_recursion():
    rng = np.random.default_rng(11)
    shocks = rng.standard_normal(200)
    rho, x0 = 0.93, 0.7
    expected = np.empty(200)
    prev = x0
    for i, s in enumerate(shocks):
        prev = rho * prev + s
        expected[i] = prev
    assert_allclose(ar1_path(shocks, rho, x0), expected, rtol=1e-14)


# ---------------------------------------------------------------------------
# ldl
# ---------------------------------------------------------------------------

def _scalar_ldl(a, floor):
    """LDL' of one matrix in Python floats, in the kernel's operation order."""
    p = len(a)
    lower, diag, bad = {}, [], p
    for i in range(p):
        s = a[i][i]
        for k in range(i):
            s = s - lower[i, k] * lower[i, k] * diag[k]
        if s <= floor:
            bad, s = min(bad, i), 1.0
        diag.append(s)
        for j in range(i + 1, p):
            s2 = a[j][i]
            for k in range(i):
                s2 = s2 - lower[j, k] * lower[i, k] * diag[k]
            lower[j, i] = s2 / s
    return lower, diag, bad


@pytest.mark.parametrize("p", [1, 2, 3, 4])
def test_ldl_matches_scalar_recursion(p):
    rng = np.random.default_rng(40 + p)
    X = rng.standard_normal((3, 5, 8, p))  # a (3, 5) stack of 8-row designs
    X[0, 1] = 0.0  # zero Gram matrix: the first pivot fails
    if p > 1:
        X[1, 2, :, -1] = 2.0 * X[1, 2, :, 0]  # last column collinear with the first
        X[2, 3, :, 1] = 0.0  # a zero pivot in the middle
    gram = np.einsum("...ti,...tj->ij...", X, X)
    floor = GRAM_PIVOT_RTOL * np.max(np.diagonal(gram), axis=-1)
    lower, diag, bad = ldl(gram, floor)
    assert diag.shape == (p, 3, 5) and bad.shape == (3, 5)
    assert sorted(lower) == sorted((j, i) for i in range(p) for j in range(i + 1, p))
    for idx in np.ndindex(3, 5):
        a = gram[(slice(None), slice(None), *idx)]
        want = _scalar_ldl(a.tolist(), float(floor[idx]))
        got = ({key: float(v[idx]) for key, v in lower.items()}, diag[(slice(None), *idx)].tolist(), int(bad[idx]))
        assert got == want, idx
        # the 0-d stack: one sample's Gram matrix, as a single fit factors it
        one_lower, one_diag, one_bad = ldl(a, floor[idx])
        assert ({key: float(v) for key, v in one_lower.items()}, one_diag.tolist(), int(one_bad)) == want, idx
    assert bad[0, 1] == 0
    if p > 1:
        assert bad[1, 2] == p - 1 and bad[2, 3] == 1


def test_ldl_contract_on_nan_inf_and_floor_pivots():
    # a NaN pivot is kept (it is not at or below the floor), an infinite
    # entry runs through, and a pivot exactly at the floor fails; the stack
    # and each single matrix must give the scalar recursion's bits
    ordinary = [[4.0, 0.0, 0.0], [2.0, 3.0, 0.0], [1.0, 0.5, 2.0]]
    cases = [  # (lower triangle of the Gram matrix, pivot floor)
        (ordinary, 1e-9),
        ([[4.0, 0.0, 0.0], [2.0, 3.0, 0.0], [1.0, np.nan, 2.0]], 1e-9),
        ([[4.0, 0.0, 0.0], [np.inf, 3.0, 0.0], [1.0, 0.5, 2.0]], 1e-9),
        ([[np.inf, 0.0, 0.0], [2.0, 3.0, 0.0], [1.0, 0.5, np.nan]], 1e-9),
        ([[4.0, 0.0, 0.0], [2.0, 1.5, 0.0], [1.0, 0.3, 2.0]], 0.5),  # pivot 1 is 1.5 - 0.5**2 * 4 = 0.5
        ([[0.5, 0.0, 0.0], [2.0, 3.0, 0.0], [1.0, 0.5, np.inf]], 0.5),  # pivot 0 at the floor
    ]
    gram = np.stack([np.array(a) for a, _ in cases], axis=-1)
    floor = np.array([f for _, f in cases])

    def bits(lower, diag, bad):
        return {key: float(v).hex() for key, v in lower.items()}, [float(d).hex() for d in diag], int(bad)

    with np.errstate(all="ignore"):
        lower, diag, bad = ldl(gram, floor)
        for idx, (a, f) in enumerate(cases):
            want = bits(*_scalar_ldl(a, f))
            assert bits({key: v[idx] for key, v in lower.items()}, diag[:, idx], bad[idx]) == want, idx
            assert bits(*ldl(gram[..., idx], floor[idx])) == want, idx
    assert bad.tolist() == [3, 3, 1, 3, 1, 0]
    assert np.isnan(diag[2, 1]) and np.isnan(diag[2, 3])


# ---------------------------------------------------------------------------
# wald_scan
# ---------------------------------------------------------------------------

def _wald_refit(X, y, k_lo, k_hi, sigma2):
    vals = []
    for k in range(k_lo, k_hi + 1):
        g1 = X[:k].T @ X[:k]
        g2 = X[k:].T @ X[k:]
        th1 = np.linalg.solve(g1, X[:k].T @ y[:k])
        th2 = np.linalg.solve(g2, X[k:].T @ y[k:])
        d = th1 - th2
        middle = np.linalg.inv(np.linalg.inv(g1) + np.linalg.inv(g2))
        vals.append(d @ middle @ d / sigma2)
    return np.array(vals)


@pytest.mark.parametrize("p", [1, 2, 3])
def test_wald_scan_matches_per_k_refits(p):
    rng = np.random.default_rng(100 + p)
    T = 80
    X = np.column_stack([np.ones(T)] + [rng.standard_normal(T) for _ in range(p - 1)])
    y = X @ rng.standard_normal(p) + rng.standard_normal(T)
    resid = y - X @ np.linalg.lstsq(X, y, rcond=None)[0]
    sigma2 = resid @ resid / T
    k_lo, k_hi = p, T - p
    vals, ok = wald_scan(X, y, k_lo, k_hi, sigma2)
    assert ok.all()
    assert_allclose(vals, _wald_refit(X, y, k_lo, k_hi, sigma2), rtol=1e-10)


def test_wald_scan_flags_singular_regimes():
    # second column is constant inside the first regime, so the regime Gram
    # matrix is exactly collinear with the intercept until x varies
    X = np.column_stack([np.ones(12), np.r_[np.full(6, 2.0), np.arange(6.0)]])
    y = np.arange(12.0)
    vals, ok = wald_scan(X, y, 2, 10, 1.0)
    assert not ok[: 6 - 2 + 1].any()  # k = 2..6 leave regime 1 collinear
    assert ok[-1]
    assert np.isnan(vals[~ok]).all()


# ---------------------------------------------------------------------------
# bridge_sup / qp_sup / lur_cusum_sup
# ---------------------------------------------------------------------------

def test_bridge_sup_brute_force():
    rng = np.random.default_rng(7)
    z = rng.standard_normal((5, 64))
    n = 64
    w = np.cumsum(z, axis=1) / np.sqrt(n)
    bridge = w - (np.arange(1, n + 1) / n) * w[:, -1][:, None]
    expected = np.abs(bridge).max(axis=1)
    assert_allclose(bridge_sup(z, 0, n), expected, rtol=1e-12)


def test_bridge_sup_trimming_restricts_grid():
    rng = np.random.default_rng(8)
    z = rng.standard_normal((50, 100))
    full = bridge_sup(z, 0, 100)
    inner = bridge_sup(z, 30, 70)
    assert (inner <= full + 1e-15).all()
    assert (inner < full).any()


def test_qp_sup_p1_is_squared_normalized_bridge():
    rng = np.random.default_rng(9)
    z = rng.standard_normal((8, 200))
    n = 200
    w = np.cumsum(z, axis=1) / np.sqrt(n)
    frac = np.arange(1, n + 1) / n
    bridge = w - frac * w[:, -1][:, None]
    q = bridge[:, 29:170] ** 2 / (frac[29:170] * (1 - frac[29:170]))
    expected = q.max(axis=1)  # grid points 30..170
    assert_allclose(qp_sup(z[:, None, :], 30, 170), expected, rtol=1e-12)


def test_qp_sup_nonnegative_and_monotone_in_p():
    rng = np.random.default_rng(10)
    z = rng.standard_normal((2000, 2, 128))
    q2 = qp_sup(z, 13, 115)
    q1 = qp_sup(z[:, :1, :], 13, 115)
    assert (q2 >= 0).all()
    # adding an independent nonnegative component shifts quantiles up
    for level in (0.5, 0.9, 0.95):
        assert np.quantile(q2, level) > np.quantile(q1, level)


def test_lur_kernel_c_zero_reduces_toward_plain_bridge():
    # with c = 0 the correction uses the running integral of the driving
    # motion itself; the statistic stays finite and nonnegative
    rng = np.random.default_rng(15)
    n = 500
    z = rng.standard_normal((100, 2, n))
    sdt = np.sqrt(1.0 / n)
    out = lur_cusum_sup(z[:, 0, :] * sdt, z[:, 1, :] * sdt, 0.0)
    assert np.isfinite(out).all()
    assert (out >= 0).all()


_Z = np.random.default_rng(16).standard_normal((6, 2, 90))


@pytest.mark.parametrize(
    "kernel,args",
    [
        (bridge_sup, (_Z[:, 0].copy(), 0, 90)),
        (qp_sup, (_Z.copy(), 10, 80)),
        (lur_cusum_sup, (_Z[:, 0] * 0.1, _Z[:, 1] * 0.1, -5.0)),
        (_cvm_from_increments, (_Z[:, 1].copy(),)),
    ],
    ids=["bridge_sup", "qp_sup", "lur_cusum_sup", "cvm_from_increments"],
)
def test_limit_kernels_leave_their_inputs_unchanged(kernel, args):
    # C-contiguous float64 inputs reach the kernels without a defensive copy,
    # so an in-place update of one would show here
    arrays = [a for a in args if isinstance(a, np.ndarray)]
    assert all(a.flags.c_contiguous and a.dtype == np.float64 for a in arrays)
    before = [a.copy() for a in arrays]
    kernel(*args)
    for a, b in zip(arrays, before):
        assert a.tobytes() == b.tobytes()


@pytest.mark.parametrize("rho", [1.0, 0.99, 0.6, 1.2])
def test_ar1_path_stack_with_per_row_start_matches_scalar_recursion(rho):
    gen = np.random.default_rng(3)
    shocks = gen.standard_normal((5, 40))
    x0 = gen.standard_normal(5)
    expected = np.empty_like(shocks)
    for i in range(5):
        prev = float(x0[i])
        for t in range(40):
            prev = rho * prev + float(shocks[i, t])
            expected[i, t] = prev
    out = ar1_path(shocks, rho, x0)
    assert out.shape == shocks.shape and out.flags.c_contiguous
    assert_allclose(out, expected, rtol=0, atol=0)
    # Fortran-ordered shocks give the same paths
    assert_allclose(ar1_path(np.asfortranarray(shocks), rho, x0), expected, rtol=0, atol=0)


def test_ar1_path_per_step_and_per_row_roots_match_scalar_calls_bit_for_bit():
    gen = np.random.default_rng(5)
    shocks = gen.standard_normal((6, 50))
    x0 = gen.standard_normal(6)
    # one root per step, switching at steps 20 and 35: the scalar recursion run
    # segment by segment, each segment started at the last value of the one before
    rho = np.r_[np.full(20, 0.5), np.full(15, 1.02), np.full(15, -0.3)]
    segments = [ar1_path(shocks[:, :20], 0.5, x0)]
    segments.append(ar1_path(shocks[:, 20:35], 1.02, segments[-1][:, -1]))
    segments.append(ar1_path(shocks[:, 35:], -0.3, segments[-1][:, -1]))
    want = np.concatenate(segments, axis=1)
    assert ar1_path(shocks, rho, x0).tobytes() == want.tobytes()
    assert ar1_path(shocks[2], rho, x0[2]).tobytes() == want[2].tobytes()
    # one root per row, as an (R, 1) column: each row's own scalar call
    rho_rows = gen.uniform(-1.0, 1.05, (6, 1))
    want_rows = np.stack([ar1_path(shocks[i], float(rho_rows[i, 0]), x0[i]) for i in range(6)])
    assert ar1_path(shocks, rho_rows, x0).tobytes() == want_rows.tobytes()


# ---------------------------------------------------------------------------
# caller-given scratch
# ---------------------------------------------------------------------------

def test_ar1_path_into_out_matches_a_fresh_path():
    gen = np.random.default_rng(4)
    shocks = gen.standard_normal((5, 40))
    x0 = gen.standard_normal(5)
    fresh = ar1_path(shocks, 0.9, x0)
    aliased = shocks.copy()  # out is the shocks themselves
    assert ar1_path(aliased, 0.9, x0, out=aliased) is aliased
    assert aliased.tobytes() == fresh.tobytes()
    wide = np.full((5, 41), np.nan)  # out is a strided column view
    assert ar1_path(shocks, 0.9, x0, out=wide[:, 1:]).tobytes() == fresh.tobytes()
    assert np.isnan(wide[:, 0]).all()
    assert ar1_path(shocks[0], 0.9, out=np.empty(40)).tobytes() == ar1_path(shocks[0], 0.9).tobytes()


_W = np.random.default_rng(17).standard_normal((7, 3, 120))


@pytest.mark.parametrize(
    "kernel,args",
    [
        (bridge_sup, (_W[:, 0].copy(), 5, 110)),
        (qp_sup, (_W.copy(), 12, 108)),
        (lur_cusum_sup, (_W[:, 0] * 0.1, _W[:, 1] * 0.1, -5.0)),
        (lur_cusum_sup, (_W[:, 0] * 0.1, _W[:, 2] * 0.1, 0.0)),
        (lur_cusum_sup, (_W[:, 1], _W[:, 2], 2.0)),  # rows of strided views
        (_cvm_from_increments, (_W[:, 2].copy(),)),
    ],
    ids=["bridge_sup", "qp_sup", "lur_cusum_sup", "lur_cusum_sup-c0", "lur_cusum_sup-strided",
         "cvm_from_increments"],
)
def test_limit_kernels_give_the_same_bits_with_caller_scratch(kernel, args):
    arrays = [a for a in args if isinstance(a, np.ndarray)]
    before = [a.copy() for a in arrays]
    fresh = kernel(*args)
    # stale scratch, larger than needed: no kernel may read what it did not write
    work = np.full(_W.size, np.nan), np.full(_W.size, np.nan)
    if kernel is _cvm_from_increments:
        got = kernel(*args, work)
    else:
        got = kernel(*args, work=work)
    assert got.tobytes() == fresh.tobytes()
    for a, b in zip(arrays, before):
        assert a.tobytes() == b.tobytes()


_ONE_PARAMS = [
    ("supabsbb", 1, 0.0, None, None),
    ("supabsbb", 1, 0.1, None, None),
    ("supqp", 1, 0.15, None, None),
    ("supqp", 3, 0.2, None, None),
    ("supabslurcusum", 1, 0.0, -5.0, -0.5),
    ("supabslurcusum", 1, 0.0, 0.0, 1.0),
    ("cvmp1trace", 1, 0.0, None, None),
]


@pytest.mark.parametrize("kind,p,nu,c,corr", _ONE_PARAMS)
@pytest.mark.parametrize("n_steps", [10, 137])
def test_single_draws_equal_draw_block_rows(kind, p, nu, c, corr, n_steps):
    assert {params[0] for params in _ONE_PARAMS} == set(FUNCTIONAL_KINDS)
    seed, lo, hi = 19, 4, 13
    block = _draw_block(kind, seed, lo, hi, n_steps, p, nu, c, corr)
    ones = [_draw_one(kind, limit_draw_stream(seed, i), n_steps, p, nu, c, corr) for i in range(lo, hi)]
    assert block.tobytes() == np.array(ones).tobytes()
