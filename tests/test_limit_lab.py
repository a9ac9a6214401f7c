"""Limit-process simulators against closed-form and series oracles."""

import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose
from scipy import stats

from breaklab import limit_lab
from breaklab.errors import DataError, SpecError, TableLookupError
from breaklab.limit_lab import (
    FUNCTIONAL_KINDS,
    CriticalValueTable,
    _coint_t_from_draws,
    _cvm_from_increments,
    _draw_block,
    _draw_blocks,
    check_functional,
    load_table,
    save_table,
    simulate_bridge,
    simulate_cointegration_tstat_limit,
    simulate_cvm_p1,
    simulate_lur_cusum_limit,
    simulate_ou,
    simulate_qp_sup,
    table_from_json_dict,
    table_to_json_dict,
    tabulate,
)
from breaklab.rng import SeedSpec, derive_stream, limit_draw_stream
from breaklab.schema import MEMORY_BUDGET
from shared import TABULATION_ALLOWANCE, kolmogorov_quantile, traced_peak


def test_kolmogorov_oracle_matches_reference():
    q95 = kolmogorov_quantile(0.95)
    assert abs(q95 - 1.3581) < 1e-3
    assert abs(q95 - stats.kstwobign.ppf(0.95)) < 1e-6


def _stream(i=0, master=2024):
    return derive_stream(SeedSpec(master, i))


# ---------------------------------------------------------------------------
# Brownian bridge
# ---------------------------------------------------------------------------

def test_bridge_pinned_at_both_ends():
    path = simulate_bridge(500, _stream())
    assert path.values[0] == 0.0
    assert abs(path.values[-1]) < 1e-12
    assert path.values.shape == (501,)


def test_bridge_rejects_tiny_grid():
    with pytest.raises(SpecError):
        simulate_bridge(1, _stream())


def test_bridge_marginal_variances():
    n = 1000
    reps = 10_000
    marginals = {0.25: [], 0.5: [], 0.75: []}
    for i in range(reps):
        values = simulate_bridge(n, limit_draw_stream(51, i)).values
        for s in marginals:
            marginals[s].append(values[int(s * n)])
    for s, draws in marginals.items():
        var = np.var(draws)
        target = s * (1 - s)
        # 3 MC standard errors for a variance estimate
        se = target * math.sqrt(2.0 / reps)
        assert abs(var - target) < 3 * se + 1e-12
    assert 0.24 < np.var(marginals[0.5]) < 0.26


def test_sup_abs_bridge_quantile_matches_kolmogorov_series():
    draws = np.concatenate(
        [_draw_block("supabsbb", 52, lo, min(lo + 1024, 10_000), 1000, 1, 0.0, None, None)
         for lo in range(0, 10_000, 1024)]
    )
    q95 = np.quantile(draws, 0.95)
    assert 1.34 < q95 < 1.38


def test_bridge_discretization_monotone_toward_continuum():
    # one set of fine paths evaluated on nested subgrids: the discretized
    # sup can only grow with resolution, pathwise
    reps, n = 20_000, 4000
    sups = {}
    rng = np.random.default_rng(7)
    z = rng.standard_normal((reps, n))
    w = np.cumsum(z, axis=1) * (1.0 / math.sqrt(n))
    bridge = w - (np.arange(1, n + 1) / n) * w[:, -1][:, None]
    for sub in (250, 1000, 4000):
        step = n // sub
        sups[sub] = np.abs(bridge[:, step - 1 :: step]).max(axis=1)
    assert (sups[250] <= sups[1000]).all()
    assert (sups[1000] <= sups[4000]).all()
    q = {sub: np.quantile(sups[sub], 0.95) for sub in sups}
    target = kolmogorov_quantile(0.95)
    assert q[250] < q[1000] < q[4000] < target + 0.01
    assert (q[1000] - q[250]) > (q[4000] - q[1000])


# ---------------------------------------------------------------------------
# squared normalized bridge functional
# ---------------------------------------------------------------------------

def test_qp_draw_nonnegative_and_validates():
    val = simulate_qp_sup(1, 0.15, 500, _stream())
    assert val >= 0.0
    with pytest.raises(SpecError):
        simulate_qp_sup(0, 0.15, 500, _stream())
    with pytest.raises(SpecError):
        simulate_qp_sup(1, 0.0, 500, _stream())


def test_q1_is_squared_normalized_bridge_pathwise():
    # identical stream: the p = 1 functional must equal the normalized
    # squared bridge built from the same draws, grid point by grid point
    n, nu = 800, 0.15
    bridge = simulate_bridge(n, _stream(3)).values
    grid = np.arange(n + 1) / n
    j_lo, j_hi = 120, 680
    q_path = bridge[j_lo : j_hi + 1] ** 2 / (
        grid[j_lo : j_hi + 1] * (1 - grid[j_lo : j_hi + 1])
    )
    assert_allclose(
        simulate_qp_sup(1, nu, n, _stream(3)), q_path.max(), rtol=1e-12
    )


def test_qp_p2_dominates_p1():
    draws1 = _draw_block("supqp", 53, 0, 4000, 500, 1, 0.15, None, None)
    draws2 = _draw_block("supqp", 54, 0, 4000, 500, 2, 0.15, None, None)
    for level in (0.5, 0.9, 0.95):
        assert np.quantile(draws2, level) > np.quantile(draws1, level)


def test_qp_quantile_reproducible_across_seeds():
    qs = []
    for master in (60, 61):
        draws = np.concatenate(
            [_draw_block("supqp", master, lo, lo + 1000, 2000, 1, 0.15, None, None)
             for lo in range(0, 20_000, 1000)]
        )
        qs.append(np.quantile(draws, 0.95))
    assert abs(qs[0] - qs[1]) < 0.1


# ---------------------------------------------------------------------------
# mean-reverting limit process
# ---------------------------------------------------------------------------

def test_ou_starts_at_origin():
    path = simulate_ou(-5.0, 100, _stream())
    assert path.values[0] == 0.0


def test_ou_exact_marginal_variance_any_grid():
    # the one-step recursion is exact, so even a coarse grid matches the
    # closed-form variance (e^{2c} - 1) / (2c) up to MC error
    for c, target in ((0.0, 1.0), (-1.0, (1 - math.exp(-2)) / 2), (-5.0, (1 - math.exp(-10)) / 10)):
        ends = np.array(
            [simulate_ou(c, 4, limit_draw_stream(70 + int(abs(c)), i)).values[-1] for i in range(8000)]
        )
        assert_allclose(ends.var(), target, rtol=0.05)


def test_ou_unit_root_case_is_brownian():
    ends = np.array(
        [simulate_ou(0.0, 64, limit_draw_stream(80, i)).values[-1] for i in range(10_000)]
    )
    assert_allclose(ends.var(), 1.0, rtol=0.03)


def test_ou_semigroup_composition_bit_identical():
    c, n = -3.0, 128
    full = simulate_ou(c, 2 * n, _stream(9)).values
    stream = _stream(9)
    first = simulate_ou(c, n, stream, horizon=0.5)
    second = simulate_ou(c, n, stream, x0=first.values[-1], horizon=0.5)
    assert np.array_equal(full[: n + 1], first.values)
    assert np.array_equal(full[n:], second.values)


# ---------------------------------------------------------------------------
# persistence-contaminated bridge
# ---------------------------------------------------------------------------

def test_lur_draw_nonnegative_and_validates():
    assert simulate_lur_cusum_limit(-5.0, -0.5, 400, _stream()) >= 0.0
    with pytest.raises(SpecError):
        simulate_lur_cusum_limit(-5.0, -1.5, 400, _stream())


def test_lur_strong_reversion_recovers_bridge_limit():
    n, reps = 1000, 10_000
    lur = np.concatenate(
        [_draw_block("supabslurcusum", 90, lo, lo + 1000, n, 1, 0.0, -200.0, 0.0)
         for lo in range(0, reps, 1000)]
    )
    bb = np.concatenate(
        [_draw_block("supabsbb", 91, lo, lo + 1000, n, 1, 0.0, None, None)
         for lo in range(0, reps, 1000)]
    )
    ks = stats.ks_2samp(lur, bb).statistic
    assert ks < 0.03


def test_lur_correction_symmetric_under_exogeneity():
    # with independent driving motions the full-span correction term has a
    # symmetric distribution; rebuild it from raw ingredients
    rng = np.random.default_rng(17)
    n, reps, c = 500, 20_000, -5.0
    dt = 1.0 / n
    z = rng.standard_normal((reps, 2, n))
    dbu = z[:, 1, :] * math.sqrt(dt)
    decay = math.exp(c * dt)
    lam = math.sqrt((math.exp(2 * c * dt) - 1.0) / (2 * c * dt))
    j = np.empty((reps, n + 1))
    j[:, 0] = 0.0
    for step in range(1, n + 1):
        j[:, step] = decay * j[:, step - 1] + lam * dbu[:, step - 1]
    j_prev = j[:, :-1]
    int_jdb = np.sum(j_prev * dbu, axis=1)
    int_j = np.sum(j_prev, axis=1) * dt
    int_jsq = np.sum(j_prev * j_prev, axis=1) * dt
    correction = int_jdb / int_jsq * int_j
    skew = stats.skew(correction)
    assert abs(skew) < 0.1


# ---------------------------------------------------------------------------
# integrated-regressor t-statistic limit
# ---------------------------------------------------------------------------

def test_coint_t_standard_normal_when_exogenous():
    draws = np.array(
        [simulate_cointegration_tstat_limit(0.0, 400, limit_draw_stream(100, i))
         for i in range(10_000)]
    )
    ks = stats.kstest(draws, "norm").statistic
    assert ks < 0.02


def test_coint_t_positive_bias_under_endogeneity():
    draws = np.array(
        [simulate_cointegration_tstat_limit(0.8, 400, limit_draw_stream(101, i))
         for i in range(4000)]
    )
    assert draws.mean() > 0.3


def test_coint_t_draws_always_finite():
    stream = _stream(5)
    z = stream.standard_normal((1_000_000, 64))
    extra = stream.standard_normal(1_000_000)
    draws = _coint_t_from_draws(z, extra, 0.9)
    assert np.isfinite(draws).all()


def test_coint_t_validates_ratio():
    with pytest.raises(SpecError):
        simulate_cointegration_tstat_limit(1.5, 100, _stream())


# ---------------------------------------------------------------------------
# integrated squared bridge
# ---------------------------------------------------------------------------

def test_cvm_mean_oracle():
    stream = _stream(6)
    z = stream.standard_normal((100_000, 512))
    draws = _cvm_from_increments(z)
    assert_allclose(draws.mean(), 1.0 / 6.0, rtol=0.02)
    assert (draws >= 0).all()


def test_cvm_single_draw_matches_batch_helper():
    val = simulate_cvm_p1(256, _stream(8))
    z = _stream(8).standard_normal(256)
    assert_allclose(val, _cvm_from_increments(z[None])[0], rtol=0, atol=0)


def test_cvm_quantile_reproducible_across_seeds():
    qs = []
    for master in (110, 111):
        draws = np.concatenate(
            [_draw_block("cvmp1trace", master, lo, lo + 2000, 2000, 1, 0.0, None, None)
             for lo in range(0, 100_000, 2000)]
        )
        qs.append(np.quantile(draws, 0.95))
    assert abs(qs[0] - qs[1]) < 0.005


# ---------------------------------------------------------------------------
# tabulation and table IO
# ---------------------------------------------------------------------------

def test_tabulate_validates_inputs():
    with pytest.raises(SpecError):
        tabulate("nosuch", [0.95], 1000)
    with pytest.raises(SpecError):
        tabulate("supabsbb", [0.95], 999)
    with pytest.raises(SpecError):
        tabulate("supabsbb", [1.5], 1000)
    with pytest.raises(SpecError):
        tabulate("supabslurcusum", [0.95], 1000)  # missing c


@pytest.mark.parametrize(
    "kind,p,nu,c,rows",
    [("supabsbb", 1, 0.0, None, 1), ("cvmp1trace", 1, 0.0, None, 1), ("supqp", 3, 0.15, None, 3),
     ("supabslurcusum", 1, 0.0, -5.0, 2)],
)
def test_an_n_steps_whose_one_draw_overflows_the_memory_budget_is_refused(kind, p, nu, c, rows):
    # a sub-block of one draw holds its normals and a workspace of twice their size; nothing is drawn here
    largest = MEMORY_BUDGET // (3 * 8 * rows)
    assert check_functional(kind, largest, p, nu, c)[0][-1] == largest
    for n_steps in (largest + 1, 2**40, 2**64, np.int64(2**62)):  # numpy's int64 arithmetic would wrap at the last
        with pytest.raises(SpecError, match=f"^n_steps={n_steps} needs {3 * 8 * rows * int(n_steps)} bytes "):
            check_functional(kind, n_steps, p, nu, c)


def test_tabulate_quantiles_monotone_and_deterministic():
    kw = dict(levels=[0.90, 0.95, 0.99], n_reps=2000, n_steps=250, master_seed=3)
    t1 = tabulate("supabsbb", **kw)
    t2 = tabulate("supabsbb", **kw)
    assert t1 == t2
    assert t1.quantiles[0.90] <= t1.quantiles[0.95] <= t1.quantiles[0.99]


def test_tabulate_draws_match_single_draw_ops():
    table_seed = 77
    batch = _draw_block("supqp", table_seed, 0, 8, 300, 2, 0.15, None, None)
    singles = [
        simulate_qp_sup(2, 0.15, 300, limit_draw_stream(table_seed, i)) for i in range(8)
    ]
    assert_allclose(batch, singles, rtol=0, atol=0)


#: (nu, c, corr) of each kind's draws; supqp takes its p from the example
_DRAW_PARAMS = {
    "supabsbb": (0.1, None, None),
    "supqp": (0.15, None, None),
    "supabslurcusum": (0.0, -5.0, -0.5),
    "cvmp1trace": (0.0, None, None),
}


#: each kind's parameters at a valid base, and a value off that base for each
_BASE = {"supabsbb": {}, "supqp": {"nu": 0.15}, "supabslurcusum": {"c": -5.0}, "cvmp1trace": {}}
_MOVED = {"nu": 0.2, "c": -1.0, "corr": 0.5}


@pytest.mark.parametrize("name", sorted(_MOVED))
@pytest.mark.parametrize("kind", FUNCTIONAL_KINDS)
def test_a_functional_reads_exactly_the_parameters_it_lists(kind, name):
    # a listed parameter moves the draws of fixed streams; any other is refused by name
    base = {"nu": 0.0, "c": None, "corr": None, **_BASE[kind]}
    moved = {**base, name: _MOVED[name]}
    if name in limit_lab._READS[kind]:
        before, after = (_draw_block(kind, 11, 0, 16, 50, 1, **params) for params in (base, moved))
        assert not np.array_equal(before, after)
    else:
        with pytest.raises(SpecError, match=rf"^{kind} takes no \w+: {name} must be \w+, got {_MOVED[name]}$"):
            _draw_block(kind, 11, 0, 16, 50, 1, **moved)


@pytest.mark.parametrize("kind", FUNCTIONAL_KINDS)
@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(
    lo=st.integers(0, 300),
    size=st.integers(1, 40),
    n_steps=st.integers(10, 300),
    p=st.integers(1, 3),
    rows=st.integers(2, 9),
)
def test_draw_block_does_not_depend_on_the_sub_block_budget(kind, lo, size, n_steps, p, rows):
    args = (kind, 11, lo, lo + size, n_steps, p, *_DRAW_PARAMS[kind])
    default = _draw_block(*args)
    row_bytes = 8 * n_steps * {"supqp": p, "supabslurcusum": 2}.get(kind, 1)
    for budget in (1, rows * row_bytes):  # one draw per sub-block, then `rows` draws
        with mock.patch.object(limit_lab, "_BLOCK_BYTES", budget):
            assert _draw_block(*args).tobytes() == default.tobytes()


#: functionals that only read their normals, so they may share a draw: (kind, p, nu, c, corr)
_SHAREABLE = st.one_of(
    st.tuples(st.just("supabsbb"), st.just(1), st.sampled_from([0.0, 0.1, 0.15]), st.none(), st.none()),
    st.tuples(st.just("supqp"), st.integers(1, 3), st.sampled_from([0.1, 0.15, 0.3]), st.none(), st.none()),
    st.tuples(st.just("cvmp1trace"), st.just(1), st.just(0.0), st.none(), st.none()),
)


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(
    functionals=st.lists(_SHAREABLE, min_size=2, max_size=5),
    lo=st.integers(0, 300),
    size=st.integers(1, 40),
    n_steps=st.integers(10, 300),
    budget=st.one_of(st.just(limit_lab._BLOCK_BYTES), st.integers(1, 8 * 3 * 300 * 9)),
)
def test_a_shared_draw_gives_each_functional_its_own_draws(functionals, lo, size, n_steps, budget):
    # draw i of every kind reads stream i from its start, so each functional's
    # normals are a prefix of the widest one's: sharing changes no bit
    alone = [_draw_block(kind, 11, lo, lo + size, n_steps, *params) for kind, *params in functionals]
    with mock.patch.object(limit_lab, "_BLOCK_BYTES", budget):
        shared = _draw_blocks(functionals, 11, lo, lo + size, n_steps)
    assert [d.tobytes() for d in shared] == [d.tobytes() for d in alone]


#: sub-blocks of `whole` tiles of `tile` draws and a ragged tile of 1..tile-1 draws
_TILED = dict(tile=st.integers(2, 9), whole=st.integers(1, 3), part=st.integers(0, 7))


def _tile_budgets(row_bytes, tile, whole, part):
    """(_BLOCK_BYTES, _TILE_BYTES) of one draw per tile, then of `tile` draws, under one
    sub-block budget that is no multiple of the tile, so the last tile of a sub-block is ragged."""
    block = (whole * tile + 1 + part % (tile - 1)) * row_bytes
    return [(block, row_bytes), (block, tile * row_bytes)]


@pytest.mark.parametrize("kind", FUNCTIONAL_KINDS)
@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(lo=st.integers(0, 300), size=st.integers(1, 40), n_steps=st.integers(10, 300), p=st.integers(1, 3),
       **_TILED)
def test_draw_block_does_not_depend_on_the_tile_budget(kind, lo, size, n_steps, p, tile, whole, part):
    args = (kind, 11, lo, lo + size, n_steps, p, *_DRAW_PARAMS[kind])
    default = _draw_block(*args)
    row_bytes = 8 * n_steps * {"supqp": p, "supabslurcusum": 2}.get(kind, 1)
    for block, tile_bytes in _tile_budgets(row_bytes, tile, whole, part):
        with mock.patch.object(limit_lab, "_BLOCK_BYTES", block), \
                mock.patch.object(limit_lab, "_TILE_BYTES", tile_bytes):
            assert _draw_block(*args).tobytes() == default.tobytes()


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(functionals=st.lists(_SHAREABLE, min_size=2, max_size=5), lo=st.integers(0, 300),
       size=st.integers(1, 40), n_steps=st.integers(10, 300), **_TILED)
def test_a_shared_draw_does_not_depend_on_the_tile_budget(functionals, lo, size, n_steps, tile, whole, part):
    # tiles are counted in draws of the widest shape, the supqp of the largest p
    default = _draw_blocks(functionals, 11, lo, lo + size, n_steps)
    row_bytes = 8 * n_steps * max(p for _, p, *_ in functionals)
    for block, tile_bytes in _tile_budgets(row_bytes, tile, whole, part):
        with mock.patch.object(limit_lab, "_BLOCK_BYTES", block), \
                mock.patch.object(limit_lab, "_TILE_BYTES", tile_bytes):
            shared = _draw_blocks(functionals, 11, lo, lo + size, n_steps)
        assert [d.tobytes() for d in shared] == [d.tobytes() for d in default]


def test_a_shared_draw_is_read_only():
    # supabslurcusum forms its motions in its normals, so it may only reduce a draw it owns
    lur, bridge = ("supabslurcusum", 1, 0.0, -5.0, 0.0), ("supabsbb", 1, 0.0, None, None)
    with pytest.raises(ValueError, match="read-only"):
        _draw_blocks([lur, bridge], 11, 0, 4, 50)


def test_tabulation_memory_is_bounded_by_the_block_budget():
    # A sub-block holds at most _BLOCK_BYTES of normals.  The supabslurcusum
    # reduction keeps at most eight arrays of half that size alive at once
    # (the normals, both increments, the lagged persistence path, the
    # correction, the bridge and one temporary), so four budgets; one more
    # covers the draws and everything small.
    bound = 5 * limit_lab._BLOCK_BYTES
    tracemalloc.start()
    try:
        tabulate("supabslurcusum", [0.95], 4096, n_steps=2000, c=-5.0, corr=-0.5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < bound


@pytest.mark.parametrize(
    "kind,params",
    [
        ("supabsbb", {}),
        ("supqp", {"p": 2, "nu": 0.15}),
        ("supqp", {"p": 3, "nu": 0.15}),
        ("supabslurcusum", {"c": -5.0, "corr": -0.5}),
        ("cvmp1trace", {}),
    ],
    ids=["supabsbb", "supqp-p2", "supqp-p3", "supabslurcusum", "cvmp1trace"],
)
def test_tabulation_reuses_one_workspace_of_three_budgets(kind, params):
    # One tabulation holds the sub-block's normals and two budgets of scratch,
    # reused by every sub-block; half a budget covers the draws and
    # everything small.
    bound = 3.5 * limit_lab._BLOCK_BYTES
    tracemalloc.start()
    try:
        tabulate(kind, [0.95], 4096, n_steps=2000, **params)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < bound


@pytest.mark.parametrize(
    "kind,params",
    [
        ("supabsbb", {}),
        ("supqp", {"p": 2, "nu": 0.15}),
        ("supqp", {"p": 3, "nu": 0.15}),
        ("supabslurcusum", {"c": -5.0, "corr": -0.5}),
        ("cvmp1trace", {}),
    ],
    ids=["supabsbb", "supqp-p2", "supqp-p3", "supabslurcusum", "cvmp1trace"],
)
def test_tabulation_holds_one_budget_of_normals_plus_tile_scratch(kind, params):
    # a sub-block's normals and at most three tiles of scratch, reused by every
    # tile; supabslurcusum adds its regressor's path over a sub-block, half its normals
    bound = limit_lab._BLOCK_BYTES + 3 * limit_lab._TILE_BYTES + TABULATION_ALLOWANCE
    if kind == "supabslurcusum":
        bound += limit_lab._BLOCK_BYTES // 2
    assert traced_peak(tabulate, kind, [0.95], 4096, n_steps=2000, **params) < bound


@pytest.mark.parametrize(
    "kind,p,nu,c,corr",
    [("supabsbb", 1, 0.0, None, None), ("supqp", 1, 0.15, None, None), ("supqp", 3, 0.15, None, None),
     ("supabslurcusum", 1, 0.0, -5.0, -0.5), ("cvmp1trace", 1, 0.0, None, None)],
    ids=["supabsbb", "supqp-p1", "supqp-p3", "supabslurcusum", "cvmp1trace"],
)
def test_one_draw_holds_what_the_memory_rule_counts(kind, p, nu, c, corr):
    # check_functional charges a sub-block of one draw three times its normals: the normals and
    # its workspace, which must also hold every bridge's grid fractions; 16 KiB for the rest
    shape, _ = check_functional(kind, 100000, p, nu, c, corr)
    _draw_block(kind, 7, 0, 1, 100000, p, nu, c, corr)  # warm-up: numpy's own first-call allocations
    bound = 3 * 8 * math.prod(shape) + (16 << 10)
    assert traced_peak(_draw_block, kind, 7, 0, 1, 100000, p, nu, c, corr) <= bound


def test_levels_within_the_tolerance_are_one_level():
    table = CriticalValueTable("supabsbb", 1, 0.0, None, None, {0.95: 1.358},
                               {"n_steps": 100, "n_reps": 1000, "master_seed": 0})
    assert table.lookup(0.95 + limit_lab.LEVEL_TOL / 2) == 1.358
    with pytest.raises(TableLookupError):
        table.lookup(0.95 + 2 * limit_lab.LEVEL_TOL)
    levels = {"0.95": 1.358, "0.950000002": 9.9}  # two levels, just outside the tolerance
    assert table_from_json_dict({**table_to_json_dict(table), "levels": levels}).quantiles == {
        0.95: 1.358, 0.950000002: 9.9}


@pytest.mark.parametrize("levels", [[0.95, 0.95], [0.9, 0.95000000001, 0.95]])
def test_a_tabulation_of_one_level_twice_is_refused_before_any_draw(levels, drawn):
    with pytest.raises(SpecError, match="0.95 and 0.95.* are one level"):
        tabulate("supabsbb", levels, 1000, n_steps=50)
    assert drawn == []


def test_table_json_round_trip(tmp_path):
    table = tabulate(
        "supqp", levels=[0.95], n_reps=1000, n_steps=200, master_seed=5, p=2, nu=0.15
    )
    path = tmp_path / "table.json"
    save_table(table, path)
    loaded = load_table(path)
    assert loaded == table
    payload = table_to_json_dict(table)
    assert payload["schema_version"] == "1"
    assert payload["meta"]["seed"] == 5
    assert table_from_json_dict(payload) == table


def test_table_lookup_missing_level():
    table = CriticalValueTable(
        functional_kind="supabsbb",
        p=1,
        nu=0.0,
        c=None,
        corr=None,
        quantiles={0.95: 1.358},
        meta={"n_steps": 100, "n_reps": 1000, "master_seed": 0},
    )
    assert table.lookup(0.95) == 1.358
    with pytest.raises(TableLookupError):
        table.lookup(0.99)


def test_load_table_missing_file():
    with pytest.raises(DataError, match="nosuch.json"):
        load_table("nosuch.json")


@pytest.mark.parametrize("field,value", [("meta", "x"), ("levels", 5), ("meta", [1, 2]), ("levels", None)])
def test_table_nested_fields_must_be_objects(field, value):
    payload = table_to_json_dict(tabulate("supabsbb", [0.95], 1000, n_steps=50, master_seed=2))
    payload[field] = value
    with pytest.raises(DataError, match=f"'{field}' must be a JSON object"):
        table_from_json_dict(payload)


@pytest.mark.parametrize("n_steps", [2, 3, 137, 2000])
def test_single_draw_simulators_match_draw_block_rows(n_steps):
    seed, lo, hi = 78, 3, 12
    streams = [limit_draw_stream(seed, i) for i in range(lo, hi)]
    lur = [simulate_lur_cusum_limit(-5.0, -0.5, n_steps, s) for s in streams]
    assert _draw_block(
        "supabslurcusum", seed, lo, hi, n_steps, 1, 0.0, -5.0, -0.5
    ).tobytes() == np.array(lur).tobytes()
    streams = [limit_draw_stream(seed, i) for i in range(lo, hi)]
    cvm = [simulate_cvm_p1(n_steps, s) for s in streams]
    assert _draw_block(
        "cvmp1trace", seed, lo, hi, n_steps, 1, 0.0, None, None
    ).tobytes() == np.array(cvm).tobytes()


@pytest.mark.parametrize(
    "functionals",
    [
        [("supabslurcusum", 1, 0.0, -5.0, None), ("supabsbb", 1, 0.0, None, None)],
        [("supqp", 3, 0.15, None, None), ("supabslurcusum", 1, 0.0, -5.0, None)],
    ],
    ids=["lur-first", "lur-second"],
)
def test_supabslurcusum_beside_another_functional_is_refused_before_any_draw(drawn, functionals):
    # it forms its motions in place in the draw the other functional reads
    with pytest.raises(SpecError, match="supabslurcusum"):
        limit_lab.tabulate_together(functionals, [0.95], 1000, 50, 11)
    assert drawn == []


def test_a_table_of_a_kind_without_a_dimension_is_refused_at_p_2():
    payload = table_to_json_dict(tabulate("cvmp1trace", [0.95], 1000, n_steps=50, master_seed=11))
    with pytest.raises(DataError, match="cvmp1trace takes no dimension: p must be 1, got 2$"):
        table_from_json_dict({**payload, "p": 2})
    with pytest.raises(SpecError, match="^cvmp1trace takes no dimension: p must be 1, got 2$"):
        tabulate("cvmp1trace", [0.95], 1000, n_steps=50, master_seed=11, p=2)
