"""Property tests: block evaluation, per-sample parity, the Wald identity and
the invariances every statistic path must have."""

import weakref
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from breaklab import break_tests, dgp, experiments, kernels
from breaklab.dgp import Sample, draw_shape, generate, spec_from_config, spec_to_config
from breaklab.errors import BreakLabError
from breaklab.estimators import fit_xy, ols_fit
from breaklab.experiments import _run_cells, _run_chunk
from breaklab.kernels import wald_scan
from breaklab.rng import replication_stream
from shared import wald_by_refits

PROPERTY = settings(max_examples=25, deadline=None, derandomize=True, database=None)

#: float64 tolerance of an invariance, relative to the path's largest magnitude:
#: eps (2.2e-16) x T (<= 120) x the largest ratio of data to residual size the
#: strategies below allow (about 1e3) x design conditioning (about 1e2) ~ 3e-9
INVARIANCE_RTOL = 1e-8

STATS = (("cusum", 0.0), ("cusumsq", 0.0), ("zmean", 0.15), ("wald", 0.15))

CELLS = {
    "location": {"family": "location", "T": 40},
    "location_break": {"family": "location", "T": 40, "s": 0.5, "beta_pre": [0.0], "beta_post": [1.0]},
    "linear_regression": {"family": "linear_regression", "T": 40, "beta_pre": [1.0, 0.5, -0.2]},
    "cointegration": {"family": "cointegration", "T": 40, "sigma_eps_u": 0.5},
    "predictive_lur": {"family": "predictive_lur", "T": 40, "c": -5.0, "sigma_eps_u": -0.9},
    "ar1": {"family": "ar1", "T": 40, "s": 0.5, "beta_pre": [0.5], "beta_post": [0.9]},
    # explosive root: the pooled design is rank deficient, so every statistic fails
    "explosive": {"family": "predictive_lur", "T": 500, "c": 240.0},
}


def _chunk(cfg, seed, lo, hi, paths_upto=0):
    spec = spec_to_config(spec_from_config(cfg))
    return _run_chunk((spec, list(STATS), seed, lo, hi, paths_upto))


#: groups of cells that draw normals of one shape: (40,); (200,) at two T and
#: two p; (41, 2) from two families; (501, 2) with the explosive cell
GROUPS = {
    "T40": [CELLS["location"], CELLS["location_break"], CELLS["ar1"]],
    "mixed_T_p": [
        {"family": "location", "T": 200},
        {"family": "linear_regression", "T": 100, "beta_pre": [1.0, 0.5]},
        {"family": "ar1", "T": 200, "c": -10.0},
    ],
    "pairs": [CELLS["predictive_lur"], {**CELLS["cointegration"], "T": 41}],
    "explosive": [CELLS["explosive"], {**CELLS["predictive_lur"], "T": 500}, {"family": "cointegration", "T": 501}],
}


def _per_sample_sup(kind, sample, nu):
    try:
        if kind == "cusum":
            return break_tests.cusum_path(ols_fit(sample), nu).sup_value
        if kind == "cusumsq":
            return break_tests.cusum_sq_path(ols_fit(sample), nu).sup_value
        if kind == "zmean":
            return break_tests.z_mean_path(sample, nu).sup_value
        return break_tests.wald_path(sample, nu).sup_value
    except BreakLabError:
        return np.nan


@PROPERTY
@given(
    cell=st.sampled_from(sorted(set(CELLS) - {"explosive"})),
    seed=st.integers(0, 2**32 - 1),
    cuts=st.lists(st.integers(1, 59), max_size=6),
)
def test_chunk_boundaries_never_change_results(cell, seed, cuts):
    n = 60
    _, whole, whole_paths, whole_skipped = _chunk(CELLS[cell], seed, 0, n, paths_upto=n)
    bounds = [0] + sorted(set(cuts)) + [n]
    parts = [_chunk(CELLS[cell], seed, lo, hi, paths_upto=n) for lo, hi in zip(bounds, bounds[1:])]
    for kind, _ in STATS:
        joined = np.concatenate([sups[kind] for _, sups, _, _ in parts])
        assert np.array_equal(joined, whole[kind], equal_nan=True)
        assert sum(skipped[kind] for *_, skipped in parts) == whole_skipped[kind]
    joined_paths = [row for _, _, paths, _ in parts for row in paths]
    assert len(joined_paths) == len(whole_paths)
    for (rep_a, kind_a, ks_a, path_a), (rep_b, kind_b, ks_b, path_b) in zip(joined_paths, whole_paths):
        assert (rep_a, kind_a) == (rep_b, kind_b)
        assert np.array_equal(ks_a, ks_b)
        assert np.array_equal(path_a, path_b, equal_nan=True)


@pytest.mark.parametrize("cell", sorted(CELLS))
@PROPERTY
@given(seed=st.integers(0, 2**32 - 1))
def test_engine_sups_equal_the_per_sample_functions(cell, seed):
    n = 6 if cell == "explosive" else 24
    _, sups, _, _ = _chunk(CELLS[cell], seed, 0, n)
    spec = spec_from_config(CELLS[cell])
    for rep in range(n):
        sample = generate(spec, replication_stream(seed, rep))
        for kind, nu in STATS:
            want = _per_sample_sup(kind, sample, nu)
            assert np.array_equal(sups[kind][rep], want, equal_nan=True), (kind, rep)
    if cell == "explosive":
        assert all(np.isnan(sups[kind]).all() for kind, _ in STATS)


@pytest.mark.parametrize("cell", sorted(CELLS))
@PROPERTY
@given(seed=st.integers(0, 2**32 - 1), paths_upto=st.integers(0, 12))
def test_paths_are_sampled_exactly_for_defined_sups(cell, seed, paths_upto):
    # rep-major, then in statistic order: every sampled replication whose sup is defined
    lo, n = 3, 6 if cell == "explosive" else 8
    _, sups, paths, _ = _chunk(CELLS[cell], seed, lo, lo + n, paths_upto)
    want = [
        (rep, kind)
        for rep in range(lo, min(lo + n, paths_upto))
        for kind, _ in STATS
        if not np.isnan(sups[kind][rep - lo])
    ]
    assert [(rep, kind) for rep, kind, _, _ in paths] == want


@pytest.mark.parametrize("group", sorted(GROUPS))
@PROPERTY
@given(seed=st.integers(0, 2**32 - 1), small_stacks=st.booleans(), paths_upto=st.integers(0, 6))
def test_grouped_cells_equal_lone_cells(group, seed, small_stacks, paths_upto):
    # one draw of normals per stack serves every cell of the group; small
    # stacks make the group's stack size differ from a lone cell's
    n = 6 if group == "explosive" else 12
    cfgs = [spec_to_config(spec_from_config(cfg)) for cfg in GROUPS[group]]
    assert len({draw_shape(spec_from_config(cfg)) for cfg in cfgs}) == 1
    budget = 8 * 200 * 4 * 2 * 3 if small_stacks else experiments.STACK_BYTES
    with mock.patch.object(experiments, "STACK_BYTES", budget):
        grouped = _run_cells((cfgs, list(STATS), seed, 2, 2 + n, paths_upto))
        lone = [_run_chunk((cfg, list(STATS), seed, 2, 2 + n, paths_upto)) for cfg in cfgs]
    for (sups, paths, skipped), (rep_lo, want_sups, want_paths, want_skipped) in zip(grouped, lone):
        assert rep_lo == 2
        for kind, _ in STATS:
            assert np.array_equal(sups[kind], want_sups[kind], equal_nan=True), kind
        assert skipped == want_skipped and experiments.RANK_DEFICIENT in skipped
        assert len(paths) == len(want_paths)
        for (rep_a, kind_a, ks_a, path_a), (rep_b, kind_b, ks_b, path_b) in zip(paths, want_paths):
            assert (rep_a, kind_a) == (rep_b, kind_b)
            assert np.array_equal(ks_a, ks_b)
            assert np.array_equal(path_a, path_b, equal_nan=True)
    if group == "explosive":
        assert grouped[0][2][experiments.RANK_DEFICIENT] == n


#: a (41, 2) draw group in c-major order, as size_distortion_study builds it, so
#: covariances interleave; the cointegration cell at T=41 shares sigma_eps_u with
#: the predictive_lur cells at T=40 and corr -0.5
C_MAJOR = [
    {"family": "predictive_lur", "T": 40, "c": c, "sigma_eps_u": corr} for c in (0.0, -5.0) for corr in (0.0, -0.5)
] + [{"family": "cointegration", "T": 41, "sigma_eps_u": -0.5}]


@PROPERTY
@given(seed=st.integers(0, 2**32 - 1), paths_upto=st.integers(0, 6))
def test_cells_generated_by_covariance_equal_lone_cells(seed, paths_upto):
    # cells come back in grid order, though they are generated one covariance at a time
    cfgs = [spec_to_config(spec_from_config(cfg)) for cfg in C_MAJOR]
    grouped = _run_cells((cfgs, list(STATS), seed, 1, 9, paths_upto))
    assert len(grouped) == len(cfgs)
    for cfg, (sups, paths, skipped) in zip(cfgs, grouped):
        _, want_sups, want_paths, want_skipped = _run_chunk((cfg, list(STATS), seed, 1, 9, paths_upto))
        for kind, _ in STATS:
            assert np.array_equal(sups[kind], want_sups[kind], equal_nan=True), (cfg, kind)
        assert skipped == want_skipped
        assert [(rep, kind) for rep, kind, _, _ in paths] == [(rep, kind) for rep, kind, _, _ in want_paths]
        for (_, _, ks_a, path_a), (_, _, ks_b, path_b) in zip(paths, want_paths):
            assert np.array_equal(ks_a, ks_b)
            assert np.array_equal(path_a, path_b, equal_nan=True)


def test_one_stack_and_one_pair_transform_alive_at_a_time(monkeypatch):
    # each cell's stack dies before the next is generated, each covariance's
    # transform before the next is made, and each covariance gets one transform
    stacks, transforms = [], []

    def spy(store, fn):
        def wrapped(*args):
            assert all(ref() is None for ref in store), "a previous one is still alive"
            out = fn(*args)
            store.append(weakref.ref(out))
            return out

        return wrapped

    monkeypatch.setattr(experiments.dgp, "generate", spy(stacks, experiments.dgp.generate))
    monkeypatch.setattr(experiments, "gaussian_pairs", spy(transforms, experiments.gaussian_pairs))
    monkeypatch.setattr(dgp, "gaussian_pairs", spy(transforms, dgp.gaussian_pairs))
    cfgs = [spec_to_config(spec_from_config(cfg)) for cfg in C_MAJOR]
    _run_cells((cfgs, list(STATS), 7, 0, 6, 2))
    assert len(stacks) == len(C_MAJOR) and len(transforms) == 2
    assert all(ref() is None for ref in stacks + transforms)


@pytest.mark.parametrize("cell", sorted(CELLS))
def test_generate_reads_predrawn_normals_only(cell):
    spec = spec_from_config(CELLS[cell])
    n = 3
    z = replication_stream(11, range(n)).normal_rows(draw_shape(spec))
    before = z.copy()
    z.flags.writeable = False  # an in-place write would raise
    stack = generate(spec, z)
    assert z.tobytes() == before.tobytes()
    want = generate(spec, replication_stream(11, range(n)))
    assert np.array_equal(stack.X, want.X) and np.array_equal(stack.y, want.y)


def _per_sample_outcome(kind, sample, nu):
    """The single-sample outcome of ``kind``, or None where that call raises."""
    try:
        if kind == "cusum":
            return break_tests.cusum_path(ols_fit(sample), nu)
        if kind == "cusumsq":
            return break_tests.cusum_sq_path(ols_fit(sample), nu)
        if kind == "zmean":
            return break_tests.z_mean_path(sample, nu)
        return break_tests.wald_path(sample, nu)
    except BreakLabError:
        return None


@pytest.mark.parametrize("cell", sorted(CELLS))
@PROPERTY
@given(seed=st.integers(0, 2**32 - 1))
def test_block_rows_equal_the_single_sample_outcomes(cell, seed):
    n = 4 if cell == "explosive" else 8
    spec = spec_from_config(CELLS[cell])
    with np.errstate(over="ignore", invalid="ignore"):  # as the engine fits its blocks
        fit = ols_fit(generate(spec, replication_stream(seed, range(n))))
    samples = [generate(spec, replication_stream(seed, rep)) for rep in range(n)]
    for kind, nu in STATS:
        block = break_tests.evaluate_block(kind, fit, nu)
        for rep, sample in enumerate(samples):
            want = _per_sample_outcome(kind, sample, nu)
            if want is None:
                assert np.isnan(block.sup_value[rep]) and block.argmax_k[rep] == -1, (kind, rep)
                continue
            assert np.array_equal(block.ks, want.ks)
            assert np.array_equal(block.path[rep], want.path, equal_nan=True), (kind, rep)
            assert np.array_equal(block.sup_value[rep], want.sup_value), (kind, rep)
            assert block.argmax_k[rep] == want.argmax_k, (kind, rep)
            if kind in ("zmean", "wald"):  # the residual statistics skip no split
                assert block.skipped[rep] == len(want.skipped), (kind, rep)


def test_block_failures_stay_in_their_row():
    # one stack: a regular sample, one with singular early splits, a
    # constant (degenerate) one and a rank-deficient one
    T = 12
    x = np.r_[np.full(6, 2.0), np.arange(1.0, 7.0)]
    t = np.arange(T, dtype=float)
    regular = Sample(y=np.sin(t) + 0.1 * t, X=np.column_stack([np.ones(T), np.cos(t)]))
    collinear = Sample(y=t + (t >= 6), X=np.column_stack([np.ones(T), x]))
    flat = Sample(y=np.full(T, 3.0), X=np.column_stack([np.ones(T), x]))
    deficient = Sample(y=t**2, X=np.column_stack([np.ones(T), np.ones(T)]))
    stack = [regular, collinear, flat, deficient]
    fit = fit_xy(np.stack([s.X for s in stack]), np.stack([s.y for s in stack]))
    assert fit.full_rank.tolist() == [True, True, True, False]
    for kind, _ in STATS:
        out = break_tests.evaluate_block(kind, fit, 0.0)
        for row, sample in enumerate(stack):
            want = _per_sample_sup(kind, sample, 0.0)
            assert np.array_equal(out.sup_value[row], want, equal_nan=True), (kind, row)
    wald = break_tests.evaluate_block("wald", fit, 0.0)
    assert wald.skipped.tolist() == [0, 5, 0, 0]
    assert np.array_equal(wald.path[1], break_tests.wald_path(collinear, 0.0).path, equal_nan=True)
    assert np.isnan(wald.path[2:]).all() and wald.argmax_k[2:].tolist() == [-1, -1]


@PROPERTY
@given(
    p=st.sampled_from([1, 2, 3]),
    T=st.integers(12, 90),
    seed=st.integers(0, 2**32 - 1),
    scale=st.floats(1e-3, 1e3),
)
def test_wald_identity_matches_per_k_refits(p, T, seed, scale):
    rng = np.random.default_rng(seed)
    X = np.column_stack([np.ones(T)] + [rng.standard_normal(T) for _ in range(p - 1)])
    y = scale * (X @ rng.standard_normal(p) + rng.standard_normal(T))
    fit = fit_xy(X, y)
    k_lo, k_hi = break_tests.scan_range(T, p, 0.1)
    want = wald_by_refits(X, y, k_lo, k_hi, fit.sigma_hat_sq)
    for response in (y, fit.residuals):
        vals, ok = wald_scan(X, response, k_lo, k_hi, fit.sigma_hat_sq)
        assert ok.all()
        np.testing.assert_allclose(vals, want, rtol=1e-9)
    stacked, _ = wald_scan(np.stack([X, X]), np.stack([y, fit.residuals]), k_lo, k_hi, fit.sigma_hat_sq)
    np.testing.assert_allclose(stacked, np.stack([want, want]), rtol=1e-9)


@PROPERTY
@given(
    p=st.sampled_from([1, 2, 3]),
    T=st.integers(12, 90),
    R=st.integers(1, 9),
    seed=st.integers(0, 2**32 - 1),
    tile_rows=st.sampled_from([1, 3, None]),
)
def test_tiled_wald_scan_equals_single_sample_scans_bit_for_bit(p, T, R, seed, tile_rows):
    # tiles of 1 row, of an odd 3 rows (cut mid-stack unless R <= 3) and of the
    # whole stack, with the budget counted per sample as WALD_TILE_BYTES describes
    rng = np.random.default_rng(seed)
    X = np.concatenate([np.ones((R, T, 1)), rng.standard_normal((R, T, p - 1))], axis=-1)
    if p > 1:  # a step regressor: every split before T/2 has a singular regime
        X[0, :, -1] = np.arange(T) >= T // 2
    y = rng.standard_normal((R, T))
    sigma2 = rng.uniform(0.5, 2.0, R)
    k_lo, k_hi = break_tests.scan_range(T, p, 0.1)
    per_sample = 8 * (T + (p + 2) ** 2 * (k_hi - k_lo + 1))
    singles = [wald_scan(X[r], y[r], k_lo, k_hi, sigma2[r]) for r in range(R)]
    with mock.patch.object(kernels, "WALD_TILE_BYTES", (tile_rows or R) * per_sample):
        tiles = []
        scan_tile = kernels._scan_tile
        with mock.patch.object(kernels, "_scan_tile", lambda X, *a: tiles.append(len(X)) or scan_tile(X, *a)):
            vals, ok = wald_scan(X, y, k_lo, k_hi, sigma2)
    assert tiles == [min(tile_rows or R, R - lo) for lo in range(0, R, tile_rows or R)]
    assert vals.tobytes() == np.stack([v for v, _ in singles]).tobytes()
    assert ok.tobytes() == np.stack([o for _, o in singles]).tobytes()
    if p > 1:
        assert not ok[0].all()


def _default_paths(X, y):
    """Each statistic's path at its default trimming; zmean on the intercept-only design only."""
    sample = Sample(y=y, X=X)
    fit = ols_fit(sample)
    out = {
        "cusum": break_tests.cusum_path(fit),
        "cusumsq": break_tests.cusum_sq_path(fit),
        "wald": break_tests.wald_path(sample),
    }
    if X.shape[1] == 1:
        out["zmean"] = break_tests.z_mean_path(sample)
    return out


@PROPERTY
@given(
    p=st.sampled_from([1, 2, 3]),
    T=st.integers(30, 120),
    seed=st.integers(0, 2**32 - 1),
    a=st.floats(0.1, 10.0),
    c=st.lists(st.floats(-10.0, 10.0), min_size=3, max_size=3),
)
def test_every_path_invariant_under_positive_affine_maps(p, T, seed, a, c):
    # y -> a y + X c scales the residuals by a and leaves every self-normalized path alone
    rng = np.random.default_rng(seed)
    X = np.column_stack([np.ones(T)] + [rng.standard_normal(T) for _ in range(p - 1)])
    y = X @ rng.standard_normal(p) + rng.standard_normal(T)
    before = _default_paths(X, y)
    after = _default_paths(X, a * y + X @ np.array(c[:p]))
    assert sorted(before) == sorted(after)
    for kind, want in before.items():
        assert np.array_equal(after[kind].ks, want.ks)
        atol = INVARIANCE_RTOL * np.nanmax(np.abs(want.path))
        np.testing.assert_allclose(after[kind].path, want.path, rtol=0, atol=atol, err_msg=kind)


@PROPERTY
@given(
    p=st.sampled_from([1, 2, 3]),
    intercept=st.booleans(),
    T=st.integers(10, 120),
    nu=st.sampled_from([0.0, 0.1, 0.25]),
    seed=st.integers(0, 2**32 - 1),
)
def test_signed_cusum_reversal_antisymmetry_for_any_design(p, intercept, T, nu, seed):
    # reversing the rows reverses the residuals, so S_rev(k) - (k/T) S_T = -(S(T-k) - ((T-k)/T) S_T)
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((T, p))
    if intercept:
        X[:, 0] = 1.0
    y = X @ rng.standard_normal(p) + rng.standard_normal(T)
    fwd = break_tests.cusum_path(ols_fit(Sample(y=y, X=X)), nu)
    rev = break_tests.cusum_path(ols_fit(Sample(y=y[::-1], X=X[::-1])), nu)
    assert np.array_equal(rev.ks, T - fwd.ks[::-1])
    atol = INVARIANCE_RTOL * np.max(np.abs(fwd.path))
    np.testing.assert_allclose(rev.path, -fwd.path[::-1], rtol=0, atol=atol)
