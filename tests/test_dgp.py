"""Generators: trivial noiseless cases, wiring checks, and moment oracles."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from breaklab import dgp
from breaklab.dgp import (
    FAMILIES,
    DgpSpec,
    Sample,
    gen_cointegration,
    gen_location,
    generate,
    sample_from_csv,
    sample_to_csv,
    spec_from_config,
    spec_to_config,
)
from breaklab.errors import DataError, SpecError
from breaklab.rng import InnovCov, SeedSpec, derive_stream, replication_stream


def _stream(i=0, master=123):
    return derive_stream(SeedSpec(master, i))


def _spec(**kw):
    base = dict(family="location", T=8, s=0.0, params_pre=(0.0,), params_post=(0.0,))
    base.update(kw)
    return DgpSpec(**base)


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------

def test_rejects_tiny_sample():
    with pytest.raises(SpecError):
        _spec(T=3)


def test_rejects_break_fraction_outside_unit_interval():
    with pytest.raises(SpecError):
        _spec(s=1.2)


def test_rejects_mismatched_param_lengths():
    with pytest.raises(SpecError):
        _spec(family="linear_regression", params_pre=(1.0, 2.0), params_post=(1.0,))


def test_no_break_encoding_requires_equal_params():
    with pytest.raises(SpecError):
        _spec(s=0.0, params_pre=(0.0,), params_post=(1.0,))
    with pytest.raises(SpecError):
        _spec(s=1.0, params_pre=(0.0,), params_post=(1.0,))


def test_rejects_wildly_explosive_root():
    with pytest.raises(SpecError):
        _spec(family="predictive_lur", T=10, persistence_c=6.0)  # root = 1.6


#: a value off its default for each setting a family may leave unread
_OFF_DEFAULT = {"sigma_eps_sq": 2.0, "sigma_u_sq": 2.0, "sigma_eps_u": 0.5, "c": -3.0, "mu": 1.0, "x0": 1.0}


@pytest.mark.parametrize("key", sorted(_OFF_DEFAULT))
@pytest.mark.parametrize("family", FAMILIES)
def test_a_family_reads_exactly_the_settings_it_lists(family, key):
    # a listed setting moves the sample drawn from a fixed stream; any other is refused by name
    base = {"family": family, "T": 20}
    moved = {**base, key: _OFF_DEFAULT[key]}
    if key in dgp._FAMILIES[family].reads:
        before, after = (generate(spec_from_config(cfg), _stream()) for cfg in (base, moved))
        assert not (np.array_equal(before.y, after.y) and np.array_equal(before.X, after.X))
    else:
        with pytest.raises(SpecError, match=f"^family '{family}' does not read {key}, got {_OFF_DEFAULT[key]}$"):
            spec_from_config(moved)


def test_generator_rejects_wrong_family():
    with pytest.raises(SpecError):
        gen_location(_spec(family="ar1", params_pre=(0.5,), params_post=(0.5,)), _stream())


def test_break_index_floor_and_clamp():
    assert _spec(T=4, s=0.5, params_pre=(0.0,), params_post=(1.0,)).break_index == 2
    assert _spec(T=10, s=0.31, params_pre=(0.0,), params_post=(1.0,)).break_index == 3
    # floor would give 0, clamped so both regimes are non-empty
    assert _spec(T=10, s=0.05, params_pre=(0.0,), params_post=(1.0,)).break_index == 1
    assert _spec(T=10, s=0.999, params_pre=(0.0,), params_post=(1.0,)).break_index == 9
    assert _spec(T=10, s=0.0).break_index == 0
    assert _spec(T=10, s=1.0).break_index == 10


# ---------------------------------------------------------------------------
# location model
# ---------------------------------------------------------------------------

def test_location_noiseless_null_is_zero():
    spec = _spec(cov=InnovCov(sigma_eps_sq=0.0))
    sample = gen_location(spec, _stream())
    assert_allclose(sample.y, 0.0, rtol=0, atol=0)
    assert np.all(sample.X == 1.0)


def test_location_noiseless_break():
    spec = _spec(
        T=4, s=0.5, params_pre=(0.0,), params_post=(2.0,), cov=InnovCov(sigma_eps_sq=0.0)
    )
    sample = gen_location(spec, _stream())
    assert_allclose(sample.y, [0.0, 0.0, 2.0, 2.0], rtol=0, atol=0)


def test_location_regime_boundary_exact():
    # coefficient at t = k comes from the pre regime, at t = k + 1 from post
    spec = _spec(
        T=10, s=0.31, params_pre=(-1.0,), params_post=(5.0,), cov=InnovCov(sigma_eps_sq=0.0)
    )
    sample = gen_location(spec, _stream())
    assert_allclose(sample.y[:3], -1.0, rtol=0, atol=0)
    assert_allclose(sample.y[3:], 5.0, rtol=0, atol=0)


def test_location_null_moments():
    spec = _spec(T=10_000)
    sample = gen_location(spec, _stream(0))
    assert -0.03 < sample.y.mean() < 0.03
    assert 0.95 < sample.y.var() < 1.05


# ---------------------------------------------------------------------------
# linear regression
# ---------------------------------------------------------------------------

def test_linear_regression_noiseless_is_exact_linear_combination():
    spec = _spec(
        family="linear_regression",
        params_pre=(1.0, 2.0),
        params_post=(1.0, 2.0),
        cov=InnovCov(sigma_eps_sq=0.0),
        T=50,
    )
    sample = generate(spec, _stream())
    assert np.all(sample.X[:, 0] == 1.0)
    assert_allclose(sample.y, sample.X @ np.array([1.0, 2.0]), rtol=0, atol=0)


def test_linear_regression_intercept_break_jumps_mean():
    spec = _spec(
        family="linear_regression",
        T=40,
        s=0.5,
        params_pre=(0.0, 0.0),
        params_post=(1.0, 0.0),
        cov=InnovCov(sigma_eps_sq=0.0),
    )
    sample = generate(spec, _stream())
    assert_allclose(sample.y[:20], 0.0, rtol=0, atol=0)
    assert_allclose(sample.y[20:], 1.0, rtol=0, atol=0)


def test_linear_regression_coverage_oracle():
    # null fit recovers the truth within 3 standard errors in 99%+ of reps
    spec = _spec(
        family="linear_regression", T=500, params_pre=(1.0, -0.5), params_post=(1.0, -0.5)
    )
    hits = 0
    n_reps = 1000
    for r in range(n_reps):
        sample = generate(spec, replication_stream(77, r))
        xtx = sample.X.T @ sample.X
        beta = np.linalg.solve(xtx, sample.X.T @ sample.y)
        resid = sample.y - sample.X @ beta
        sigma2 = resid @ resid / sample.n_obs
        se = np.sqrt(np.diag(sigma2 * np.linalg.inv(xtx)))
        if np.all(np.abs(beta - np.array([1.0, -0.5])) < 3 * se):
            hits += 1
    assert hits / n_reps >= 0.99


# ---------------------------------------------------------------------------
# cointegration
# ---------------------------------------------------------------------------

def test_cointegration_regressor_accumulates_innovations():
    spec = _spec(family="cointegration", T=100)
    sample = gen_cointegration(spec, _stream())
    assert_allclose(sample.X[:, 0], np.cumsum(sample.innovations["eps"]), rtol=0, atol=0)


def test_cointegration_respects_initial_condition():
    spec = _spec(family="cointegration", T=20, x0=5.0)
    sample = gen_cointegration(spec, _stream())
    assert_allclose(sample.X[:, 0], 5.0 + np.cumsum(sample.innovations["eps"]), rtol=1e-12)


def test_cointegration_truth_metadata_reports_endogeneity():
    spec = _spec(family="cointegration", cov=InnovCov(1.0, 1.0, 0.5))
    sample = gen_cointegration(spec, _stream())
    assert sample.truth.cov.endogeneity_slope == 0.5
    assert sample.truth.cov.conditional_u_var == 0.75


def test_cointegration_diffusion_scale_oracle():
    # Var(x_T / sqrt(T)) converges to the innovation variance
    spec = _spec(family="cointegration", T=500, cov=InnovCov(sigma_eps_sq=2.0))
    # the same 10000 samples as one gen_cointegration call per stream, drawn as stacks
    ends = np.concatenate([
        generate(spec, replication_stream(5, range(lo, lo + 1000))).X[:, -1, 0] / np.sqrt(spec.T)
        for lo in range(0, 10_000, 1000)
    ])
    assert_allclose(ends.var(), 2.0, rtol=0.05)


# ---------------------------------------------------------------------------
# predictive regression with persistent regressor
# ---------------------------------------------------------------------------

def test_predictive_unit_root_regressor_is_random_walk():
    spec = _spec(family="predictive_lur", T=50, persistence_c=0.0)
    sample = generate(spec, _stream())
    u = sample.innovations["u"]
    walk = np.concatenate([[0.0], np.cumsum(u)[:-1]])
    assert_allclose(sample.X[:, 1], walk, rtol=0, atol=0)
    assert np.all(sample.X[:, 0] == 1.0)


def test_predictive_root_formula():
    # c = -5, T = 100 gives root 0.95; check the recursion row by row
    spec = _spec(family="predictive_lur", T=100, persistence_c=-5.0)
    sample = generate(spec, _stream())
    x_lag = sample.X[:, 1]
    u = sample.innovations["u"]
    assert_allclose(x_lag[1:], 0.95 * x_lag[:-1] + u[:-1], rtol=1e-12)


def test_predictive_intercept_and_slope_enter_response():
    spec = _spec(
        family="predictive_lur",
        T=50,
        persistence_c=-10.0,
        params_pre=(0.7,),
        params_post=(0.7,),
        intercept=2.5,
    )
    sample = generate(spec, _stream())
    eps = sample.innovations["eps"]
    assert_allclose(sample.y, 2.5 + 0.7 * sample.X[:, 1] + eps, rtol=1e-12)


def test_predictive_endogeneity_wiring():
    spec = _spec(
        family="predictive_lur", T=500, persistence_c=0.0, cov=InnovCov(1.0, 1.0, -0.95)
    )
    rhos = []
    for r in range(20):
        sample = generate(spec, replication_stream(9, r))
        rhos.append(np.corrcoef(sample.innovations["eps"], sample.innovations["u"])[0, 1])
    assert -0.97 < np.mean(rhos) < -0.93


# ---------------------------------------------------------------------------
# autoregression
# ---------------------------------------------------------------------------

def test_ar1_lagged_design_and_recursion():
    spec = _spec(family="ar1", params_pre=(0.9,), params_post=(0.9,), T=60)
    sample = generate(spec, _stream())
    u = sample.innovations["u"]
    assert_allclose(sample.y, 0.9 * sample.X[:, 0] + u, rtol=1e-12)


def test_ar1_regime_switching_root():
    spec = _spec(
        family="ar1", T=40, s=0.5, params_pre=(0.2,), params_post=(0.95,)
    )
    sample = generate(spec, _stream())
    u = sample.innovations["u"]
    k = spec.break_index
    roots = np.where(np.arange(spec.T) < k, 0.2, 0.95)
    assert_allclose(sample.y, roots * sample.X[:, 0] + u, rtol=1e-12)


# ---------------------------------------------------------------------------
# cross-family invariants
# ---------------------------------------------------------------------------

@pytest.mark.parametrize(
    "family,kw",
    [
        ("location", {}),
        ("linear_regression", {"params_pre": (1.0, 2.0), "params_post": (1.0, 2.0)}),
        ("cointegration", {"params_pre": (0.3,), "params_post": (0.3,)}),
        ("predictive_lur", {"persistence_c": -2.0}),
        ("ar1", {"params_pre": (0.5,), "params_post": (0.5,)}),
    ],
)
def test_null_is_invariant_to_break_fraction(family, kw):
    a = generate(_spec(family=family, T=64, s=0.25, **kw), _stream(4))
    b = generate(_spec(family=family, T=64, s=0.75, **kw), _stream(4))
    assert np.array_equal(a.y, b.y)
    assert np.array_equal(a.X, b.X)


def test_generation_is_pure():
    spec = _spec(T=32)
    a = generate(spec, _stream(1))
    b = generate(spec, _stream(1))
    assert np.array_equal(a.y, b.y)


# ---------------------------------------------------------------------------
# config and CSV round trips
# ---------------------------------------------------------------------------

def test_config_round_trip():
    spec = _spec(
        family="predictive_lur",
        T=250,
        s=0.4,
        params_pre=(0.0,),
        params_post=(0.5,),
        cov=InnovCov(1.0, 2.0, -0.7),
        persistence_c=-5.0,
        intercept=0.3,
        x0=1.0,
    )
    assert spec_from_config(spec_to_config(spec)) == spec


def test_config_rejects_unknown_keys():
    with pytest.raises(SpecError, match="bogus"):
        spec_from_config({"family": "location", "T": 10, "bogus": 1})


def test_config_requires_family_and_size():
    with pytest.raises(SpecError, match="family"):
        spec_from_config({"T": 10})
    with pytest.raises(SpecError, match="'T'"):
        spec_from_config({"family": "location"})


def test_ar1_config_derives_root_from_persistence():
    spec = spec_from_config({"family": "ar1", "T": 100, "c": -5.0})
    assert spec.params_pre == (0.95,)
    assert spec.params_post == (0.95,)


def test_sample_csv_round_trip_is_exact(tmp_path):
    spec = _spec(family="linear_regression", T=30, params_pre=(0.1, -2.0), params_post=(0.1, -2.0))
    sample = generate(spec, _stream())
    path = tmp_path / "sample.csv"
    sample_to_csv(sample, path)
    loaded = sample_from_csv(path)
    assert np.array_equal(loaded.y, sample.y)
    assert np.array_equal(loaded.X, sample.X)


def test_sample_csv_missing_file_named():
    with pytest.raises(DataError, match="missing.csv"):
        sample_from_csv("missing.csv")


def test_sample_csv_rejects_bad_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("a,b,c\n1,2,3\n")
    with pytest.raises(DataError, match="header"):
        sample_from_csv(path)


def test_sample_shape_validation():
    with pytest.raises(DataError):
        Sample(y=np.zeros(3), X=np.zeros((4, 1)))


# ---------------------------------------------------------------------------
# stacked generation: every row is the replication's own sample
# ---------------------------------------------------------------------------

_BLOCK_CELLS = {
    "location": {"family": "location", "T": 30, "s": 0.4, "beta_pre": [0.0], "beta_post": [1.0], "sigma_eps_sq": 2.0},
    "linear_regression": {"family": "linear_regression", "T": 30, "s": 0.5, "beta_pre": [1.0, 0.5, -0.2],
                          "beta_post": [0.0, 1.5, 0.3]},
    "linear_regression_p1": {"family": "linear_regression", "T": 30, "beta_pre": [1.0]},
    "cointegration": {"family": "cointegration", "T": 30, "sigma_eps_u": 0.5, "x0": 2.0},
    "predictive_lur": {"family": "predictive_lur", "T": 30, "c": -5.0, "sigma_eps_u": -0.9, "mu": 0.3, "x0": 1.0},
    "ar1": {"family": "ar1", "T": 30, "c": -3.0},
    "ar1_break": {"family": "ar1", "T": 30, "s": 0.5, "beta_pre": [0.5], "beta_post": [1.1], "x0": 0.7},
}


@pytest.mark.parametrize("cell", sorted(_BLOCK_CELLS))
def test_stacked_rows_equal_single_sample_generation(cell):
    spec = spec_from_config(_BLOCK_CELLS[cell])
    stack = generate(spec, replication_stream(41, range(5, 17)))
    assert len(stack) == 12
    assert stack.X.shape == (12, spec.T, spec.design_dim)
    for i in range(12):
        one = generate(spec, replication_stream(41, 5 + i))
        row = stack.sample(i)
        assert row.y.tobytes() == one.y.tobytes()
        assert row.X.tobytes() == one.X.tobytes()
        assert row.truth == spec
        assert sorted(row.innovations) == sorted(one.innovations)
        for name, series in one.innovations.items():
            assert row.innovations[name].tobytes() == series.tobytes()
    # a sub-stack is the same rows, whatever range it is cut from
    assert stack.rows(3, 7).y.tobytes() == generate(spec, replication_stream(41, range(8, 12))).y.tobytes()
