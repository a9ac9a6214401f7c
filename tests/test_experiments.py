"""Monte Carlo engine: determinism, harness self-tests, and bookkeeping."""

import json
import logging
from unittest import mock

import numpy as np
import pytest

from breaklab.break_tests import cusum_path
from breaklab.dgp import DgpSpec, generate, spec_from_config
from breaklab.errors import DegenerateSampleError, SpecError, TableLookupError
from breaklab.estimators import ols_fit
from breaklab.experiments import (
    STAT_RECIPES,
    ExperimentSpec,
    TableSource,
    experiment_from_config,
    experiment_to_config,
    register_statistic,
    report_to_csv,
    required_table_keys,
    resolve_tables,
    run_experiment,
    size_distortion_study,
    paths_to_csv,
)
from breaklab.limit_lab import save_table, tabulate
from breaklab.rng import replication_stream
from shared import TABULATION_ALLOWANCE, traced_peak


def _location_null(T=60):
    return DgpSpec(family="location", T=T, s=0.0)


def _small_spec(**kw):
    base = dict(
        dgp_grid=(_location_null(),),
        stat_kinds=("cusum",),
        nu=None,
        level=0.05,
        n_reps=200,
        table_source=TableSource(mode="inline", n_reps=1000, n_steps=200),
        master_seed=11,
    )
    base.update(kw)
    return ExperimentSpec(**base)


@pytest.fixture
def stat_registry():
    saved = dict(STAT_RECIPES)
    yield STAT_RECIPES
    STAT_RECIPES.clear()
    STAT_RECIPES.update(saved)


# ---------------------------------------------------------------------------
# spec validation and config round trip
# ---------------------------------------------------------------------------

def test_spec_requires_enough_replications():
    with pytest.raises(SpecError):
        _small_spec(n_reps=99)


def test_spec_rejects_unknown_statistic():
    with pytest.raises(SpecError):
        _small_spec(stat_kinds=("nosuch",))


def test_spec_rejects_empty_grid():
    with pytest.raises(SpecError):
        _small_spec(dgp_grid=())


@pytest.mark.parametrize(
    "source,named",
    [
        ({"mode": "inline", "paths": ["no/such/table.json"]},
         "table_source mode 'inline' does not read paths, got ['no/such/table.json']"),
        ({"mode": "precomputed", "paths": ["t.json"], "n_reps": 5},
         "table_source mode 'precomputed' does not read n_reps, got 5"),
    ],
    ids=["inline-paths", "precomputed-n-reps"],
)
def test_a_table_source_refuses_a_field_its_mode_does_not_read(source, named):
    cfg = experiment_to_config(_small_spec())
    cfg["table_source"] = source
    with pytest.raises(SpecError) as info:
        experiment_from_config(cfg)
    assert str(info.value) == named


def test_table_source_validation():
    with pytest.raises(SpecError):
        TableSource(mode="nosuch")
    with pytest.raises(SpecError):
        TableSource(mode="precomputed", paths=())


def test_experiment_config_round_trip():
    spec = _small_spec(stat_kinds=("cusum", "wald"), nu=0.2)
    assert experiment_from_config(experiment_to_config(spec)) == spec


def test_experiment_config_rejects_unknown_key():
    cfg = experiment_to_config(_small_spec())
    cfg["bogus"] = 1
    with pytest.raises(SpecError, match="bogus"):
        experiment_from_config(cfg)


def test_experiment_config_must_be_an_object():
    with pytest.raises(SpecError, match="JSON object"):
        experiment_from_config([experiment_to_config(_small_spec())])


def test_a_cell_with_no_candidate_split_is_refused_before_any_draw(tmp_path, capfd, spy, drawn):
    # T=5 with p=3 leaves no split k with p <= k <= T - p at any trimming
    from breaklab import limit_lab
    from breaklab.cli import main

    cell = {"family": "linear_regression", "T": 5, "beta_pre": [1.0, 0.5, 0.2]}
    with pytest.raises(SpecError, match="no candidate break indices for T=5, p=3"):
        _small_spec(dgp_grid=(_location_null(), spec_from_config(cell)))
    tabulated = spy(limit_lab, "tabulate")
    cfg = experiment_to_config(_small_spec(stat_kinds=("cusum", "wald")))
    cfg["dgp_grid"].append(cell)
    (tmp_path / "spec.json").write_text(json.dumps(cfg))
    out = tmp_path / "out.csv"
    assert main(["experiment", "--spec", str(tmp_path / "spec.json"), "--out", str(out)]) == 2
    err = capfd.readouterr().err
    assert "T=5, p=3" in err and "Traceback" not in err
    assert drawn == tabulated == [] and not out.exists()


def test_an_infeasible_cell_is_named_by_grid_index_family_and_statistic(tmp_path, capfd):
    from breaklab.cli import main

    cell = {"family": "linear_regression", "T": 5, "beta_pre": [1.0, 0.5, 0.2]}
    want = (
        "dgp_grid[1] (linear_regression, T=5) with cusum: "
        "trimming nu=0.0 leaves no candidate break indices for T=5, p=3"
    )
    with pytest.raises(SpecError) as info:
        _small_spec(dgp_grid=(_location_null(), spec_from_config(cell)))
    assert str(info.value) == want
    cfg = experiment_to_config(_small_spec(stat_kinds=("cusum", "wald")))
    cfg["dgp_grid"].append(cell)
    (tmp_path / "spec.json").write_text(json.dumps(cfg))
    assert main(["experiment", "--spec", str(tmp_path / "spec.json"), "--out", str(tmp_path / "out.csv")]) == 2
    assert want in capfd.readouterr().err


@pytest.mark.parametrize(
    "cell,intercept_only",
    [
        ({"family": "location", "T": 60}, True),
        ({"family": "linear_regression", "T": 60, "beta_pre": [1.0]}, True),
        ({"family": "linear_regression", "T": 60, "beta_pre": [1.0, 0.5]}, False),
        ({"family": "cointegration", "T": 60}, False),
        ({"family": "predictive_lur", "T": 60}, False),
        ({"family": "ar1", "T": 60}, False),
    ],
    ids=["location", "linear-regression-p1", "linear-regression-p2", "cointegration", "predictive-lur", "ar1"],
)
def test_zmean_is_refused_on_a_cell_whose_design_is_not_intercept_only(
    tmp_path, capfd, spy, drawn, cell, intercept_only
):
    # zmean is defined on the single all-ones column alone: any other design is refused
    # by its grid entry before any table or draw, rather than failing every replication
    from breaklab import limit_lab
    from breaklab.cli import main

    dspec = spec_from_config(cell)
    X = generate(dspec, replication_stream(1, range(2))).X
    assert dspec.intercept_only == intercept_only == (X.shape[-1] == 1 and bool(np.all(X == 1.0)))
    if intercept_only:
        _small_spec(dgp_grid=(dspec,), stat_kinds=("zmean", "cusum"))
        return
    drawn.clear()  # the sample generated above is no draw of the run
    tabulated = spy(limit_lab, "tabulate")
    cfg = experiment_to_config(_small_spec(stat_kinds=("zmean", "cusum")))
    cfg["dgp_grid"].append(cell)
    (tmp_path / "spec.json").write_text(json.dumps(cfg))
    out = tmp_path / "out.csv"
    assert main(["experiment", "--spec", str(tmp_path / "spec.json"), "--out", str(out)]) == 2
    err = capfd.readouterr().err
    assert f"dgp_grid[1] ({cell['family']}, T=60) with zmean: statistic requires the intercept-only model" in err
    assert drawn == tabulated == [] and not out.exists()


def test_per_stat_default_trimming():
    spec = _small_spec(stat_kinds=("cusum", "wald"))
    assert spec.nu_for("cusum") == 0.0
    assert spec.nu_for("wald") == 0.15
    assert _small_spec(nu=0.1).nu_for("cusum") == 0.1


# ---------------------------------------------------------------------------
# critical-value resolution
# ---------------------------------------------------------------------------

def test_required_table_keys_cover_design_dimension():
    grid = (
        _location_null(),
        DgpSpec(
            family="predictive_lur", T=60, s=0.0, params_pre=(0.0,), params_post=(0.0,)
        ),
    )
    spec = _small_spec(dgp_grid=grid, stat_kinds=("cusum", "wald"))
    keys = required_table_keys(spec)
    assert ("supabsbb", 1, 0.0) in keys
    assert ("supqp", 1, 0.15) in keys  # wald on the intercept-only design
    assert ("supqp", 2, 0.15) in keys  # wald on [1, x_lag]


def test_resolve_precomputed_tables(tmp_path):
    table = tabulate("supabsbb", [0.95], 1000, n_steps=200, master_seed=1)
    path = tmp_path / "bb.json"
    save_table(table, path)
    spec = _small_spec(table_source=TableSource(mode="precomputed", paths=(str(path),)))
    resolved = resolve_tables(spec)
    assert resolved[("supabsbb", 1, 0.0)] == table


def test_resolve_missing_precomputed_entry(tmp_path):
    table = tabulate("supabsbb", [0.95], 1000, n_steps=200, master_seed=1, nu=0.1)
    path = tmp_path / "bb.json"
    save_table(table, path)
    spec = _small_spec(table_source=TableSource(mode="precomputed", paths=(str(path),)))
    with pytest.raises(TableLookupError):
        resolve_tables(spec)  # trimming mismatch: nu 0.1 != 0.0


def test_missing_table_level_fails_before_any_replication(tmp_path, monkeypatch):
    from breaklab import experiments

    table = tabulate("supabsbb", [0.90], 1000, n_steps=200, master_seed=1)
    path = tmp_path / "bb.json"
    save_table(table, path)
    spec = _small_spec(table_source=TableSource(mode="precomputed", paths=(str(path),)))
    generated = []
    real_generate = experiments.dgp.generate
    monkeypatch.setattr(
        experiments.dgp, "generate", lambda *a: generated.append(a) or real_generate(*a)
    )
    with pytest.raises(TableLookupError, match="level 0.95"):
        run_experiment(spec)
    assert generated == []


def test_missing_table_level_fails_before_any_stacked_draw(tmp_path, drawn):
    table = tabulate("supabsbb", [0.90], 1000, n_steps=200, master_seed=1)
    path = tmp_path / "bb.json"
    save_table(table, path)
    spec = _small_spec(table_source=TableSource(mode="precomputed", paths=(str(path),)))
    drawn.clear()  # the table's own draws
    with pytest.raises(TableLookupError, match="level 0.95"):
        run_experiment(spec)
    assert drawn == []
    # the spy sees the engine's draws: with a covering table it is called
    table = tabulate("supabsbb", [0.95], 1000, n_steps=200, master_seed=1)
    save_table(table, path)
    drawn.clear()
    run_experiment(spec)
    assert [call.args[0].stream_ids for call in drawn] == [range(0, 200)]


def _two_design_spec(n_reps, n_steps):
    # cusum and wald over a p=1 and a p=2 cell: supabsbb p=1, supqp p=1 and supqp p=2
    cell = DgpSpec(family="predictive_lur", T=60, s=0.0, params_pre=(0.0,), params_post=(0.0,))
    return _small_spec(dgp_grid=(_location_null(), cell), stat_kinds=("cusum", "wald"),
                       table_source=TableSource(mode="inline", n_reps=n_reps, n_steps=n_steps))


def test_inline_tables_are_drawn_once_at_the_widest_shape(monkeypatch, drawn):
    from breaklab import limit_lab

    spec = _two_design_spec(1500, 200)
    alone = {key: tabulate(key[0], [0.95], 1500, n_steps=200, master_seed=11, p=key[1], nu=key[2])
             for key in required_table_keys(spec)}
    drawn.clear()  # the tables drawn alone
    monkeypatch.setattr(limit_lab, "_BLOCK_BYTES", 8 * 2 * 200 * 400)  # 400 draws of the widest shape
    assert resolve_tables(spec) == alone
    assert drawn == [mock.call(mock.ANY, (2, 200))] * 4  # ceil(1500 / 400), each shared by the three keys


def test_inline_table_memory_is_bounded_by_the_block_budget():
    # the shared draw and its workspace hold three budgets at the widest shape,
    # whatever the number of keys; half a budget covers the draws and the rest
    import tracemalloc

    from breaklab import limit_lab

    spec = _two_design_spec(4096, 2000)
    tracemalloc.start()
    try:
        resolve_tables(spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3.5 * limit_lab._BLOCK_BYTES


def test_inline_tables_hold_one_budget_of_normals_plus_tile_scratch():
    # the shared draw of every key and one workspace of tile scratch, whatever the number of keys
    from breaklab import limit_lab

    bound = limit_lab._BLOCK_BYTES + 3 * limit_lab._TILE_BYTES + TABULATION_ALLOWANCE
    assert traced_peak(resolve_tables, _two_design_spec(4096, 2000)) < bound


@pytest.mark.parametrize("paths", ["t.json", [1], {"a": "t.json"}])
def test_table_source_paths_must_be_a_list_of_strings(paths):
    cfg = experiment_to_config(_small_spec())
    cfg["table_source"] = {"mode": "precomputed", "paths": paths}
    with pytest.raises(SpecError, match="table_source key 'paths'"):
        experiment_from_config(cfg)


def test_explosive_cell_logs_its_rank_deficient_pooled_designs(caplog):
    spec = experiment_from_config({
        "n_reps": 100,
        "stat_kinds": ["cusum", "wald"],
        "table_source": {"mode": "inline", "n_reps": 1000, "n_steps": 50},
        "dgp_grid": [{"family": "predictive_lur", "T": 500, "c": 240.0}, {"family": "location", "T": 30}],
    })
    with caplog.at_level(logging.INFO, logger="breaklab.experiments"):
        report = run_experiment(spec)
    explosive, location = report.rows[:2], report.rows[2:]
    assert [row.failed for row in explosive] == [100, 100]
    assert all(np.isnan(row.reject_rate) for row in explosive)
    assert [row.failed for row in location] == [0, 0]
    cells = [r.getMessage() for r in caplog.records if r.getMessage().startswith(("predictive_lur", "location"))]
    assert len(cells) == 2
    assert cells[0].endswith("; 100/100 pooled designs rank deficient")
    assert "rank deficient" not in cells[1]


# ---------------------------------------------------------------------------
# determinism
# ---------------------------------------------------------------------------

def test_report_identical_across_reruns():
    spec = _small_spec()
    a = run_experiment(spec)
    b = run_experiment(spec)
    assert a.rows == b.rows


def test_report_identical_across_worker_counts(tmp_path):
    spec = _small_spec(n_reps=300)
    serial = run_experiment(spec, workers=1)
    parallel = run_experiment(spec, workers=3)
    assert serial.rows == parallel.rows
    f1, f2 = tmp_path / "serial.csv", tmp_path / "parallel.csv"
    report_to_csv(serial, f1)
    report_to_csv(parallel, f2)
    assert f1.read_bytes() == f2.read_bytes()


def test_a_lone_chunk_is_cut_for_every_worker(tmp_path, monkeypatch):
    # one draw shape and 100 replications make a single chunk; with more
    # workers than chunks the replications are cut into nearly equal ranges
    import concurrent.futures

    ranges = []

    class InlinePool:  # records each payload's replication range, runs in-process
        def __init__(self, max_workers):
            pass

        def map(self, fn, payloads):
            payloads = list(payloads)
            ranges.append([payload[3:5] for payload in payloads])
            return map(fn, payloads)

        def shutdown(self, cancel_futures):
            pass

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlinePool)
    spec = _small_spec(n_reps=100, stat_kinds=("cusum", "wald"))
    files = {}
    for workers, want in ((1, None), (2, [(0, 50), (50, 100)]), (3, [(0, 33), (33, 66), (66, 100)])):
        report = run_experiment(spec, workers=workers, paths_sample=3)
        if want is not None:
            assert ranges.pop() == want
        report_to_csv(report, tmp_path / "r.csv")
        paths_to_csv(report, tmp_path / "p.csv")
        files[workers] = (tmp_path / "r.csv").read_bytes(), (tmp_path / "p.csv").read_bytes()
    assert files[1] == files[2] == files[3]


def test_the_pool_starts_no_worker_without_a_payload(monkeypatch):
    # 100 replications of one draw shape make at most 100 payloads: a forked pool of
    # 300 would start 300 processes at its first submit
    import concurrent.futures

    pools = []

    class InlinePool:  # records its worker count and payload count, runs in-process
        def __init__(self, max_workers):
            pools.append([max_workers])

        def map(self, fn, payloads):
            payloads = list(payloads)
            pools[-1].append(len(payloads))
            return map(fn, payloads)

        def shutdown(self, cancel_futures):
            pass

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlinePool)
    run_experiment(_small_spec(n_reps=100), workers=300)
    assert pools == [[100, 100]]


def test_a_payload_is_one_stack(tmp_path, monkeypatch):
    # a T=500 predictive_lur replication stacks within STACK_BYTES 174 at a
    # time, fewer than CHUNK_SIZE; a T=100 location replication 1310
    import concurrent.futures

    from breaklab import experiments

    ranges = []
    run_cells = experiments._run_cells

    def recording(payload):
        ranges.append((payload[0][0]["family"], *payload[3:5]))
        return run_cells(payload)

    class InlinePool:  # runs every payload in-process
        def __init__(self, max_workers):
            pass

        def map(self, fn, payloads):
            return map(fn, payloads)

        def shutdown(self, cancel_futures):
            pass

    monkeypatch.setattr(experiments, "_run_cells", recording)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlinePool)
    lur = spec_from_config({"family": "predictive_lur", "T": 500, "c": -5.0, "sigma_eps_u": -0.5})
    spec = _small_spec(dgp_grid=(lur, _location_null(T=100)), n_reps=400)
    files = {}
    for workers in (1, 2, 3):
        ranges.clear()
        report = run_experiment(spec, workers=workers, paths_sample=3)
        for dspec in spec.dgp_grid:
            step = min(experiments.CHUNK_SIZE, experiments.stack_size(dspec.T, dspec.design_dim))
            got = [(lo, hi) for family, lo, hi in ranges if family == dspec.family]
            sizes = [hi - lo for lo, hi in got]
            assert [lo for lo, _ in got] == [0] + [hi for _, hi in got[:-1]] and got[-1][1] == 400
            assert len(got) == -(-400 // step) and max(sizes) <= step and max(sizes) - min(sizes) <= 1
        report_to_csv(report, tmp_path / "r.csv")
        paths_to_csv(report, tmp_path / "p.csv")
        files[workers] = (tmp_path / "r.csv").read_bytes(), (tmp_path / "p.csv").read_bytes()
    assert experiments.stack_size(500, 2) == 174
    assert files[1] == files[2] == files[3]


def test_each_cell_of_a_payload_is_fitted_once(monkeypatch):
    # location at T=200 and linear_regression at T=100, p=2 share one payload
    # of 200 replications; a T=500 predictive_lur payload holds at most 174
    from breaklab import experiments

    fitted, served = [], []
    run_cells = experiments._run_cells

    def recording(payload):
        served.extend([payload[4] - payload[3]] * len(payload[0]))
        return run_cells(payload)

    def counting(stack):
        fitted.append(len(stack))
        return ols_fit(stack)

    monkeypatch.setattr(experiments, "_run_cells", recording)
    monkeypatch.setattr(experiments, "ols_fit", counting)
    grid = (
        _location_null(T=200),
        spec_from_config({"family": "linear_regression", "T": 100, "beta_pre": [1.0, 0.5]}),
        spec_from_config({"family": "predictive_lur", "T": 500, "c": -5.0}),
    )
    run_experiment(_small_spec(dgp_grid=grid, stat_kinds=("cusum", "wald"), n_reps=400))
    assert sorted(fitted) == sorted(served) == [133, 133, 134, 200, 200, 200, 200]


# ---------------------------------------------------------------------------
# harness self-tests with stub statistics
# ---------------------------------------------------------------------------

class _FixedOutcome:
    def __init__(self, sup):
        self.sup_value = sup
        self.ks = np.array([1])
        self.path = np.array([sup])


def test_always_reject_and_always_accept_stubs(stat_registry):
    register_statistic("_always_reject", lambda s, nu, cache: _FixedOutcome(np.inf))
    register_statistic("_always_accept", lambda s, nu, cache: _FixedOutcome(-np.inf))
    spec = _small_spec(stat_kinds=("_always_reject", "_always_accept"))
    report = run_experiment(spec)
    by_stat = {row.stat: row for row in report.rows}
    assert by_stat["_always_reject"].reject_rate == 1.0
    assert by_stat["_always_accept"].reject_rate == 0.0
    assert by_stat["_always_reject"].failed == 0


def test_failed_replications_counted_not_dropped(stat_registry):
    def flaky(sample, nu, cache):
        if sample.y[0] < 0:
            raise DegenerateSampleError("stub failure")
        return _FixedOutcome(np.inf)

    register_statistic("_flaky", flaky)
    spec = _small_spec(stat_kinds=("_flaky",), n_reps=200)
    report = run_experiment(spec)
    row = report.rows[0]
    assert 0 < row.failed < 200
    assert row.reject_rate == 1.0  # every successful rep rejects
    # the failure pattern is a pure function of the seed
    expected_failed = sum(
        1
        for r in range(200)
        if generate(_location_null(), replication_stream(11, r)).y[0] < 0
    )
    assert row.failed == expected_failed


def test_a_path_is_written_only_for_a_defined_sup(stat_registry):
    # the stub fails without raising: a NaN sup counts as failed, and its path is not sampled
    register_statistic("_nan_flaky", lambda s, nu, cache: _FixedOutcome(np.nan if s.y[0] < 0 else 1.0))
    report = run_experiment(_small_spec(stat_kinds=("_nan_flaky",), master_seed=3), paths_sample=10)
    defined = [r for r in range(10) if generate(_location_null(), replication_stream(3, r)).y[0] >= 0]
    assert 0 < len(defined) < 10
    assert [rep for _, _, rep, _, _ in report.paths] == defined
    assert all(np.isfinite(path).all() for *_, path in report.paths)


def test_trimming_monotonicity_per_replication():
    # wider trimming scans a subset of indices, so its sup can never exceed
    # the untrimmed sup on the same sample
    for r in range(50):
        sample = generate(_location_null(80), replication_stream(13, r))
        fit = ols_fit(sample)
        assert (
            cusum_path(fit, nu=0.2).sup_value
            <= cusum_path(fit, nu=0.0).sup_value + 1e-15
        )


# ---------------------------------------------------------------------------
# study wrapper and outputs
# ---------------------------------------------------------------------------

def test_power_oracle_large_break_always_rejected():
    # a one-standard-deviation mean shift at mid-sample with T = 500 is
    # detected essentially always at the 5% level
    alternative = DgpSpec(
        family="location", T=500, s=0.5, params_pre=(0.0,), params_post=(1.0,)
    )
    spec = _small_spec(
        dgp_grid=(alternative,),
        n_reps=200,
        table_source=TableSource(mode="inline", n_reps=2000, n_steps=500),
    )
    report = run_experiment(spec)
    assert report.rows[0].reject_rate > 0.99


def test_size_distortion_study_shape_and_corner():
    report = size_distortion_study(
        c_grid=(-1.0, -50.0),
        corr_grid=(0.0, -0.9),
        T=50,
        stat_kinds=("cusum",),
        n_reps=100,
        master_seed=19,
        table_source=TableSource(mode="inline", n_reps=1000, n_steps=100),
    )
    assert len(report.rows) == 2 * 2 * 1
    cells = {(row.c, row.corr) for row in report.rows}
    assert cells == {(-1.0, 0.0), (-1.0, -0.9), (-50.0, 0.0), (-50.0, -0.9)}
    for row in report.rows:
        assert row.family == "predictive_lur"
        assert 0.0 <= row.reject_rate <= 1.0


def test_report_csv_schema(tmp_path):
    report = run_experiment(_small_spec(n_reps=100))
    out = tmp_path / "report.csv"
    report_to_csv(report, out)
    lines = out.read_text().strip().splitlines()
    assert lines[0] == (
        "family,T,s,c,corr,stat,nu,level,n_reps,failed,reject_rate,mc_se,sup_q50,sup_q95"
    )
    assert len(lines) == 1 + len(report.rows)
    assert report.provenance["schema_version"] == "1"
    assert report.provenance["experiment"]["master_seed"] == 11


def test_paths_sample_dump(tmp_path):
    report = run_experiment(_small_spec(n_reps=100), paths_sample=3)
    assert len(report.paths) == 3
    reps = sorted(rep for _, _, rep, _, _ in report.paths)
    assert reps == [0, 1, 2]
    out = tmp_path / "paths.csv"
    paths_to_csv(report, out)
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "family,T,s,c,corr,stat,rep,k,value"
    # one row per scanned k per dumped path
    k_lo, k_hi = 1, 59
    assert len(lines) == 1 + 3 * (k_hi - k_lo + 1)


def test_inline_table_keys_are_all_checked_before_any_is_drawn(drawn):
    # nu = 0 suits the cusum's supabsbb table, which sorts first, but not the
    # wald's supqp table: the spec fails on supqp before supabsbb is drawn
    spec = _small_spec(stat_kinds=("cusum", "wald"), nu=0.0)
    with pytest.raises(SpecError, match="supqp"):
        run_experiment(spec)
    assert drawn == []


def test_an_overflowing_cell_fails_its_rows_without_numpy_warnings():
    # generation, the fit and the statistics all run under the engine's float policy
    import warnings

    huge = (1e308, 1e308)
    cell = DgpSpec(family="linear_regression", T=50, params_pre=huge, params_post=huge)
    spec = _small_spec(dgp_grid=(cell,), table_source=TableSource(mode="inline", n_reps=1000, n_steps=50))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        report = run_experiment(spec)
    assert [w for w in caught if issubclass(w.category, RuntimeWarning)] == []
    assert [(row.failed, row.n_reps) for row in report.rows] == [(spec.n_reps, spec.n_reps)]
