"""Acceptance suite.

Each test covers one acceptance criterion at its stated tolerance and prints
one PASS/FAIL line (visible with ``pytest -s`` or in captured output).
Monte Carlo quantities are checked against independent oracles: closed-form
moments, the alternating exponential series for the sup-bridge quantile, and
matched-resolution simulated limit draws.
"""

import json
import math
import time

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy import stats

from breaklab.break_tests import cusum_path, wald_path, z_mean_path
from breaklab.cli import main as cli_main
from breaklab.dgp import DgpSpec, generate, sample_from_csv
from breaklab.estimators import ols_fit, partial_sum_covariance, residual_partial_sums
from breaklab.experiments import (
    ExperimentSpec,
    TableSource,
    report_to_csv,
    run_experiment,
    size_distortion_study,
)
from breaklab.limit_lab import _draw_block, simulate_ou, tabulate
from breaklab.rng import limit_draw_stream, replication_stream
from shared import kolmogorov_quantile


class _criterion:
    """Prints the one-line verdict for an acceptance criterion."""

    def __init__(self, number, summary):
        self.number = number
        self.summary = summary

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        status = "PASS" if exc_type is None else "FAIL"
        print(f"[ACCEPTANCE {self.number}] {status}: {self.summary}")
        return False


N_REPS = 10_000
T_OBS = 500

LOCATION_NULL = DgpSpec(family="location", T=T_OBS, s=0.0)
REGRESSION_NULL = DgpSpec(
    family="linear_regression",
    T=T_OBS,
    s=0.0,
    params_pre=(1.0, 2.0),
    params_post=(1.0, 2.0),
)


@pytest.fixture(scope="module")
def null_sup_draws():
    """Sup statistics under the stationary nulls, 10^4 replications each."""
    loc_cusum = np.empty(N_REPS)
    reg_cusum = np.empty(N_REPS)
    reg_wald = np.empty(N_REPS)
    for r in range(N_REPS):
        sample = generate(LOCATION_NULL, replication_stream(0xC0FFEE, r))
        loc_cusum[r] = cusum_path(ols_fit(sample)).sup_value
    for r in range(N_REPS):
        sample = generate(REGRESSION_NULL, replication_stream(0xC0FFEE + 1, r))
        reg_cusum[r] = cusum_path(ols_fit(sample)).sup_value
        reg_wald[r] = wald_path(sample, nu=0.15).sup_value
    return {"loc_cusum": loc_cusum, "reg_cusum": reg_cusum, "reg_wald": reg_wald}


@pytest.fixture(scope="module")
def matched_oracle_draws():
    """Limit draws on a grid matching the sample size (n_steps = T)."""
    bb = np.concatenate(
        [
            _draw_block("supabsbb", 9001, lo, lo + 1000, T_OBS, 1, 0.0, None, None)
            for lo in range(0, N_REPS, 1000)
        ]
    )
    q2 = np.concatenate(
        [
            _draw_block("supqp", 9002, lo, lo + 1000, T_OBS, 2, 0.15, None, None)
            for lo in range(0, N_REPS, 1000)
        ]
    )
    return {"bb": bb, "q2": q2}


@pytest.fixture(scope="module")
def bb_table():
    return tabulate("supabsbb", [0.95], n_reps=20_000, n_steps=2000, master_seed=4242)


@pytest.fixture(scope="module")
def qp2_table():
    return tabulate(
        "supqp", [0.95], n_reps=20_000, n_steps=2000, master_seed=4243, p=2, nu=0.15
    )


# ---------------------------------------------------------------------------
# 1. exact identity suite
# ---------------------------------------------------------------------------

def test_criterion_1_exact_identities():
    with _criterion(
        1,
        "W(k) * (k/T)(1-k/T) = C(k)^2 and W(k) = Z(k) at every k, 1000 "
        "random intercept-only samples, 1e-10 relative",
    ):
        start = time.time()
        rng_master = 0xACCE9701
        count = 0
        for T in (20, 100):
            for r in range(500):
                sample = generate(
                    DgpSpec(family="location", T=T, s=0.0),
                    replication_stream(rng_master, r + (0 if T == 20 else 500)),
                )
                fit = ols_fit(sample)
                c = cusum_path(fit, nu=0.0)
                w = wald_path(sample, nu=0.0)
                z = z_mean_path(sample, nu=0.0)
                frac = w.ks / T
                assert_allclose(
                    w.path * frac * (1.0 - frac), c.path**2, rtol=1e-10, atol=1e-12
                )
                assert_allclose(w.path, z.path, rtol=1e-10, atol=1e-12)
                count += 1
        elapsed = time.time() - start
        assert count == 1000
        assert elapsed < 10.0, f"identity suite took {elapsed:.1f}s (budget 10s)"


# ---------------------------------------------------------------------------
# 2. bridge-limit convergence under stationary regressors
# ---------------------------------------------------------------------------

def test_criterion_2_bridge_limit_convergence(null_sup_draws, matched_oracle_draws):
    with _criterion(
        2,
        "sup-CUSUM matches sup|bridge| (KS < 0.02) and sup-Wald matches the "
        "trimmed squared-bridge functional (KS < 0.03) at T = 500",
    ):
        start = time.time()
        ks_loc = stats.ks_2samp(
            null_sup_draws["loc_cusum"], matched_oracle_draws["bb"]
        ).statistic
        ks_reg = stats.ks_2samp(
            null_sup_draws["reg_cusum"], matched_oracle_draws["bb"]
        ).statistic
        ks_wald = stats.ks_2samp(
            null_sup_draws["reg_wald"], matched_oracle_draws["q2"]
        ).statistic
        print(
            f"    KS distances: location cusum {ks_loc:.4f}, regression cusum "
            f"{ks_reg:.4f}, regression wald {ks_wald:.4f}"
        )
        assert ks_loc < 0.02
        assert ks_reg < 0.02
        assert ks_wald < 0.03
        assert time.time() - start < 300.0


# ---------------------------------------------------------------------------
# 3. empirical size under stationarity
# ---------------------------------------------------------------------------

def test_criterion_3_size_under_stationarity(null_sup_draws, bb_table, qp2_table):
    with _criterion(
        3, "empirical size at nominal 5% lies in (0.038, 0.062) for CUSUM and sup-Wald"
    ):
        cv_bb = bb_table.lookup(0.95)
        cv_q2 = qp2_table.lookup(0.95)
        size_cusum = float(np.mean(null_sup_draws["loc_cusum"] > cv_bb))
        size_wald = float(np.mean(null_sup_draws["reg_wald"] > cv_q2))
        print(f"    size: cusum {size_cusum:.4f}, wald {size_wald:.4f}")
        assert 0.038 < size_cusum < 0.062
        assert 0.038 < size_wald < 0.062


# ---------------------------------------------------------------------------
# 4. limit-functional oracles
# ---------------------------------------------------------------------------

def test_criterion_4_limit_functional_oracles(bb_table):
    with _criterion(
        4,
        "sup|bridge| 95% quantile in (1.34, 1.38) vs series oracle; "
        "E[integrated bridge^2] within 2% of 1/6; mean-reversion variances "
        "within 5%; exogenous t-limit is standard normal (KS < 0.02)",
    ):
        q95 = bb_table.lookup(0.95)
        series = kolmogorov_quantile(0.95)
        assert 1.34 < q95 < 1.38
        assert abs(series - 1.3581) < 1e-3
        assert abs(q95 - series) < 0.02

        cvm = np.concatenate(
            [
                _draw_block("cvmp1trace", 9003, lo, lo + 1000, 1000, 1, 0.0, None, None)
                for lo in range(0, 50_000, 1000)
            ]
        )
        assert abs(cvm.mean() - 1.0 / 6.0) < 0.02 / 6.0

        for c in (0.0, -1.0, -5.0):
            target = 1.0 if c == 0.0 else (math.exp(2 * c) - 1.0) / (2 * c)
            ends = np.array(
                [
                    simulate_ou(c, 8, limit_draw_stream(9004 + int(-c), i)).values[-1]
                    for i in range(10_000)
                ]
            )
            assert abs(ends.var() - target) < 0.05 * target

        from breaklab.limit_lab import simulate_cointegration_tstat_limit

        draws = np.array(
            [
                simulate_cointegration_tstat_limit(0.0, 400, limit_draw_stream(9010, i))
                for i in range(10_000)
            ]
        )
        ks = stats.kstest(draws, "norm").statistic
        print(f"    exogenous t-limit KS vs normal: {ks:.4f}")
        assert ks < 0.02


# ---------------------------------------------------------------------------
# 5. size distortions under local-to-unity persistence
# ---------------------------------------------------------------------------

def test_criterion_5_lur_distortion_study(tmp_path):
    with _criterion(
        5,
        "persistence study over c x corr completes deterministically; the "
        "effectively-stationary exogenous corner has size in (0.03, 0.07); "
        "full matrix emitted",
    ):
        c_grid = (0.0, -5.0, -20.0, -200.0)
        corr_grid = (0.0, -0.5, -0.95)
        table_source = TableSource(mode="inline", n_reps=20_000, n_steps=2000)
        report = size_distortion_study(
            c_grid=c_grid,
            corr_grid=corr_grid,
            T=T_OBS,
            stat_kinds=("cusum", "wald"),
            n_reps=5000,
            master_seed=0x5712E55,
            table_source=table_source,
        )
        assert len(report.rows) == len(c_grid) * len(corr_grid) * 2
        out = tmp_path / "size_distortion.csv"
        report_to_csv(report, out)
        assert out.exists()

        print("    rejection-rate matrix (stat, c, corr -> rate):")
        corner = {}
        for row in report.rows:
            print(
                f"      {row.stat:>5}  c={row.c:>7.1f}  corr={row.corr:>5.2f}  "
                f"rate={row.reject_rate:.4f}  (se {row.mc_se:.4f})"
            )
            if row.c == -200.0 and row.corr == 0.0:
                corner[row.stat] = row.reject_rate
        for stat, rate in corner.items():
            assert 0.03 < rate < 0.07, f"corner cell for {stat}: {rate}"

        # determinism: the corner cell rerun in isolation reproduces its rates
        solo = size_distortion_study(
            c_grid=(-200.0,),
            corr_grid=(0.0,),
            T=T_OBS,
            stat_kinds=("cusum", "wald"),
            n_reps=5000,
            master_seed=0x5712E55,
            table_source=table_source,
        )
        for row in solo.rows:
            assert row.reject_rate == corner[row.stat]


# ---------------------------------------------------------------------------
# 6. noiseless hand checks through the CLI
# ---------------------------------------------------------------------------

def test_criterion_6_noiseless_cli_round_trip(tmp_path, capsys):
    with _criterion(
        6,
        "step sample (0,0,2,2): CUSUM sup 1.0 at k=2, Wald and Z both 4.0 at "
        "k=2, partial sums (-1,-2,-1,0), moment matrix 0.375, via the CLI",
    ):
        data = tmp_path / "d.csv"
        code = cli_main(
            [
                "simulate", "--family", "location", "--T", "4", "--s", "0.5",
                "--mu-pre", "0", "--mu-post", "2", "--sigma-eps", "0",
                "--out", str(data),
            ]
        )
        assert code == 0
        capsys.readouterr()

        expected = {"cusum": 1.0, "wald": 4.0, "zmean": 4.0}
        for stat, sup in expected.items():
            assert (
                cli_main(["test", "--stat", stat, "--input", str(data), "--nu", "0"])
                == 0
            )
            outcome = json.loads(capsys.readouterr().out)
            assert outcome["sup"] == sup
            assert outcome["k_hat"] == 2

        sample = sample_from_csv(data)
        fit = ols_fit(sample)
        sums = residual_partial_sums(fit)
        assert np.array_equal(sums[:, 0], [-1.0, -2.0, -1.0, 0.0])
        assert partial_sum_covariance(fit)[0, 0] == 0.375


# ---------------------------------------------------------------------------
# 7. determinism across worker counts
# ---------------------------------------------------------------------------

def test_criterion_7_worker_count_determinism(tmp_path):
    with _criterion(
        7, "experiment reruns are byte-identical for any worker count"
    ):
        spec = ExperimentSpec(
            dgp_grid=(
                DgpSpec(family="location", T=120, s=0.0),
                DgpSpec(
                    family="predictive_lur",
                    T=120,
                    s=0.0,
                    params_pre=(0.0,),
                    params_post=(0.0,),
                    persistence_c=-5.0,
                ),
            ),
            stat_kinds=("cusum", "wald"),
            nu=None,
            level=0.05,
            n_reps=600,
            table_source=TableSource(mode="inline", n_reps=2000, n_steps=500),
            master_seed=0xDE7E12,
        )
        outputs = {}
        for workers in (1, 4):
            report = run_experiment(spec, workers=workers)
            path = tmp_path / f"report_w{workers}.csv"
            report_to_csv(report, path)
            prov = tmp_path / f"prov_w{workers}.json"
            prov.write_text(json.dumps(report.provenance, sort_keys=True))
            outputs[workers] = (path.read_bytes(), prov.read_bytes())
        assert outputs[1][0] == outputs[4][0]
        assert outputs[1][1] == outputs[4][1]

        # a fresh rerun of the same spec is also byte-identical
        report = run_experiment(spec, workers=2)
        path = tmp_path / "report_rerun.csv"
        report_to_csv(report, path)
        assert path.read_bytes() == outputs[1][0]
