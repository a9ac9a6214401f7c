"""The statistic registry read end to end: the engine's table keys, ``decide``
and the CLI's default trimmings must agree for every built-in statistic."""

import json

import pytest

from breaklab.break_tests import STAT_RECIPES, cusum_path, cusum_sq_path, decide, wald_path, z_mean_path
from breaklab.cli import main
from breaklab.dgp import DgpSpec, generate
from breaklab.estimators import ols_fit
from breaklab.experiments import ExperimentSpec, required_table_keys
from breaklab.limit_lab import FUNCTIONAL_KINDS, tabulate
from breaklab.rng import replication_stream

OUTCOMES = {
    "cusum": lambda sample: cusum_path(ols_fit(sample)),
    "cusumsq": lambda sample: cusum_sq_path(ols_fit(sample)),
    "zmean": z_mean_path,
    "wald": wald_path,
}

DESIGNS = {
    1: DgpSpec(family="location", T=60),
    2: DgpSpec(family="linear_regression", T=60, params_pre=(1.0, 0.5), params_post=(1.0, 0.5)),
}


# zmean is defined on the intercept-only design alone; a spec refuses it on a
# wider design before any draw, so no outcome of it is ever decided there
@pytest.mark.parametrize(
    "kind,design_dim", [(k, d) for k in OUTCOMES for d in DESIGNS if (k, d) != ("zmean", 2)]
)
def test_engine_table_key_is_accepted_by_decide(kind, design_dim):
    dspec = DESIGNS[design_dim]
    (key,) = required_table_keys(ExperimentSpec(dgp_grid=(dspec,), stat_kinds=(kind,), n_reps=100))
    table_kind, p, nu = key
    table = tabulate(table_kind, [0.95], 1000, n_steps=100, master_seed=1, p=p, nu=nu)
    outcome = OUTCOMES[kind](generate(dspec, replication_stream(3, 0)))
    assert decide(outcome, table, 0.05).critical_value == table.lookup(0.95)


@pytest.mark.parametrize("table_kind", FUNCTIONAL_KINDS)
def test_critvals_default_trimming_is_the_test_default(tmp_path, capsys, table_kind):
    want_nu = 0.15 if table_kind == "supqp" else 0.0
    data, table = tmp_path / "d.csv", tmp_path / "t.json"
    assert main(["simulate", "--family", "location", "--T", "40", "--out", str(data)]) == 0
    extra = ["--c", "-5"] if table_kind == "supabslurcusum" else []
    argv = ["critvals", "--kind", table_kind, "--reps", "1000", "--steps", "50", "--out", str(table)]
    assert main(argv + extra) == 0
    assert json.loads(table.read_text())["nu"] == want_nu
    calibrated = [kind for kind, recipe in STAT_RECIPES.items() if table_kind in recipe.table_kinds]
    assert calibrated or table_kind == "cvmp1trace"
    capsys.readouterr()
    for kind in calibrated:
        assert main(["test", "--stat", kind, "--input", str(data), "--critvals", str(table)]) == 0
        outcome = json.loads(capsys.readouterr().out)
        assert outcome["nu"] == want_nu and outcome["cv"] is not None
