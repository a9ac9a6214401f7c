"""The run path needs numpy alone: generation, simulation, tabulation and
the engine never import scipy (the tests themselves may).  A serial run
never loads multiprocessing either: only a worker pool needs it."""

SCRIPT = """
import sys

from breaklab import dgp, experiments, limit_lab
from breaklab.cli import main
from breaklab.rng import replication_stream

for family in dgp.FAMILIES:
    dgp.generate(dgp.spec_from_config({"family": family, "T": 30}), replication_stream(1, 0))
argv = ["simulate", "--family", "predictive_lur", "--T", "100", "--c", "-5", "--sigma-eps-u", "-0.5"]
assert main(argv + ["--out", sys.argv[1]]) == 0
limit_lab.tabulate("supabslurcusum", [0.95], 1000, n_steps=50, c=-5.0, corr=-0.5)
spec = experiments.experiment_from_config({
    "n_reps": 100,
    "stat_kinds": ["cusum", "wald"],
    "table_source": {"mode": "inline", "n_reps": 1000, "n_steps": 50},
    "dgp_grid": [{"family": "predictive_lur", "T": 30, "c": -5.0}, {"family": "ar1", "T": 30, "c": -2.0}],
})
experiments.run_experiment(spec)
assert "scipy" not in sys.modules, sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
"""


def test_run_path_never_imports_scipy(tmp_path, python):
    _fresh(python, ["-c", SCRIPT, str(tmp_path / "d.csv")])
    assert (tmp_path / "d.csv").read_text().startswith("t,y,x1,x2\n")


SERIAL_SCRIPT = """
import sys

from breaklab import experiments
from breaklab.cli import main

assert main(["simulate", "--family", "location", "--T", "50", "--out", sys.argv[1] + "/d.csv"]) == 0
assert main(["critvals", "--kind", "supabsbb", "--reps", "1000", "--steps", "50", "--out", sys.argv[1] + "/t.json"]) == 0
spec = experiments.experiment_from_config({
    "n_reps": 100,
    "stat_kinds": ["cusum"],
    "table_source": {"mode": "inline", "n_reps": 1000, "n_steps": 50},
    "dgp_grid": [{"family": "location", "T": 30}],
})
experiments.run_experiment(spec, workers=1)
assert "multiprocessing" not in sys.modules, sorted(m for m in sys.modules if m.startswith("multiprocessing"))
"""


def test_serial_runs_never_import_multiprocessing(tmp_path, python):
    _fresh(python, ["-c", SERIAL_SCRIPT, str(tmp_path)])
    assert (tmp_path / "t.json").is_file()


def _fresh(python, args, cwd=None):
    """The standard output of ``python args`` in a fresh interpreter that imports this breaklab."""
    proc = python(args, cwd)
    out, err = proc.communicate(timeout=120)
    assert proc.returncode == 0, err
    return out


def _loaded(python, code):
    """The ``breaklab.*`` modules loaded after running ``code`` in a fresh interpreter."""
    code += "\nimport sys; print(' '.join(m for m in sys.modules if m.startswith('breaklab.')))"
    return set(_fresh(python, ["-c", code]).split())


def test_importing_the_package_loads_no_module_until_a_name_is_used(python):
    assert _loaded(python, "import breaklab") == set()
    loaded = _loaded(python, "from breaklab import tabulate")
    assert "breaklab.limit_lab" in loaded
    unused = {"dgp", "estimators", "break_tests", "experiments", "cli"}
    assert not loaded & {f"breaklab.{name}" for name in unused}, sorted(loaded)


#: ``python -m breaklab.cli`` that, as the process exits, prints the modules it loaded
CLI_SCRIPT = """
import os, runpy, sys

def exit_listing_modules(code, exit=os._exit):
    sys.stdout.write(" ".join(sys.modules) + "\\n")
    sys.stdout.flush()
    exit(code)

os._exit = exit_listing_modules
runpy.run_module("breaklab.cli", run_name="__main__", alter_sys=True)
"""


def test_cli_commands_other_than_experiment_never_load_the_engine(tmp_path, python):
    commands = [
        ["simulate", "--family", "location", "--T", "50", "--out", "d.csv"],
        ["critvals", "--kind", "supabsbb", "--reps", "1000", "--steps", "50", "--out", "t.json"],
        ["test", "--stat", "cusum", "--input", "d.csv", "--critvals", "t.json", "--out", "o.json"],
    ]
    for argv in commands:
        loaded = set(_fresh(python, ["-c", CLI_SCRIPT, "-q", *argv], cwd=tmp_path).split())
        assert "breaklab.dgp" in loaded, argv[0]
        assert not loaded & {"breaklab.experiments", "concurrent.futures"}, argv[0]
    assert (tmp_path / "o.json").is_file()
    # the experiment command does load the engine, through the same listing
    spec = tmp_path / "spec.json"
    spec.write_text('{"n_reps": 100, "stat_kinds": ["cusum"], "table_source": {"mode": "precomputed", '
                    '"paths": ["t.json"]}, "dgp_grid": [{"family": "location", "T": 30}]}')
    loaded = set(_fresh(python, ["-c", CLI_SCRIPT, "-q", "experiment", "--spec", "spec.json", "--out", "r.csv"],
                        cwd=tmp_path).split())
    assert "breaklab.experiments" in loaded
