"""The run path needs numpy alone: generation, simulation, tabulation and
the engine never import scipy (the tests themselves may).  A serial run
never loads multiprocessing either: only a worker pool needs it."""

import os
import subprocess
import sys

SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src")

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


def test_run_path_never_imports_scipy(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(tmp_path / "d.csv")], capture_output=True, text=True, env=env
    )
    assert proc.returncode == 0, proc.stderr
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


def test_serial_runs_never_import_multiprocessing(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-c", SERIAL_SCRIPT, str(tmp_path)], capture_output=True, text=True, env=env
    )
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "t.json").is_file()
