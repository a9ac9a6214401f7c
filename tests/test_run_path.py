"""The command-line run path as separate processes: each check runs
``python -m breaklab.cli`` against the breaklab this test process imported,
so the same module tests a source tree and an installed package."""

import csv
import json

import pytest

#: the draws of every table here: small, so that each takes a fraction of a second
DRAWS = ["--reps", "1000", "--steps", "200"]
INLINE = {"mode": "inline", "n_reps": 1000, "n_steps": 200}
#: location at T=200 and linear_regression at T=100, p=2 draw normals of one shape;
#: predictive_lur at T=500 stacks 174 replications, so its 300 make two payloads;
#: at T=2000 a stack holds 43 and the Wald scan walks it in tiles of a few rows
GRID = [
    {"family": "location", "T": 200},
    {"family": "predictive_lur", "T": 100, "c": -5.0, "sigma_eps_u": -0.5},
    {"family": "linear_regression", "T": 100, "beta_pre": [1.0, 0.5]},
    {"family": "predictive_lur", "T": 500, "c": -5.0},
    {"family": "predictive_lur", "T": 2000, "c": -5.0},
]


@pytest.fixture(scope="module")
def cli(python):
    """``cli(argv, cwd, code=0)``: the standard output and error of one
    ``breaklab argv`` process in ``cwd``, which must exit with ``code``."""

    def run(argv, cwd, code=0):
        proc = python(["-m", "breaklab.cli", *argv], cwd)
        out, err = proc.communicate(timeout=120)
        assert proc.returncode == code, (argv, err)
        return out, err

    return run


def _experiment(cli, cwd, name, grid, *options):
    """The report rows of a cusum and wald experiment over ``grid``, run with
    ``options`` and written to ``name``."""
    spec = {"n_reps": 300, "stat_kinds": ["cusum", "wald"], "table_source": INLINE, "dgp_grid": grid}
    (cwd / f"{name}.json").write_text(json.dumps(spec))
    cli(["experiment", "--spec", f"{name}.json", "--out", name, *options], cwd)
    with open(cwd / name, newline="") as fh:
        return list(csv.reader(fh))[1:]


@pytest.fixture(scope="module")
def grid_runs(cli, tmp_path_factory):
    """A directory holding the grid's report, paths and provenance at workers 1 (w1.csv) and 2 (w2.csv)."""
    cwd = tmp_path_factory.mktemp("grid")
    for workers in (1, 2):
        _experiment(cli, cwd, f"w{workers}.csv", GRID, "--workers", str(workers), "--paths-sample", "2")
    return cwd


def test_a_session_tabulates_every_kind_and_tests_with_its_tables(cli, tmp_path):
    cli(["simulate", "--family", "predictive_lur", "--T", "500", "--c", "-5", "--sigma-eps-u", "-0.5",
         "--out", "d.csv"], tmp_path)
    for kind, params in (("supabsbb", []), ("supqp", ["--p", "2"]), ("supabslurcusum", ["--c", "-5"]),
                         ("cvmp1trace", [])):
        cli(["critvals", "--kind", kind, *params, *DRAWS, "--out", f"{kind}.json"], tmp_path)
        assert json.loads((tmp_path / f"{kind}.json").read_text())["kind"] == kind
    for stat, kind in (("cusum", "supabsbb"), ("cusumsq", "supabsbb"), ("wald", "supqp")):
        out, _ = cli(["test", "--stat", stat, "--input", "d.csv", "--critvals", f"{kind}.json"], tmp_path)
        outcome = json.loads(out)
        assert outcome["stat"] == stat
        assert outcome["cv"] == json.loads((tmp_path / f"{kind}.json").read_text())["levels"]["0.95"]


def test_workers_1_and_2_write_the_same_bytes(grid_runs):
    for part in ("", ".paths.csv", ".provenance.json"):
        assert (grid_runs / f"w1.csv{part}").read_bytes() == (grid_runs / f"w2.csv{part}").read_bytes(), part
    assert len((grid_runs / "w1.csv").read_text().splitlines()) == 1 + 2 * len(GRID)


def test_each_inline_table_equals_a_standalone_critvals_table(cli, grid_runs):
    # the inline tables are drawn together, each from its prefix of one shared draw:
    # each must equal the table a standalone critvals draws for its key
    tables = json.loads((grid_runs / "w1.csv.provenance.json").read_text())["tables"]
    keys = {"supabsbb,p=1,nu=0": ["--kind", "supabsbb", "--nu", "0"],
            "supqp,p=1,nu=0.15": ["--kind", "supqp", "--p", "1", "--nu", "0.15"],
            "supqp,p=2,nu=0.15": ["--kind", "supqp", "--p", "2", "--nu", "0.15"]}
    assert sorted(tables) == sorted(keys)
    for i, (key, argv) in enumerate(keys.items()):
        cli(["critvals", *argv, *DRAWS, "--levels", "0.95", "--out", f"k{i}.json"], grid_runs)
        alone = json.loads((grid_runs / f"k{i}.json").read_text())["levels"]["0.95"]
        assert tables[key]["levels"]["0.95"] == alone, key


def test_a_c_major_grid_reports_the_rows_of_one_cell_runs(cli, tmp_path):
    # a c-major grid interleaves covariances, and its cells are generated one covariance
    # at a time: each report row must equal the row of a one-cell experiment of that cell
    cells = [{"family": "predictive_lur", "T": 100, "c": c, "sigma_eps_u": corr}
             for c in (0.0, -10.0) for corr in (0.0, -0.5)]
    lone = [row for i, cell in enumerate(cells) for row in _experiment(cli, tmp_path, f"lone{i}.csv", [cell])]
    for workers in (1, 2):
        assert _experiment(cli, tmp_path, f"cmajor{workers}.csv", cells, "--workers", str(workers)) == lone, workers


@pytest.mark.parametrize(
    "argv,named",
    [
        (["test", "--stat", "cusum", "--input", "d.csv", "--on-singular", "fail", "--out", "o.json"],
         "--on-singular"),
        (["test", "--stat", "cusum", "--input", "d.csv", "--critvals", ".", "--out", "o.json"],
         "critical-value table file ."),
        (["experiment", "--spec", "spec.json", "--out", "nodir/r.csv"], "nodir/r.csv"),
    ],
    ids=["unread-flag", "directory-as-table", "report-in-missing-directory"],
)
def test_a_refused_run_exits_2_and_leaves_no_output(cli, tmp_path, sample_csv, argv, named):
    (tmp_path / "spec.json").write_text(json.dumps({"n_reps": 100, "stat_kinds": ["cusum"], "dgp_grid": GRID[:1]}))
    _, err = cli(argv, tmp_path, code=2)
    assert named in err and "Traceback" not in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["d.csv", "spec.json"]
