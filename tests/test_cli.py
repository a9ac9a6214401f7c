"""Command-line interface: round trips, exit codes, output schemas."""

import io
import json
import logging
import sys
import warnings

import numpy as np
import pytest

from breaklab.cli import main
from breaklab.dgp import sample_from_csv
from breaklab.limit_lab import load_table, save_table, tabulate
from shared import reading_argv


@pytest.mark.parametrize(
    "argv,code,stream,shows",
    [
        (["test", "--stat", "cusum", "--input", "d.csv"], 0, "out", '"stat": "cusum"'),
        (["test", "--stat", "nosuch", "--input", "d.csv"], 1, "err", "invalid choice: 'nosuch'"),
        (["test", "--stat", "wald", "--input", "missing.csv"], 2, "err", "missing.csv"),
        (["-v", "test", "--stat", "cusum", "--input", "d.csv", "--out", "o.json"], 0, "err",
         "INFO breaklab: wrote outcome to o.json"),
        (["--help"], 0, "out", "{simulate,test,critvals,experiment}"),
    ],
    ids=["json-to-pipe", "usage-error", "missing-input", "verbose", "help"],
)
def test_a_process_exits_with_the_code_and_output_of_main(
    tmp_path, sample_csv, capfd, monkeypatch, python, argv, code, stream, shows
):
    # the process exits as soon as it has flushed, skipping interpreter teardown:
    # nothing main writes may be lost, and the exit code is the one main returns
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps the help to the terminal width
    proc = python(["-m", "breaklab.cli", *argv], tmp_path)
    out, err = proc.communicate(timeout=60)
    capfd.readouterr()
    assert main(argv) == code
    assert (proc.returncode, out, err) == (code, *capfd.readouterr())
    assert shows in (out if stream == "out" else err)
    if stream == "out" and argv[0] == "test":
        assert json.loads(out)["stat"] == "cusum"


def test_a_process_whose_stdout_is_closed_exits_120(tmp_path, sample_csv, python):
    # the JSON waits in the stdout buffer until the exit flush, which finds no
    # reader: the interpreter's own teardown exits 120 then, and so does the process
    proc = python(["-m", "breaklab.cli", "test", "--stat", "cusum", "--input", "d.csv"], tmp_path)
    proc.stdout.close()
    err = proc.stderr.read()
    assert proc.wait(timeout=60) == 120
    assert "Broken pipe" in err and "Traceback" not in err


def test_a_failed_write_to_standard_output_exits_120(tmp_path, sample_csv, python):
    # unbuffered, the JSON goes out at the write itself, which finds no reader:
    # the process ends as a failed exit flush does, with one line and no traceback
    proc = python(["-m", "breaklab.cli", "test", "--stat", "cusum", "--input", "d.csv"], tmp_path,
                  PYTHONUNBUFFERED="1")
    proc.stdout.close()
    err = proc.stderr.read()
    assert proc.wait(timeout=60) == 120
    assert err.startswith("breaklab: cannot write standard output: ") and err.count("\n") == 1
    assert "Broken pipe" in err


def test_main_returns_120_when_standard_output_is_closed(sample_csv, monkeypatch, capsys):
    closed = io.StringIO()
    closed.close()
    monkeypatch.setattr(sys, "stdout", closed)
    assert main(["test", "--stat", "cusum", "--input", str(sample_csv)]) == 120
    assert capsys.readouterr().err.startswith("breaklab: cannot write standard output: ")


def test_usage_error_exits_1(capfd):
    assert main(["test", "--stat", "nosuch", "--input", "x.csv"]) == 1
    assert "error" in capfd.readouterr().err


def test_missing_subcommand_exits_1(capfd):
    assert main([]) == 1


def test_help_exits_0(capfd):
    assert main(["--help"]) == 0
    out = capfd.readouterr().out
    for sub in ("simulate", "test", "critvals", "experiment"):
        assert sub in out


def test_missing_input_file_exits_2_and_names_it(capfd):
    code = main(["test", "--stat", "wald", "--input", "missing.csv"])
    assert code == 2
    assert "missing.csv" in capfd.readouterr().err


def test_simulate_noiseless_break(tmp_path, capfd):
    out = tmp_path / "d.csv"
    code = main(
        [
            "simulate",
            "--family", "location",
            "--T", "4",
            "--s", "0.5",
            "--mu-pre", "0",
            "--mu-post", "2",
            "--sigma-eps", "0",
            "--out", str(out),
        ]
    )
    assert code == 0
    sample = sample_from_csv(out)
    assert np.array_equal(sample.y, [0.0, 0.0, 2.0, 2.0])
    assert np.all(sample.X == 1.0)
    sidecar = json.loads((tmp_path / "d.csv.provenance.json").read_text())
    assert sidecar["schema_version"] == "1"
    assert sidecar["config"]["family"] == "location"
    assert sidecar["seed"] == 0xC0FFEE


def test_simulate_round_trip_statistics(tmp_path, capsys):
    data = tmp_path / "d.csv"
    assert (
        main(
            [
                "simulate", "--family", "location", "--T", "4", "--s", "0.5",
                "--mu-pre", "0", "--mu-post", "2", "--sigma-eps", "0",
                "--out", str(data),
            ]
        )
        == 0
    )
    assert main(["test", "--stat", "cusum", "--input", str(data)]) == 0
    outcome = json.loads(capsys.readouterr().out)
    assert outcome["stat"] == "cusum"
    assert outcome["sup"] == 1.0
    assert outcome["k_hat"] == 2
    assert outcome["cv"] is None and outcome["reject"] is None

    for stat in ("wald", "zmean"):
        assert main(["test", "--stat", stat, "--input", str(data), "--nu", "0"]) == 0
        outcome = json.loads(capsys.readouterr().out)
        assert outcome["sup"] == 4.0
        assert outcome["k_hat"] == 2


def test_test_decision_and_path_output(tmp_path, capsys):
    data = tmp_path / "d.csv"
    main(
        [
            "simulate", "--family", "location", "--T", "4", "--s", "0.5",
            "--mu-pre", "0", "--mu-post", "2", "--sigma-eps", "0", "--out", str(data),
        ]
    )
    capsys.readouterr()
    table = tmp_path / "bb.json"
    save_table(tabulate("supabsbb", [0.95], 1000, n_steps=200, master_seed=1), table)
    path_out = tmp_path / "path.csv"
    out_json = tmp_path / "outcome.json"
    code = main(
        [
            "test", "--stat", "cusum", "--input", str(data),
            "--critvals", str(table), "--level", "0.05",
            "--path-out", str(path_out), "--out", str(out_json),
        ]
    )
    assert code == 0
    outcome = json.loads(out_json.read_text())
    assert outcome["cv"] == pytest.approx(load_table(table).lookup(0.95))
    assert outcome["reject"] is False
    lines = path_out.read_text().strip().splitlines()
    assert lines[0] == "k,value"
    assert lines[1] == "1,-0.5"
    assert lines[2] == "2,-1"
    assert lines[3] == "3,-0.5"


def test_critvals_deterministic(tmp_path):
    args = [
        "critvals", "--kind", "supabsbb", "--reps", "1000", "--steps", "200",
        "--seed", "7",
    ]
    f1, f2 = tmp_path / "t1.json", tmp_path / "t2.json"
    assert main(args + ["--out", str(f1)]) == 0
    assert main(args + ["--out", str(f2)]) == 0
    assert f1.read_bytes() == f2.read_bytes()
    payload = json.loads(f1.read_text())
    assert payload["kind"] == "supabsbb"
    assert payload["meta"]["seed"] == 7
    assert set(payload["levels"]) == {"0.9", "0.95", "0.99"}


def test_critvals_table_mismatch_exits_2(tmp_path, capfd):
    data = tmp_path / "d.csv"
    main(
        [
            "simulate", "--family", "location", "--T", "40", "--s", "0",
            "--mu-pre", "0", "--out", str(data),
        ]
    )
    table = tmp_path / "qp.json"
    save_table(
        tabulate("supqp", [0.95], 1000, n_steps=200, master_seed=1, p=2, nu=0.15), table
    )
    code = main(
        ["test", "--stat", "cusum", "--input", str(data), "--critvals", str(table)]
    )
    assert code == 2


def test_singular_failure_exits_3(tmp_path):
    # second regressor constant over the leading rows: regime fits singular
    data = tmp_path / "sing.csv"
    rows = ["t,y,x1,x2"]
    x2 = [2.0] * 6 + list(range(1, 7))
    for t in range(12):
        rows.append(f"{t + 1},{float(t)},1,{x2[t]}")
    data.write_text("\n".join(rows) + "\n")
    code = main(
        ["test", "--stat", "wald", "--input", str(data), "--nu", "0",
         "--on-singular", "fail"]
    )
    assert code == 3


def test_degenerate_sample_exits_2(tmp_path):
    data = tmp_path / "flat.csv"
    data.write_text("t,y,x1\n" + "\n".join(f"{t + 1},5,1" for t in range(8)) + "\n")
    assert main(["test", "--stat", "cusum", "--input", str(data)]) == 2


@pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
def test_non_finite_input_exits_2_and_names_the_row(sample_csv, capfd, bad):
    lines = sample_csv.read_text().splitlines()
    lines[5] = f"5,{bad},1"  # data row 5, after the header
    sample_csv.write_text("\n".join(lines) + "\n")
    assert main(["test", "--stat", "cusum", "--input", str(sample_csv)]) == 2
    assert "data row 5" in capfd.readouterr().err


@pytest.mark.parametrize(
    "body,refusal",
    [("", "has no data rows\n"), ("\n", "has no data rows\n"), ("\n  \n", "has no data rows\n"),
     ("# note\n", "could not parse numeric rows: "),
     ("1,0,1 # x\n2,1,1\n3,2,1\n4,0,1\n", "could not parse numeric rows: ")],
    ids=["header-only", "blank-line", "blank-lines", "comment-line", "trailing-comment"],
)
def test_a_sample_with_no_data_rows_exits_2_with_one_line_and_no_warning(tmp_path, capfd, body, refusal):
    # the file is read as sample_to_csv writes it: "#" starts no comment, so a comment is no data row
    data = tmp_path / "e.csv"
    data.write_text("t,y,x1\n" + body)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["test", "--stat", "cusum", "--input", str(data)]) == 2
    assert [str(w.message) for w in caught] == []
    err = capfd.readouterr().err
    assert err.startswith(f"ERROR breaklab: {data}: {refusal}") and err.count("\n") == 1, err


@pytest.mark.parametrize("third", ["3,nan,1", "3,2,1"], ids=["then-a-nan-row", "then-finite-rows"])
def test_an_empty_line_between_data_rows_exits_2_and_names_that_line(tmp_path, capfd, third):
    # sample_to_csv writes no empty line; skipped, it would shift the row a later refusal names
    data = tmp_path / "e.csv"
    data.write_text(f"t,y,x1\n1,0,1\n\n{third}\n4,1,1\n")
    assert main(["test", "--stat", "cusum", "--input", str(data)]) == 2
    assert capfd.readouterr().err == f"ERROR breaklab: {data}: data row 2 is an empty line\n"


def _experiment_spec(tmp_path, n_reps=100):
    spec = {
        "master_seed": 5,
        "n_reps": n_reps,
        "level": 0.05,
        "stat_kinds": ["cusum"],
        "table_source": {"mode": "inline", "n_reps": 1000, "n_steps": 200},
        "dgp_grid": [{"family": "location", "T": 50, "s": 0.0}],
    }
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    return path


def test_experiment_end_to_end(tmp_path):
    spec = _experiment_spec(tmp_path)
    out = tmp_path / "report.csv"
    assert main(["experiment", "--spec", str(spec), "--out", str(out)]) == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0].startswith("family,T,s,c,corr,stat,nu,level,n_reps,failed")
    assert len(lines) == 2
    provenance = json.loads((tmp_path / "report.csv.provenance.json").read_text())
    assert provenance["experiment"]["master_seed"] == 5


def test_experiment_worker_invariance(tmp_path):
    spec = _experiment_spec(tmp_path, n_reps=300)
    out1, out2 = tmp_path / "r1.csv", tmp_path / "r2.csv"
    assert main(["experiment", "--spec", str(spec), "--out", str(out1)]) == 0
    assert main(
        ["experiment", "--spec", str(spec), "--out", str(out2), "--workers", "2"]
    ) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_experiment_seed_override_changes_results(tmp_path):
    spec = _experiment_spec(tmp_path)
    out1, out2 = tmp_path / "r1.csv", tmp_path / "r2.csv"
    main(["experiment", "--spec", str(spec), "--out", str(out1)])
    main(["experiment", "--spec", str(spec), "--out", str(out2), "--seed", "99"])
    assert out1.read_bytes() != out2.read_bytes()
    provenance = json.loads((tmp_path / "r2.csv.provenance.json").read_text())
    assert provenance["experiment"]["master_seed"] == 99


def test_experiment_paths_sample(tmp_path):
    spec = _experiment_spec(tmp_path)
    out = tmp_path / "report.csv"
    assert main(
        ["experiment", "--spec", str(spec), "--out", str(out), "--paths-sample", "2"]
    ) == 0
    lines = (tmp_path / "report.csv.paths.csv").read_text().strip().splitlines()
    assert lines[0] == "family,T,s,c,corr,stat,rep,k,value"
    assert len(lines) == 1 + 2 * 49  # k runs 1..49 for T = 50


_SPEC = {
    "n_reps": 100,
    "stat_kinds": ["cusum"],
    "table_source": {"mode": "inline", "n_reps": 1000, "n_steps": 50},
    "dgp_grid": [{"family": "location", "T": 30}],
}
_DGP = {"family": "location", "T": 30}
_TABLE = {
    "schema_version": "1",
    "kind": "supabsbb",
    "p": 1,
    "nu": 0.0,
    "c": None,
    "corr": None,
    "levels": {"0.95": 1.36},
    "meta": {"n_steps": 50, "n_reps": 1000, "seed": 1},
}


@pytest.mark.parametrize(
    "what,payload,named",
    [
        ("spec", {**_SPEC, "n_reps": "many"}, "'n_reps'"),
        ("spec", {**_SPEC, "level": "five"}, "'level'"),
        ("spec", {**_SPEC, "nu": "x"}, "'nu'"),
        ("spec", {**_SPEC, "master_seed": "abc"}, "'master_seed'"),
        ("spec", {**_SPEC, "table_source": "inline"}, "'table_source'"),
        ("spec", {**_SPEC, "dgp_grid": [5]}, "DGP config"),
        ("spec", {**_SPEC, "dgp_grid": 5}, "'dgp_grid'"),
        ("spec", {**_SPEC, "dgp_grid": [{**_DGP, "c": "abc"}]}, "'c'"),
        ("spec", [_SPEC], "JSON object"),
        ("config", {**_DGP, "sigma_eps_sq": "big"}, "'sigma_eps_sq'"),
        ("config", {**_DGP, "s": None}, "'s'"),
        ("config", [_DGP], "JSON object"),
        ("table", {**_TABLE, "levels": {"0.95": "x"}}, "'levels'"),
        ("table", [_TABLE], "JSON object"),
    ],
)
def test_malformed_spec_config_and_table_fields_exit_2(tmp_path, sample_csv, capfd, what, payload, named):
    path = tmp_path / f"{what}.json"
    path.write_text(json.dumps(payload))
    assert main(reading_argv(what, path, tmp_path / "out.csv", sample_csv)) == 2
    err = capfd.readouterr().err
    assert named in err and "Traceback" not in err


@pytest.mark.parametrize("field,value", [("meta", "x"), ("levels", 5)])
def test_table_with_non_object_nested_field_exits_2(tmp_path, sample_csv, capfd, field, value):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({**_TABLE, field: value}))
    assert main(["test", "--stat", "cusum", "--input", str(sample_csv), "--critvals", str(path)]) == 2
    err = capfd.readouterr().err
    assert f"'{field}'" in err and "Traceback" not in err


@pytest.mark.parametrize(
    "levels",
    [{"0.95": 1.36, "0.950": 9.9}, {"nan": 1.36}, {"inf": 1.36}, {"7": 1.36}, {"-1": 1.36}, {"0": 1.36},
     {"1": 1.36}],
    ids=["duplicate", "nan", "inf", "7", "-1", "0", "1"],
)
def test_a_table_level_given_twice_or_outside_0_1_exits_2(tmp_path, sample_csv, capfd, levels):
    # "0.95" and "0.950" are one level: loading both would drop one quantile unseen
    path = tmp_path / "t.json"
    path.write_text(json.dumps({**_TABLE, "levels": levels}))
    out = tmp_path / "o.json"
    assert main(["test", "--stat", "cusum", "--input", str(sample_csv), "--critvals", str(path),
                 "--out", str(out)]) == 2
    err = capfd.readouterr().err
    assert "'levels'" in err and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("keys", [("0.95", "0.9500000001"), ("0.9500000001", "0.95")])
def test_a_table_with_two_keys_of_one_level_exits_2_naming_both(tmp_path, sample_csv, capfd, keys):
    # within the lookup's tolerance, the decision would read whichever quantile came first
    path = tmp_path / "t.json"
    path.write_text(json.dumps({**_TABLE, "levels": dict(zip(keys, (1.36, 9.9)))}))
    out = tmp_path / "o.json"
    assert main(["test", "--stat", "cusum", "--input", str(sample_csv), "--critvals", str(path),
                 "--out", str(out)]) == 2
    err = capfd.readouterr().err
    assert "'0.95' and '0.9500000001' are one level" in err and "Traceback" not in err
    assert not out.exists()


def test_critvals_of_one_level_twice_exits_2_before_any_draw(tmp_path, capfd, drawn):
    # both would be written as the key "0.95", and one quantile dropped unseen
    out = tmp_path / "c.json"
    assert main(["critvals", "--kind", "supabsbb", "--reps", "1000", "--steps", "50",
                 "--levels", "0.95,0.95000000001", "--out", str(out)]) == 2
    assert "0.95 and 0.95000000001 are one level" in capfd.readouterr().err
    assert drawn == [] and not out.exists()


def test_string_table_paths_exit_2_naming_the_field(tmp_path, capfd):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps({**_SPEC, "table_source": {"mode": "precomputed", "paths": "t.json"}}))
    assert main(["experiment", "--spec", str(path), "--out", str(tmp_path / "out.csv")]) == 2
    err = capfd.readouterr().err
    assert "table_source key 'paths'" in err and "Traceback" not in err


#: an input of each kind that gives every integer and number field the field rule reads
_TYPED_BASES = {
    "spec": {**_SPEC, "master_seed": 7, "level": 0.05, "nu": None},
    "config": {"family": "predictive_lur", "T": 50, "s": 0.5, "beta_pre": [0.0], "beta_post": [0.5],
               "sigma_eps_sq": 1.0, "sigma_u_sq": 1.0, "sigma_eps_u": -0.5, "c": -5.0, "mu": 0.0, "x0": 0.0},
    "table": {**_TABLE, "kind": "supabslurcusum", "c": -5.0, "corr": -0.5},
}
#: (input, path to the field, a valid value, a valid integer for a number field or None)
_INTEGER_FIELDS = [
    ("spec", ("n_reps",), 100), ("spec", ("master_seed",), 7), ("spec", ("table_source", "n_reps"), 1000),
    ("spec", ("table_source", "n_steps"), 50), ("config", ("T",), 50), ("table", ("p",), 1),
    ("table", ("meta", "n_steps"), 50), ("table", ("meta", "n_reps"), 1000), ("table", ("meta", "seed"), 1),
]
_NUMBER_FIELDS = [
    ("spec", ("nu",), 0.15, 0), ("spec", ("level",), 0.05, None), ("config", ("s",), 0.5, None),
    ("config", ("beta_pre", 0), 0.0, 0), ("config", ("beta_post", 0), 0.5, 1), ("config", ("sigma_eps_sq",), 1.0, 2),
    ("config", ("sigma_u_sq",), 1.0, 1), ("config", ("sigma_eps_u",), -0.5, 0), ("config", ("c",), -5.0, -5),
    ("config", ("mu",), 0.0, 1), ("config", ("x0",), 0.0, 1), ("table", ("nu",), 0.0, 0),
    ("table", ("c",), -5.0, -5), ("table", ("corr",), -0.5, 0), ("table", ("levels", "0.95"), 1.36, 2),
]
#: (input, path, value, "an integer" or "a number" when refused, None when accepted)
_TYPED_CASES = [
    *[(w, path, bad, "an integer") for w, path, ok in _INTEGER_FIELDS for bad in (True, str(ok), ok + 0.5)],
    *[(w, path, bad, "a number") for w, path, ok, _ in _NUMBER_FIELDS for bad in (True, str(ok))],
    *[(w, path, ok, None) for w, path, _, ok in _NUMBER_FIELDS if ok is not None],
]


@pytest.mark.parametrize(
    "what,path,value,refused_as", _TYPED_CASES, ids=[f"{c[0]}-{'.'.join(map(str, c[1]))}-{c[2]!r}" for c in _TYPED_CASES]
)
def test_an_integer_field_takes_a_json_integer_and_a_number_field_a_json_number(
    tmp_path, sample_csv, capfd, what, path, value, refused_as
):
    # a bool, a numeric string or a fraction is refused, never read as the number it resembles
    payload = json.loads(json.dumps(_TYPED_BASES[what]))
    parent = payload
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    inp, out = tmp_path / "in.json", tmp_path / "out"
    inp.write_text(json.dumps(payload))
    code, err = main(reading_argv(what, inp, out, sample_csv)), capfd.readouterr().err
    assert "Traceback" not in err
    if refused_as is None:
        assert code == 0 and out.exists(), err
        return
    key = next(k for k in reversed(path) if isinstance(k, str) and not k[0].isdigit())  # not a list index or level
    assert code == 2 and f"{key}' must be {refused_as}, got {value!r}" in err, err
    assert {p.name for p in tmp_path.iterdir()} <= {"in.json", "d.csv"}


#: a trimming that leaves no interior point of a 3-step grid to scan
_EMPTY_WINDOW = "nu=0.4 leaves no interior grid point for n_steps=3"
#: supabslurcusum takes its sup over the whole grid
_LUR_TRIMMED = "supabslurcusum takes no trimming: nu must be 0, got 0.3"


@pytest.mark.parametrize(
    "command,arg,named",
    [
        ("critvals", ["--kind", "supabslurcusum", "--c", "nan"], "persistence c"),
        ("critvals", ["--kind", "supabslurcusum", "--c", "inf"], "persistence c"),
        ("critvals", ["--kind", "supabsbb", "--steps", "1"], "n_steps"),
        ("critvals", ["--kind", "supabsbb", "--steps", "0"], "n_steps"),
        ("critvals", ["--kind", "supqp", "--p", "0"], "dimension p"),
        ("experiment", {"mode": "inline", "n_reps": 1000, "n_steps": 0}, "n_steps"),
        ("experiment", {"mode": "inline", "n_reps": 1000, "n_steps": 1}, "n_steps"),
        ("test", {**_TABLE, "levels": {"0.95": float("nan")}}, "'levels'"),
        ("test", {**_TABLE, "meta": {**_TABLE["meta"], "n_steps": 1}}, "n_steps"),
        (
            "experiment",
            {"mode": "precomputed", "paths": ["a.json", "b.json"]},
            "a.json and b.json both cover (supabsbb, p=1, nu=0)",
        ),
        ("critvals", ["--kind", "supqp", "--steps", "3", "--nu", "0.4"], _EMPTY_WINDOW),
        ("critvals", ["--kind", "supabsbb", "--steps", "3", "--nu", "0.4"], _EMPTY_WINDOW),
        ("test", {**_TABLE, "nu": 0.4, "meta": {**_TABLE["meta"], "n_steps": 3}}, _EMPTY_WINDOW),
        ("critvals", ["--kind", "supabslurcusum", "--c", "-5", "--nu", "0.3"], _LUR_TRIMMED),
        ("test", {**_TABLE, "kind": "supabslurcusum", "c": -5.0, "nu": 0.3}, _LUR_TRIMMED),
    ],
    ids=["c-nan", "c-inf", "steps-1", "steps-0", "p-0", "table-source-steps-0", "table-source-steps-1",
         "nan-quantile", "table-steps-1", "duplicate-tables", "supqp-empty-window", "supabsbb-empty-window",
         "table-empty-window", "supabslurcusum-trimmed", "table-supabslurcusum-trimmed"],
)
def test_bad_functional_or_table_exits_2_before_any_draw(
    tmp_path, sample_csv, capfd, monkeypatch, drawn, command, arg, named
):
    monkeypatch.chdir(tmp_path)
    if command == "critvals":
        argv = ["critvals", "--reps", "1000", "--steps", "50", *arg, "--out", "t.json"]
    elif command == "experiment":
        for name in ("a.json", "b.json"):  # two tables for one key
            (tmp_path / name).write_text(json.dumps(_TABLE))
        (tmp_path / "spec.json").write_text(json.dumps({**_SPEC, "table_source": arg}))
        argv = ["experiment", "--spec", "spec.json", "--out", "out.csv"]
    else:
        (tmp_path / "t.json").write_text(json.dumps(arg))
        argv = ["test", "--stat", "cusum", "--input", "d.csv", "--critvals", "t.json"]
    assert main(argv) == 2
    err = capfd.readouterr().err
    assert named in err and "Traceback" not in err
    assert drawn == []


_EXPERIMENT = ["experiment", "--spec", "spec.json", "--out", "r.csv"]
_TEST = ["test", "--stat", "cusum", "--input", "d.csv"]
_PLUR = {"family": "predictive_lur", "T": 50}


@pytest.mark.parametrize(
    "grid,argv,named",
    [
        ([{**_PLUR, "c": float("nan")}], _EXPERIMENT, "persistence c must be finite"),
        ([{**_PLUR, "mu": float("nan")}], _EXPERIMENT, "intercept mu must be finite"),
        ([{**_PLUR, "x0": float("inf")}], _EXPERIMENT, "x0 must be finite"),
        ([{**_PLUR, "sigma_eps_u": float("nan")}], _EXPERIMENT, "sigma_eps_u must be finite"),
        (None, ["simulate", "--family", "predictive_lur", "--T", "50", "--c", "nan", "--out", "s.csv"],
         "persistence c must be finite"),
        (None, ["simulate", "--family", "location", "--T", "50", "--out", "nodir/s.csv"], "nodir/s.csv"),
        (None, [*_TEST, "--out", "nodir/o.json"], "nodir/o.json"),
        (None, [*_TEST, "--path-out", "nodir/p.csv"], "nodir/p.csv"),
        (None, ["critvals", "--kind", "supabsbb", "--reps", "1000", "--steps", "50", "--out", "nodir/t.json"],
         "nodir/t.json"),
        (None, ["experiment", "--spec", "spec.json", "--out", "nodir/r.csv"], "nodir/r.csv"),
        (None, [*_TEST, "--critvals", "adir"], "critical-value table file adir"),
        (None, ["experiment", "--spec", "adir", "--out", "r.csv"], "experiment spec file adir"),
        (None, ["simulate", "--config", "adir", "--out", "s.csv"], "config file adir"),
        (None, ["test", "--stat", "cusum", "--input", "adir"], "input file adir"),
    ],
    ids=["grid-c-nan", "grid-mu-nan", "grid-x0-inf", "grid-sigma-eps-u-nan", "simulate-c-nan",
         "simulate-out", "test-out", "test-path-out", "critvals-out", "experiment-out",
         "critvals-dir", "spec-dir", "config-dir", "input-dir"],
)
def test_non_finite_parameters_and_unusable_files_exit_2_before_any_draw(
    tmp_path, sample_csv, capfd, monkeypatch, drawn, grid, argv, named
):
    # a missing directory "nodir" for outputs, a directory "adir" where a file is read
    monkeypatch.chdir(tmp_path)
    (tmp_path / "adir").mkdir()
    (tmp_path / "spec.json").write_text(json.dumps({**_SPEC, "dgp_grid": grid or _SPEC["dgp_grid"]}))
    inputs = sorted(p.name for p in tmp_path.iterdir())
    assert main(argv) == 2
    err = capfd.readouterr().err
    assert named in err and "Traceback" not in err
    assert sorted(p.name for p in tmp_path.iterdir()) == inputs  # no output, sidecar or probe left
    assert drawn == []


def test_log_lines_after_main_go_to_the_current_stderr(tmp_path, capfd, monkeypatch):
    # an in-process caller may close the stream main logged to once main returns,
    # as pytest's capture does at the end of a test; later engine lines must not
    # reach that closed stream
    first = io.StringIO()
    monkeypatch.setattr(sys, "stderr", first)
    assert main(["simulate", "--family", "location", "--T", "20", "--out", str(tmp_path / "d.csv")]) == 0
    first.close()
    monkeypatch.undo()
    logging.getLogger("breaklab.experiments").info("a later engine line")
    err = capfd.readouterr().err
    assert "Logging error" not in err
    assert "a later engine line" in err


def test_test_does_not_offer_a_registered_statistic(tmp_path, sample_csv, capfd, monkeypatch):
    # a registered kind has no one-sample outcome: `test` refuses it as any other invalid choice
    from breaklab.break_tests import STAT_RECIPES, register_statistic

    monkeypatch.chdir(tmp_path)
    register_statistic("mine", lambda sample, nu, cache: None)
    try:
        assert main(["test", "--stat", "mine", "--input", "d.csv", "--out", "o.json"]) == 1
    finally:
        del STAT_RECIPES["mine"]
    assert "invalid choice: 'mine'" in capfd.readouterr().err
    assert not (tmp_path / "o.json").exists()


@pytest.mark.parametrize(
    "spec,named",
    [
        ({**_SPEC, "table_source": {"mode": "inline", "n_rep": 1000}}, "unknown table_source key(s): n_rep"),
        (
            {**_SPEC, "dgp_grid": [_DGP, {**_PLUR, "c": float("nan")}]},
            "dgp_grid[1]: persistence c must be finite, got nan",
        ),
    ],
    ids=["misspelled-table-source-key", "nan-second-grid-entry"],
)
def test_spec_refusals_name_the_key_and_the_grid_entry_before_any_draw(
    tmp_path, capfd, monkeypatch, drawn, spec, named
):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "spec.json").write_text(json.dumps(spec))
    assert main(_EXPERIMENT) == 2
    err = capfd.readouterr().err
    assert named in err and "Traceback" not in err
    assert drawn == []
    assert not (tmp_path / "r.csv").exists()


@pytest.mark.parametrize(
    "cell,named",
    [
        ({"family": "ar1", "T": 500, "beta_pre": [5.0]}, "beta_pre=5.0 gives"),
        ({"family": "ar1", "T": 500, "c": 300.0, "beta_pre": [0.5]}, "persistence c=300.0 gives"),
    ],
    ids=["ar1-coefficient-root", "ar1-c-root"],
)
def test_every_autoregressive_root_is_bounded_before_any_draw(
    tmp_path, capfd, monkeypatch, spy, drawn, cell, named
):
    # ar1 runs its regime coefficients as roots, so they are bounded as c's root is
    from breaklab import limit_lab

    monkeypatch.chdir(tmp_path)
    (tmp_path / "spec.json").write_text(json.dumps({**_SPEC, "dgp_grid": [_DGP, cell]}))
    tabulated = spy(limit_lab, "tabulate")
    assert main(_EXPERIMENT) == 2
    err = capfd.readouterr().err
    assert f"dgp_grid[1]: {named} autoregressive root" in err and "Traceback" not in err
    assert drawn == tabulated == []
    assert not (tmp_path / "r.csv").exists()


def test_table_level_keys_round_trip_to_ten_digits(tmp_path, capfd):
    table = tmp_path / "t.json"
    argv = ["critvals", "--kind", "supabsbb", "--reps", "1000", "--steps", "50"]
    assert main([*argv, "--levels", "0.9512341,0.9512342,0.95", "--out", str(table)]) == 0
    assert list(json.loads(table.read_text())["levels"]) == ["0.95", "0.9512341", "0.9512342"]
    data = tmp_path / "d.csv"
    assert main(["simulate", "--family", "location", "--T", "50", "--out", str(data)]) == 0
    out = tmp_path / "o.json"
    code = main(["test", "--stat", "cusum", "--input", str(data), "--critvals", str(table),
                 "--level", "0.0487659", "--out", str(out)])
    assert code == 0, capfd.readouterr().err
    assert json.loads(out.read_text())["cv"] == load_table(table).quantiles[0.9512341]


@pytest.mark.parametrize(
    "argv,named",
    [
        (_EXPERIMENT, "dgp_grid[0]: family 'location' does not read c, got -5.0"),
        (["simulate", "--family", "ar1", "--T", "50", "--sigma-eps", "4", "--out", "s.csv"],
         "family 'ar1' does not read sigma_eps_sq, got 4.0"),
        (["critvals", "--kind", "supabsbb", "--c", "5", "--reps", "1000", "--steps", "50", "--out", "t.json"],
         "supabsbb takes no persistence: c must be unset, got 5.0"),
        (["critvals", "--kind", "cvmp1trace", "--nu", "0.3", "--reps", "1000", "--steps", "50", "--out", "t.json"],
         "cvmp1trace takes no trimming: nu must be 0, got 0.3"),
        ([*_TEST, "--critvals", "bb.json", "--out", "o.json"],
         "supabsbb takes no persistence: c must be unset, got 5.0"),
    ],
    ids=["grid-location-c", "simulate-ar1-sigma-eps", "critvals-supabsbb-c", "critvals-cvmp1trace-nu",
         "test-supabsbb-table-c"],
)
def test_a_setting_no_draw_reads_exits_2_naming_it_before_any_draw(
    tmp_path, sample_csv, capfd, monkeypatch, spy, drawn, argv, named
):
    # a report, sample or table would otherwise name a value its draws never used
    from breaklab import limit_lab

    monkeypatch.chdir(tmp_path)
    (tmp_path / "spec.json").write_text(json.dumps({**_SPEC, "dgp_grid": [{**_DGP, "c": -5.0}]}))
    (tmp_path / "bb.json").write_text(json.dumps({**_TABLE, "c": 5.0}))
    inputs = sorted(p.name for p in tmp_path.iterdir())
    tabulated = spy(limit_lab, "tabulate")
    assert main(argv) == 2
    err = capfd.readouterr().err
    assert named in err and "Traceback" not in err
    assert drawn == [] and len(tabulated) == (argv[0] == "critvals")  # critvals checks its functional there
    assert sorted(p.name for p in tmp_path.iterdir()) == inputs  # no output, sidecar or probe left


def test_an_overflowing_simulate_exits_2_without_numpy_warnings(tmp_path, capfd):
    # the sample is generated under the engine's float policy and refused by its first bad row
    argv = ["simulate", "--family", "predictive_lur", "--T", "50", "--mu", "1e308", "--beta-pre", "1e308",
            "--out", str(tmp_path / "s.csv")]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(argv) == 2
    assert [w for w in caught if issubclass(w.category, RuntimeWarning)] == []
    assert "sample row 5 has a non-finite value" in capfd.readouterr().err
    assert not (tmp_path / "s.csv").exists()


def test_a_test_whose_squares_overflow_exits_2_without_numpy_warnings(tmp_path, capfd):
    # the statistic runs under the engine's float policy and is refused by its variance check
    data = tmp_path / "big.csv"
    data.write_text("t,y,x1\n" + "".join(f"{t + 1},{(1 + t % 7) * 1e200:.17g},1\n" for t in range(40)))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["test", "--stat", "cusumsq", "--input", str(data)]) == 2
    assert [w for w in caught if issubclass(w.category, RuntimeWarning)] == []
    err = capfd.readouterr().err
    assert "residual variance" in err and "RuntimeWarning" not in err


@pytest.mark.parametrize("regime", ["pre", "post"])
def test_mu_and_beta_flags_of_one_regime_are_a_usage_error(tmp_path, capfd, regime):
    # --mu-pre spells --beta-pre with one number, so giving both is a usage error
    out = tmp_path / "s.csv"
    argv = ["simulate", "--family", "location", "--T", "20", "--s", "0.5", f"--mu-{regime}", "1",
            f"--beta-{regime}", "2", "--out", str(out)]
    assert main(argv) == 1
    assert f"not allowed with argument --mu-{regime}" in capfd.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "argv,key,kept",
    [
        (["--stat", "cusum", "--on-singular", "fail"], "on_singular", None),
        (["--stat", "zmean", "--on-singular", "fail"], "on_singular", None),
        (["--stat", "wald", "--cusumsq-norm", "resid_sd"], "cusumsq_norm", None),
        (["--stat", "cusum", "--cusumsq-norm", "resid_sd"], "cusumsq_norm", None),
        (["--stat", "cusum", "--level", "0.5"], "level", None),
        (["--stat", "wald", "--on-singular", "fail"], "on_singular", "fail"),
        (["--stat", "cusumsq", "--cusumsq-norm", "resid_sd"], "cusumsq_norm", "resid_sd"),
        (["--stat", "cusum", "--level", "0.1", "--critvals", "bb.json"], "level", 0.1),
        (["--stat", "cusum", "--on-singular", "skip", "--level", "0.05"], "on_singular", "skip"),
    ],
    ids=["cusum-on-singular", "zmean-on-singular", "wald-cusumsq-norm", "cusum-cusumsq-norm", "level-no-table",
         "wald-on-singular", "cusumsq-cusumsq-norm", "level-with-table", "defaults-given"],
)
def test_test_refuses_a_flag_its_run_does_not_read(tmp_path, sample_csv, capfd, monkeypatch, argv, key, kept):
    # --on-singular is read by wald only, --cusumsq-norm by cusumsq only and --level with --critvals
    # only; any other run refuses a value off the default, naming the flag, before it reads the input
    monkeypatch.chdir(tmp_path)
    (tmp_path / "bb.json").write_text(json.dumps({**_TABLE, "levels": {"0.9": 1.22, "0.95": 1.36}}))
    if kept is None:
        sample_csv.unlink()  # so a run that read the input would name it
    inputs = sorted(p.name for p in tmp_path.iterdir())
    code = main(["test", *argv, "--input", "d.csv", "--out", "o.json", "--path-out", "p.csv"])
    err = capfd.readouterr().err
    if kept is None:
        assert code == 2
        assert f"ERROR breaklab: --{key.replace('_', '-')} is read only " in err and "d.csv" not in err
        assert sorted(p.name for p in tmp_path.iterdir()) == inputs
    else:
        assert code == 0, err
        assert json.loads((tmp_path / "o.json").read_text())["provenance"][key] == kept


def test_help_to_a_closed_unbuffered_stdout_exits_120(tmp_path, monkeypatch, capsys, python):
    # argparse's own writer drops a failed write; breaklab's parser reports it, so an
    # unbuffered --help ends as a buffered one does at its exit flush
    proc = python(["-m", "breaklab.cli", "--help"], tmp_path, PYTHONUNBUFFERED="1")
    proc.stdout.close()
    err = proc.stderr.read()
    assert proc.wait(timeout=60) == 120
    assert err.startswith("breaklab: cannot write standard output: ") and err.count("\n") == 1
    closed = io.StringIO()
    closed.close()
    monkeypatch.setattr(sys, "stdout", closed)
    assert main(["--help"]) == 120
    assert capsys.readouterr().err.startswith("breaklab: cannot write standard output: ")


def test_every_output_ends_in_one_newline_and_test_writes_one_json(tmp_path, capfd, monkeypatch):
    # every file a session writes is one text of the shared JSON or CSV rule, and the
    # outcome JSON of `test` is the same bytes whether it goes to --out or to stdout
    monkeypatch.chdir(tmp_path)
    (tmp_path / "spec.json").write_text(json.dumps({**_SPEC, "stat_kinds": ["cusum", "wald"]}))
    run = ["--reps", "1000", "--steps", "50"]
    for argv in (
        ["simulate", "--family", "location", "--T", "40", "--out", "d.csv"],
        ["critvals", "--kind", "supqp", *run, "--out", "qp.json"],
        ["test", "--stat", "wald", "--input", "d.csv", "--critvals", "qp.json", "--out", "o.json",
         "--path-out", "p.csv"],
        [*_EXPERIMENT, "--paths-sample", "2"],
    ):
        assert main(argv) == 0, capfd.readouterr().err
    capfd.readouterr()
    assert main(["test", "--stat", "wald", "--input", "d.csv", "--critvals", "qp.json"]) == 0
    assert capfd.readouterr().out == (tmp_path / "o.json").read_text()
    written = sorted(p.name for p in tmp_path.iterdir() if p.name != "spec.json")
    assert written == ["d.csv", "d.csv.provenance.json", "o.json", "p.csv", "qp.json", "r.csv",
                       "r.csv.paths.csv", "r.csv.provenance.json"]
    for name in written:
        data = (tmp_path / name).read_bytes()
        assert data.endswith(b"\n") and not data.endswith(b"\n\n"), name


def test_main_with_a_closed_stderr_returns_the_exit_code(tmp_path, monkeypatch):
    # every log record goes to the closed stream and is lost; the command's own code survives
    closed = io.StringIO()
    closed.close()
    monkeypatch.setattr(sys, "stderr", closed)
    assert main(["simulate", "--family", "location", "--T", "20", "--out", str(tmp_path / "d.csv")]) == 0
    assert main(["test", "--stat", "cusum", "--input", str(tmp_path / "missing.csv")]) == 2


@pytest.mark.parametrize("kind,params", [("supabsbb", []), ("supabslurcusum", ["--c", "-5"]), ("cvmp1trace", [])])
def test_critvals_of_a_kind_without_a_dimension_refuses_p_before_any_draw(tmp_path, capfd, drawn, kind, params):
    # the table would be labelled with a dimension its one-dimensional draws never read
    out = tmp_path / "t.json"
    assert main(["critvals", "--kind", kind, *params, "--p", "2", "--reps", "1000", "--steps", "50",
                 "--out", str(out)]) == 2
    err = capfd.readouterr().err
    assert f"{kind} takes no dimension: p must be 1, got 2" in err and "Traceback" not in err
    assert drawn == [] and not out.exists()


def test_a_table_labelled_with_an_unread_dimension_exits_2(tmp_path, sample_csv, capfd):
    path = tmp_path / "t.json"
    path.write_text(json.dumps({**_TABLE, "p": 2}))
    out = tmp_path / "o.json"
    assert main(["test", "--stat", "cusum", "--input", str(sample_csv), "--critvals", str(path),
                 "--out", str(out)]) == 2
    err = capfd.readouterr().err
    assert "supabsbb takes no dimension: p must be 1, got 2" in err and "Traceback" not in err
    assert not out.exists()
