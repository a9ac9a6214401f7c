"""Property test of the exit-code contract for every field a user writes.

One field of a valid experiment spec, ``simulate --config`` or critical-value
table is perturbed at a time: its value is swapped for another type, NaN, an
infinity, a negative or huge number or a wrong nested shape, its key is
dropped, or an unknown key is added beside it.  ``breaklab`` must then exit 2
naming the field, or exit 0 with finite output; it must never raise.
"""

import contextlib
import copy
import csv
import io
import json
import math
import os
import tempfile

from hypothesis import event, given, settings
from hypothesis import strategies as st

from breaklab.cli import main

PROPERTY = settings(max_examples=500, deadline=None, derandomize=True, database=None)

#: valid and cheap: 100 replications at T <= 50 against inline tables of 1000 draws at 50 steps
SPEC = {
    "master_seed": 7,
    "n_reps": 100,
    "level": 0.05,
    "nu": None,
    "stat_kinds": ["cusum", "wald"],
    "table_source": {"mode": "inline", "n_reps": 1000, "n_steps": 50},
    "dgp_grid": [
        {"family": "predictive_lur", "T": 50, "c": -5.0, "sigma_eps_u": -0.5, "mu": 0.0, "x0": 0.0},
        {"family": "linear_regression", "T": 40, "s": 0.5, "beta_pre": [1.0, 0.5], "beta_post": [1.0, 0.0]},
    ],
}
CONFIG = {
    "family": "predictive_lur",
    "T": 50,
    "s": 0.5,
    "beta_pre": [0.0],
    "beta_post": [0.5],
    "sigma_eps_sq": 1.0,
    "sigma_u_sq": 1.0,
    "sigma_eps_u": -0.5,
    "c": -5.0,
    "mu": 0.0,
    "x0": 0.0,
}
TABLE = {
    "schema_version": "1",
    "kind": "supabsbb",
    "p": 1,
    "nu": 0.0,
    "c": None,
    "corr": None,
    "levels": {"0.9": 1.22, "0.95": 1.36, "0.99": 1.63},
    "meta": {"n_steps": 50, "n_reps": 1000, "seed": 1},
}
BASES = {"spec": SPEC, "config": CONFIG, "table": TABLE}

#: another type, a non-finite, negative or huge number, or a wrong nested shape
SWAPS = ("x", True, None, [1.0], [[1.0]], [], {"a": 1}, {}, math.nan, math.inf, -math.inf,
         -1, -1e6, 0, 1e308, 10**30)

SAMPLE = "t,y,x1\n" + "\n".join(f"{t + 1},{(t * 7) % 5 - 2},1" for t in range(40)) + "\n"


def _paths(obj, path=()):
    """The path to every value in ``obj``, nested ones included."""
    for key, value in obj.items() if isinstance(obj, dict) else enumerate(obj):
        yield path + (key,)
        if isinstance(value, (dict, list)):
            yield from _paths(value, path + (key,))


PATHS = {what: list(_paths(base)) for what, base in BASES.items()}


@st.composite
def perturbations(draw):
    """``(what, payload, field)``: one base with one field changed, and the key
    an error must name."""
    what = draw(st.sampled_from(sorted(BASES)))
    path = draw(st.sampled_from(PATHS[what]))
    payload = copy.deepcopy(BASES[what])
    parent = payload
    for key in path[:-1]:
        parent = parent[key]
    # a level's key is a number: an error names the table field 'levels'
    field = next(k for k in reversed(path) if isinstance(k, str) and not k[0].isdigit())
    change = draw(st.sampled_from(("swap", "drop", "unknown")))
    if change == "unknown" and isinstance(parent, dict):
        parent["bogus"] = 1
        field = "bogus"
    elif change == "drop":
        del parent[path[-1]]
    else:
        numbers = st.floats() if isinstance(parent[path[-1]], float) else st.nothing()
        parent[path[-1]] = draw(st.sampled_from(SWAPS) | numbers)
    return what, payload, field


def _finite_output(what, path):
    if what == "spec":  # NaN rates only where every replication failed
        with open(path) as fh:
            for row in csv.DictReader(fh):
                assert 0 <= int(row["failed"]) <= int(row["n_reps"])
                values = [float(row[k]) for k in ("reject_rate", "mc_se", "sup_q50", "sup_q95")]
                assert row["failed"] == row["n_reps"] or all(map(math.isfinite, values)), row
    elif what == "config":
        with open(path) as fh:
            rows = fh.read().split()[1:]
        assert rows and all(math.isfinite(float(v)) for line in rows for v in line.split(","))
    else:
        with open(path) as fh:
            outcome = json.load(fh)
        assert math.isfinite(outcome["sup"]) and math.isfinite(outcome["cv"])


@PROPERTY
@given(case=perturbations())
def test_one_perturbed_field_exits_2_naming_it_or_0_with_finite_output(case):
    what, payload, field = case
    with tempfile.TemporaryDirectory() as tmp:
        inp, out = os.path.join(tmp, "in.json"), os.path.join(tmp, "out")
        with open(inp, "w") as fh:
            json.dump(payload, fh)
        if what == "spec":
            argv = ["experiment", "--spec", inp, "--out", out]
        elif what == "config":
            argv = ["simulate", "--config", inp, "--out", out]
        else:
            data = os.path.join(tmp, "d.csv")
            with open(data, "w") as fh:
                fh.write(SAMPLE)
            argv = ["test", "--stat", "cusum", "--input", data, "--critvals", inp, "--out", out]
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = main(argv)
        err = err.getvalue()
        event(f"{what} exits {code}")
        assert code in (0, 2), err
        assert "Traceback" not in err
        if code == 2:
            # a sample that overflows depends on several fields at once: simulate names its row
            overflow = what == "config" and "has a non-finite value in y or X" in err
            assert field in err or overflow, err
            assert not os.path.exists(out)
        else:
            _finite_output(what, out)
