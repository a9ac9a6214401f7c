#!/usr/bin/env python3
"""Rewrite ``tests/data/outputs.json``: the sha256 of every file one fixed CLI session writes.

    PYTHONPATH=src python tests/make_outputs.py

The session runs ``breaklab.cli.main`` in-process in a scratch directory, with
relative paths, so no provenance names a machine's path.  At each of
:data:`SEEDS` it simulates two samples, tabulates a table of every functional
kind, runs every statistic through ``test`` (JSON outcome, and a ``--path-out``
CSV for three of them) and runs one experiment at ``--workers`` 1 and 2 (report,
provenance and sampled paths).  ``tests/test_outputs.py`` runs the same session
and compares its digests with the manifest.  Rewrite the manifest only when a
change is meant to alter an output, and name each output whose digest changed.
"""

import hashlib
import json
import os
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
MANIFEST = os.path.join(HERE, "data", "outputs.json")

SEEDS = (12648430, 20220201)
WORKERS = (1, 2)

#: the two samples: an intercept-only design with a mean shift, and a persistent predictive regressor
_SAMPLES = {
    "loc": ["--family", "location", "--T", "80", "--s", "0.5", "--mu-pre", "0", "--mu-post", "0.8"],
    "lur": ["--family", "predictive_lur", "--T", "80", "--c", "-5", "--sigma-eps-u", "-0.5"],
}
#: one table of every functional kind: name -> its critvals flags
_TABLES = {
    "supabsbb": ["--kind", "supabsbb"],
    "supqp1": ["--kind", "supqp"],
    "supqp2": ["--kind", "supqp", "--p", "2"],
    "supabslurcusum": ["--kind", "supabslurcusum", "--c", "-5", "--corr", "-0.5"],
    "cvmp1trace": ["--kind", "cvmp1trace"],
}
_TABLE_FLAGS = ["--reps", "1000", "--steps", "120", "--levels", "0.9,0.95,0.99"]
#: each statistic on a sample: name -> (statistic, sample, table, whether it writes its path)
_TESTS = {
    "cusum_loc": ("cusum", "loc", "supabsbb", True),
    "cusum_lur": ("cusum", "lur", "supabslurcusum", False),
    "cusumsq_loc": ("cusumsq", "loc", "supabsbb", True),
    "zmean_loc": ("zmean", "loc", "supqp1", False),
    "wald_lur": ("wald", "lur", "supqp2", True),
}
_SPEC = {
    "n_reps": 100,
    "level": 0.05,
    "stat_kinds": ["cusum", "cusumsq", "wald"],
    "table_source": {"mode": "inline", "n_reps": 1000, "n_steps": 100},
    "dgp_grid": [
        {"family": "location", "T": 60},
        {"family": "linear_regression", "T": 60, "s": 0.5, "beta_pre": [1.0, 0.5], "beta_post": [1.0, 1.0]},
        {"family": "predictive_lur", "T": 60, "c": -5.0, "sigma_eps_u": -0.5},
    ],
}


def _steps(seed):
    """(argv of ``breaklab``) of each step of the session at ``seed``, with paths relative to its directory."""
    s = str(seed)
    steps = [["simulate", *flags, "--seed", s, "--out", f"{s}/{name}.csv"] for name, flags in _SAMPLES.items()]
    steps += [["critvals", *flags, *_TABLE_FLAGS, "--seed", s, "--out", f"{s}/{name}.json"]
              for name, flags in _TABLES.items()]
    for name, (stat, sample, table, path) in _TESTS.items():
        steps.append(["test", "--stat", stat, "--input", f"{s}/{sample}.csv", "--critvals", f"{s}/{table}.json",
                      "--out", f"{s}/{name}.json", *(["--path-out", f"{s}/{name}.path.csv"] if path else [])])
    steps += [["experiment", "--spec", "spec.json", "--seed", s, "--workers", str(w), "--paths-sample", "2",
               "--out", f"{s}/w{w}/report.csv"] for w in WORKERS]
    return steps


def session(workdir):
    """Run the session in ``workdir``; returns {relative path: sha256} of every file it wrote."""
    from breaklab import cli

    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        with open("spec.json", "w") as f:
            json.dump(_SPEC, f)
        for seed in SEEDS:
            for w in WORKERS:
                os.makedirs(f"{seed}/w{w}")
            for argv in _steps(seed):
                code = cli.main(["-q", *argv])
                if code != 0:
                    raise RuntimeError(f"breaklab {' '.join(argv)} exited {code}")
        digests = {}
        for root, _, files in os.walk("."):
            for name in files:
                path = os.path.relpath(os.path.join(root, name)).replace(os.sep, "/")
                if path != "spec.json":
                    with open(path, "rb") as f:
                        digests[path] = hashlib.sha256(f.read()).hexdigest()
        return dict(sorted(digests.items()))
    finally:
        os.chdir(cwd)


def main():
    with tempfile.TemporaryDirectory() as workdir:
        digests = session(workdir)
    os.makedirs(os.path.dirname(MANIFEST), exist_ok=True)
    with open(MANIFEST, "w") as f:
        json.dump(digests, f, indent=1)
        f.write("\n")
    print(f"wrote {len(digests)} digests to {os.path.relpath(MANIFEST)}", file=sys.stderr)


if __name__ == "__main__":
    main()
