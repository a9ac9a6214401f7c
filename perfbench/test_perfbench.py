"""The benchmark's own tests: a seed fixes inputs and digests, and the
output checks reject a wrong result.

    PYTHONPATH=src python -m pytest -q perfbench/test_perfbench.py
"""

import os
import sys

import numpy as np

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import reference as ref  # noqa: E402
import workloads as wl  # noqa: E402
from common import DEFAULT_SEED, HELDOUT_SEED, pass_seed  # noqa: E402


def test_pass_seeds_follow_the_workload_seed():
    seeds = [pass_seed(DEFAULT_SEED, i) for i in range(50)]
    assert seeds == [pass_seed(DEFAULT_SEED, i) for i in range(50)]
    assert len(set(seeds)) == len(seeds)
    assert not set(seeds) & {pass_seed(HELDOUT_SEED, i) for i in range(50)}


def test_inputs_are_identical_for_the_same_seed():
    assert wl.cli_spec(5) == wl.cli_spec(5)
    assert wl.cli_spec(5) != wl.cli_spec(6)
    assert wl.cli_steps("d", "s.json", 5) == wl.cli_steps("d", "s.json", 5)
    for cfg in wl.CLI_GRID + (wl.CLI_SIM,):
        y1, X1 = ref.samples(cfg, 5, range(3))
        y2, X2 = ref.samples(cfg, 5, range(3))
        y3, _ = ref.samples(cfg, 6, range(3))
        assert np.array_equal(y1, y2) and np.array_equal(X1, X2)
        assert not np.array_equal(y1, y3)


def test_study_digest_repeats_and_checks_pass():
    study = wl.Study(DEFAULT_SEED)
    try:
        a, b, c = study.run_pass(11), study.run_pass(11), study.run_pass(12)
        assert a.digest == b.digest != c.digest
        assert study.check(a) == []
        assert a.failures == 0
    finally:
        study.close()


def test_study_check_rejects_a_changed_report():
    study = wl.Study(DEFAULT_SEED)
    try:
        out = study.run_pass(11)
    finally:
        study.close()
    lines = out.data["report"].splitlines()
    cells = lines[3].split(",")
    cells[-1] = format(float(cells[-1]) * (1 + 1e-6), ".10g")  # sup_q95 of one row
    lines[3] = ",".join(cells)
    out.data["report"] = "\n".join(lines) + "\n"
    assert any("sup_q95" in msg for msg in study.check(out))


def test_tabulate_digest_repeats_and_checks_pass():
    tab = wl.Tabulate(DEFAULT_SEED)
    a, b = tab.run_pass(3), tab.run_pass(3)
    assert a.digest == b.digest
    assert tab.check(a) == []
    a.data["quantiles"]["supqp"][0.95] *= 1 + 1e-6
    assert any(msg.startswith("supqp q0.95") for msg in tab.check(a))


def test_recorded_default_seed_outputs_still_match():
    study = wl.Study(DEFAULT_SEED)
    try:
        assert study.check_digest(study.run_pass(DEFAULT_SEED)) == []
    finally:
        study.close()
