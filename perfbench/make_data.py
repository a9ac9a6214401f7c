#!/usr/bin/env python3
"""Regenerate the benchmark's data files.

    python3 perfbench/make_data.py            # data/reference.json only
    python3 perfbench/make_data.py --tables   # also the study's input tables

``data/tables/`` holds the two critical-value tables the ``study`` workload
reads (20000 draws x 2000 steps at the default seed).  ``data/reference.json``
records, for the default seed, the report digests and table quantiles each
timed run compares its warm-up pass with.  Every output is first checked
against the independent reference; nothing is recorded if a check fails.
Regenerate only when a change is meant to alter the outputs, and say so.
"""

import argparse
import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from common import DATA, DEFAULT_SEED, apply_blas_caps, import_breaklab  # noqa: E402

TABLES = (
    ("supabsbb_p1_nu0.json", "supabsbb", {"p": 1, "nu": 0.0}),
    ("supqp_p2_nu0.15.json", "supqp", {"p": 2, "nu": 0.15}),
)


def make_tables():
    import_breaklab()
    from breaklab import limit_lab

    os.makedirs(os.path.join(DATA, "tables"), exist_ok=True)
    for name, kind, params in TABLES:
        table = limit_lab.tabulate(kind, (0.90, 0.95, 0.99), 20000, 2000,
                                   master_seed=DEFAULT_SEED, **params)
        limit_lab.save_table(table, os.path.join(DATA, "tables", name))


def make_reference():
    import workloads as wl

    record = {"seed": DEFAULT_SEED}
    for name, cls in wl.WORKLOADS.items():
        workload = cls(DEFAULT_SEED)
        try:
            out = workload.run_pass(DEFAULT_SEED)
            bad = workload.check(out)
        finally:
            workload.close()
        if bad:
            raise SystemExit(f"{name}: output disagrees with the reference:\n" + "\n".join(bad))
        if name == "tabulate":
            record[name] = {"quantiles": {
                kind: {f"{lv:g}": v for lv, v in q.items()} for kind, q in out.data["quantiles"].items()
            }}
        elif name == "study":
            record[name] = {"report_sha256": out.digest}
        else:
            record[name] = {"report_and_paths_sha256": out.digest}
    with open(os.path.join(DATA, "reference.json"), "w") as fh:
        json.dump(record, fh, indent=2)
        fh.write("\n")


def main():
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--tables", action="store_true", help="also regenerate the study's input tables")
    args = parser.parse_args()
    apply_blas_caps()
    if args.tables:
        make_tables()
    make_reference()


if __name__ == "__main__":
    main()
