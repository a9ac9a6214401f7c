#!/usr/bin/env python3
"""breaklab benchmark: timed and traced runs of the three workloads.

Run from the repository root:

    python3 perfbench/run.py --workload study --seed 12648430 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all            # every workload, one table

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` replays the
workloads layer by layer and reports the per-layer metrics.  The metric
names and units are those of ``BENCHMARK.json``.  Human-readable lines come
first; the last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The full record
(environment, every pass, every check) goes to ``.perfbench_run/``.
"""

import argparse
import json
import os
import subprocess
import sys
import time
import traceback

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from common import (  # noqa: E402
    DEFAULT_SEED,
    HERE,
    HELDOUT_SEED,
    ROOT,
    RUN_DIR,
    BenchError,
    REF_S,
    apply_blas_caps,
    child_env,
    environment,
    least_busy_cpu,
    load_json,
    median,
    pass_seed,
)

SETUP_PROBES = 7
MIN_PASSES = 3
WORKLOAD_NAMES = ("study", "tabulate", "cli_pipeline")


def benchmark_spec():
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(path):
        raise BenchError(f"{path} is missing")
    return load_json(path)


def probe_setups(name, seed):
    """Set-up times of ``name`` in fresh interpreters, one sample per probe,
    and the reference time taken around each."""
    code = (
        "import time; t0 = time.perf_counter(); import sys; "
        f"sys.path.insert(0, {HERE!r}); import workloads; "
        f"workloads.probe_setup({name!r}, {int(seed)}, t0)"
    )
    times, refs = [], []
    for _ in range(SETUP_PROBES):
        with least_busy_cpu() as ref:
            proc = subprocess.run([sys.executable, "-c", code], env=child_env(), cwd=ROOT,
                                  capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            raise BenchError(f"set-up probe for {name} failed:\n{proc.stderr[-2000:]}")
        times.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
        refs.append(ref.seconds)
    return times, refs


def quartiles(values):
    values = sorted(values)
    n = len(values)
    return values[(n - 1) // 4], values[(3 * (n - 1)) // 4]


def timed_run(name, seed, seconds):
    from workloads import WORKLOADS, peak_rss_mb

    workload = WORKLOADS[name](seed)
    checks, walls, outs = {}, [], []
    evaluations = failures = 0
    try:
        warm = workload.run_pass(DEFAULT_SEED)
        # the peak of one full pass, read before the reference work of the
        # pinned blocks adds its own arrays to this process
        rss = peak_rss_mb(workload)
        checks["recorded_digest"] = workload.check_digest(warm)
        setups, setup_refs = probe_setups(name, seed)
        start = time.perf_counter()
        # stop before a pass would end past the measured time
        while len(walls) < MIN_PASSES or time.perf_counter() - start + median(walls) <= seconds:
            t0 = time.perf_counter()
            out = workload.run_pass(pass_seed(seed, len(walls)), pin=least_busy_cpu)
            walls.append(time.perf_counter() - t0)
            evaluations += out.evaluations
            failures += out.failures
            outs.append(out)
        # every timed pass enters a median, so every pass is checked
        for index, out in enumerate(outs):
            checks[f"reference_pass{index}"] = workload.check(out)
    finally:
        workload.close()
    # each step counts at the median over passes of its time over the
    # reference time taken around it; the sum is reported at the speed the
    # reference had on the machine the benchmark was written on
    steps = {step: [out.steps[step] for out in outs] for step in outs[0].steps}
    ratios = {step: [out.steps[step] / out.refs[step] for out in outs] for step in steps}
    wall_s = REF_S * sum(median(values) for values in ratios.values())
    setup_s = REF_S * median([t / r for t, r in zip(setups, setup_refs)])
    metrics = {"wall_s": wall_s, "setup_s": setup_s, "peak_rss_mb": rss}
    record = {
        "workload": name, "seed": seed, "seconds": seconds, "passes": len(walls),
        "work_per_pass": workload.work_per_pass, "unit": workload.unit,
        "pass_walls_s": walls, "step_walls_s": steps, "step_refs_s": [out.refs for out in outs],
        "setup_samples_s": setups, "setup_refs_s": setup_refs, "checks": checks,
        "ref_median_s": median([ref for out in outs for ref in out.refs.values()]),
        "raw_wall_s": sum(median(values) for values in steps.values()), "raw_setup_s": median(setups),
        "evaluations": evaluations, "failures": failures,
        "rate_per_s": workload.work_per_pass / wall_s,
    }
    return metrics, record, evaluations, failures


def traced_run(name, seed):
    import tracing
    from workloads import WORKLOADS

    objs = {}
    try:
        for wname in WORKLOAD_NAMES:
            objs[wname] = WORKLOADS[wname](seed)
        metrics, shares, replays = tracing.traced_run(objs, name, seed)
    finally:
        for obj in objs.values():
            obj.close()
    checks = {rp.name: rp.mismatches for rp in replays.values()}
    spans = {rp.name: {"trees": rp.spans.trees, "counts": rp.spans.counts} for rp in replays.values()}
    os.makedirs(os.path.join(RUN_DIR, "traces"), exist_ok=True)
    with open(os.path.join(RUN_DIR, "traces", f"{name}-seed{seed}.json"), "w") as fh:
        json.dump(spans, fh)
    record = {
        "workload": name, "seed": seed, "checks": checks, "shares": shares,
        "untraced_s": {rp.name: rp.untraced_s for rp in replays.values()},
        "traced_s": {rp.name: rp.traced_s for rp in replays.values()},
    }
    return metrics, record, len(replays), 0


def select_metrics(wanted, measured):
    missing = [m["name"] for m in wanted if m["name"] not in measured]
    if missing:
        raise BenchError(f"metrics not measured: {', '.join(missing)}")
    return {m["name"]: {"value": float(measured[m["name"]]), "unit": m["unit"]} for m in wanted}


def print_summary(name, record, metrics, failed, attempted):
    print(f"workload {name}  seed {record['seed']}  git {record['environment']['git_sha']}")
    if "passes" in record:
        q1, q3 = quartiles(record["pass_walls_s"])
        print(f"  passes {record['passes']} of {record['work_per_pass']} {record['unit']}, "
              f"pass wall q1 {q1:.4f} s, q3 {q3:.4f} s; unscaled wall_s {record['raw_wall_s']:.4f} s, "
              f"setup_s {record['raw_setup_s']:.4f} s, reference median {record['ref_median_s']:.4f} s")
        label = {"study": "reps_per_s", "tabulate": "draws_per_s"}.get(name)
        if label:
            print(f"  {label:<28} {record['rate_per_s']:.6g} 1/s  ({record['work_per_pass']} / wall_s)")
    for key, m in metrics.items():
        print(f"  {key:<28} {m['value']:.6g} {m['unit']}")
    print(f"  {'failed_share':<28} {failed / attempted:.6g} ratio  ({failed} of {attempted})")
    for key, value in record.get("shares", {}).items():
        print(f"  {key:<28} {value:.6g} ratio")
    for key, bad in record["checks"].items():
        print(f"  check {key}: {'ok' if not bad else '; '.join(bad[:5])}")
    env = record["environment"]
    print(f"  env: nproc {env['nproc']}, python {env['python']}, numpy {env['numpy']}, "
          f"scipy {env['scipy']}, {env['blas']}, backend {env['breaklab_backend']}, "
          f"caps {env['blas_thread_caps']}")


def run_one(args):
    spec = benchmark_spec()
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        raise BenchError(f"unknown workload {args.workload!r}")
    os.makedirs(RUN_DIR, exist_ok=True)
    if args.trace:
        measured, record, evaluations, failures = traced_run(args.workload, args.seed)
        wanted = spec["per_layer"]
    else:
        measured, record, evaluations, failures = timed_run(args.workload, args.seed, args.seconds)
        wanted = spec["end_to_end"]
    metrics = select_metrics(wanted, measured)
    record["environment"] = environment()
    record["metrics"] = metrics
    mismatches = sum(len(bad) for bad in record["checks"].values())
    attempted = evaluations + len(record["checks"])
    failed = failures + sum(1 for bad in record["checks"].values() if bad)
    os.makedirs(os.path.join(RUN_DIR, "results"), exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S")
    out = os.path.join(RUN_DIR, "results", f"{args.workload}-seed{args.seed}-trace{args.trace}-{stamp}.json")
    with open(out, "w") as fh:
        json.dump(record, fh, indent=1)
    print_summary(args.workload, record, metrics, failed, attempted)
    print(json.dumps({"correct": mismatches == 0 and failures == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))


def run_all(args):
    """Each workload in its own process.

    Prints their summaries, then one result line that joins theirs: metric
    names are prefixed with the workload's.  Returns 0 when every workload
    printed a result.
    """
    joined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    code = 0
    for name in WORKLOAD_NAMES:
        argv = [sys.executable, os.path.abspath(__file__), "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=600)
        if proc.returncode != 0:
            print(proc.stderr[-2000:], file=sys.stderr)
            code = code or proc.returncode
            continue
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        joined["correct"] = joined["correct"] and result["correct"]
        joined["attempted"] += result["attempted"]
        joined["failed"] += result["failed"]
        for key, metric in result["metrics"].items():
            joined["metrics"][f"{name}.{key}"] = metric
    if code == 0:
        print(json.dumps(joined))
    return code


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, help="study, tabulate, cli_pipeline or all")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help=f"workload seed (default {DEFAULT_SEED}; {HELDOUT_SEED} is kept for checking claims)")
    parser.add_argument("--seconds", type=float, default=15.0, help="measured time per timed run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0, help="1 = traced per-layer run")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    apply_blas_caps()
    try:
        if args.workload == "all":
            return run_all(args)
        run_one(args)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    except Exception:  # report and fail without printing a result line
        traceback.print_exc()
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
