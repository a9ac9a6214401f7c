"""Traced replay of the workloads and the per-layer metrics derived from it.

A traced round makes the workload's own calls (``size_distortion_study``,
``run_experiment``, ``tabulate``, the CLI processes) with every layer
boundary patched, so the spans describe the engine itself in its own order.
Spans are recorded from the benchmark's side only: :func:`layer_patches`
wraps breaklab's public functions at the module attributes through which
the program calls them, so a call made inside the program (``generate``
calling ``kernels.ar1_path``) nests under its caller.  A span is
``[name, start_ns, end_ns, parent]``; spans and counts stay in memory and
are written out when the run ends.  Self time is a span's duration minus
that of its direct children.
"""

import json
import math
import os
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

from common import HERE, median, pass_seed, sha256_text

MODULES = ("rng", "dgp", "estimators", "break_tests", "kernels", "limit_lab", "experiments", "cli")
STAT_SPANS = {
    "cusum": "break_tests.cusum_path",
    "cusumsq": "break_tests.cusum_sq_path",
    "zmean": "break_tests.z_mean_path",
    "wald": "break_tests.wald_path",
}
LIMIT_KERNELS = ("bridge_sup", "qp_sup", "lur_cusum_sup")
CLI_COMMANDS = ("simulate", "critvals", "test", "experiment")
#: spans that make up one replication inside the engine
PER_REP = ("rng.replication_stream", "dgp.generate", "estimators.ols_fit", "break_tests.")


class Tracer:
    """Spans and counts of one process, kept in memory."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.counts = defaultdict(float)

    def call(self, name, fn, *args, **kwargs):
        rec = [name, 0, 0, self.stack[-1] if self.stack else -1]
        self.stack.append(len(self.spans))
        self.spans.append(rec)
        rec[1] = time.perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            rec[2] = time.perf_counter_ns()
            self.stack.pop()

    def dump(self):
        return {"spans": self.spans, "counts": dict(self.counts)}


def _wrap(tracer, name, fn, before=None, after=None):
    def wrapped(*args, **kwargs):
        label = name(*args, **kwargs) if callable(name) else name
        tracer.counts[label + ".calls"] += 1
        if before is not None:
            before(tracer.counts, *args)
        try:
            result = tracer.call(label, fn, *args, **kwargs)
        except Exception:
            tracer.counts[label + ".failed"] += 1
            raise
        if after is not None:
            after(tracer.counts, result)
        return result

    return wrapped


def _kernel_counter(name):
    def before(counts, *arrays_and_params):
        arrays = [a for a in arrays_and_params if hasattr(a, "nbytes")]
        counts[f"kernels.{name}.bytes_in"] += sum(a.nbytes for a in arrays)
        counts[f"kernels.{name}.steps"] += arrays[0].shape[0] * arrays[0].shape[-1]

    return before


def _scan_counter(counts, outcome):
    counts["break_tests.wald_path.scanned"] += len(outcome.ks)
    counts["break_tests.wald_path.skipped"] += len(outcome.skipped)


def layer_patches():
    """(module, attribute, span name, before, after) for every layer boundary.

    A function imported by name into another module is patched there too,
    because that is the reference the caller holds.
    """
    from breaklab import break_tests, cli, dgp, estimators, experiments, kernels, limit_lab, rng

    out = [
        (rng, "replication_stream", "rng.replication_stream", None, None),
        (experiments, "replication_stream", "rng.replication_stream", None, None),
        (limit_lab, "limit_draw_stream", "rng.limit_draw_stream", None, None),
        (dgp, "generate", lambda spec, stream: f"dgp.generate.{spec.family}", None, None),
        (dgp, "sample_to_csv", "dgp.sample_to_csv", None, None),
        (dgp, "sample_from_csv", "dgp.sample_from_csv", None, None),
        (kernels, "ar1_path", "kernels.ar1_path", None, None),
        (kernels, "wald_scan", "kernels.wald_scan", None, None),
        (limit_lab, "tabulate", lambda kind, *a, **k: f"limit_lab.tabulate.{kind}", None, None),
        (limit_lab, "save_table", "limit_lab.save_table", None, None),
        (limit_lab, "load_table", "limit_lab.load_table", None, None),
        (experiments, "resolve_tables", "experiments.resolve_tables", None, None),
        (experiments, "run_experiment", "experiments.run_experiment", None, None),
        (experiments, "report_to_csv", "experiments.report_to_csv", None, None),
        (experiments, "paths_to_csv", "experiments.paths_to_csv", None, None),
    ]
    for mod in (estimators, experiments, break_tests, cli):
        if hasattr(mod, "ols_fit"):
            out.append((mod, "ols_fit", "estimators.ols_fit", None, None))
    for span in STAT_SPANS.values():
        after = _scan_counter if span.endswith("wald_path") else None
        out.append((break_tests, span.split(".")[1], span, None, after))
    for name in LIMIT_KERNELS:
        out.append((kernels, name, f"kernels.{name}", _kernel_counter(name), None))
    for command in CLI_COMMANDS:
        out.append((cli, f"cmd_{command}", f"cli.{command}", None, None))
    return out


@contextmanager
def patched(tracer):
    saved = []
    try:
        for mod, attr, name, before, after in layer_patches():
            fn = getattr(mod, attr)
            saved.append((mod, attr, fn))
            setattr(mod, attr, _wrap(tracer, name, fn, before, after))
        yield tracer
    finally:
        for mod, attr, fn in reversed(saved):
            setattr(mod, attr, fn)


# ---------------------------------------------------------------------------
# span arithmetic
# ---------------------------------------------------------------------------

class SpanSet:
    """Spans of one replay, possibly from several processes."""

    def __init__(self):
        self.trees = []  # list of span lists, one per process
        self.counts = defaultdict(float)

    def add(self, dump):
        self.trees.append(dump["spans"])
        for key, value in dump["counts"].items():
            self.counts[key] += value

    def durations(self, name, top_level=False):
        """Durations (s) of spans called ``name`` (or starting with it + '.')."""
        out = []
        for spans in self.trees:
            for n, start, end, parent in spans:
                if (n == name or n.startswith(name + ".")) and not (top_level and parent != -1):
                    out.append((end - start) * 1e-9)
        return out

    def self_by_module(self):
        totals = defaultdict(float)
        for spans in self.trees:
            child = [0] * len(spans)
            for n, start, end, parent in spans:
                if parent >= 0:
                    child[parent] += end - start
            for i, (n, start, end, _) in enumerate(spans):
                totals[n.split(".")[0]] += (end - start - child[i]) * 1e-9
        return totals


# ---------------------------------------------------------------------------
# replays: the workloads' own calls, with every layer boundary patched
# ---------------------------------------------------------------------------

def engine_overhead_share(spans):
    """Share of the first ``run_experiment`` span not covered by the
    per-replication layer spans directly under it (workers=1)."""
    root = next(i for i, s in enumerate(spans) if s[0] == "experiments.run_experiment")
    covered = sum(end - start for name, start, end, parent in spans
                  if parent == root and name.startswith(PER_REP))
    return 1.0 - covered / (spans[root][2] - spans[root][1])


class Replay:
    """One workload's replay: spans of every round, metrics, digest checks."""

    def __init__(self, name, rounds):
        self.name = name
        self.rounds = rounds
        self.spans = SpanSet()
        self.metrics = {}
        self.mismatches = []
        self.untraced_s = float("nan")
        self.traced_s = float("nan")

    def run(self, workload, seed, traced_round):
        """Warm up, then alternate an untraced pass with ``traced_round``.

        The host slows down for seconds at a time, so the two walls are
        medians over rounds taken in turn.  ``traced_round(first)`` returns
        the wall time of its traced work.
        """
        first = workload.run_pass(seed)
        self.mismatches += workload.check(first)
        untraced, traced, outs = [], [], []
        for _ in range(self.rounds):
            t0 = time.perf_counter()
            outs.append(workload.run_pass(seed))
            untraced.append(time.perf_counter() - t0)
            if outs[-1].digest != first.digest:
                self.mismatches.append(f"{self.name}: untraced passes differ")
            traced.append(traced_round(first))
        self.untraced_s, self.traced_s = median(untraced), median(traced)
        return first, outs


def replay_study(workload, seed):
    """The study pass itself, traced: ``size_distortion_study`` runs the
    engine at workers=1, so every replication's layer calls are recorded."""
    r = Replay("study", rounds=3)
    shares = []

    def traced_round(first):
        tracer = Tracer()
        with patched(tracer):
            t0 = time.perf_counter()
            out = workload.run_pass(seed)
            wall = time.perf_counter() - t0
        dump = tracer.dump()
        r.spans.add(dump)
        shares.append(engine_overhead_share(dump["spans"]))
        if out.digest != first.digest:
            r.mismatches.append("study: traced report differs from the untraced report")
        return wall

    _, outs = r.run(workload, seed, traced_round)
    r.metrics = _layer_metrics(r.spans)
    r.metrics["experiments.run_experiment.s"] = median([out.data["run_s"] for out in outs])
    r.metrics["experiments.engine_overhead_share"] = median(shares)
    return r


def _write_reports(experiments, report, path):
    """Report CSV text and sampled-paths CSV text of ``report``."""
    experiments.report_to_csv(report, path)
    experiments.paths_to_csv(report, path + ".paths.csv")
    with open(path) as fh, open(path + ".paths.csv") as ph:
        return fh.read(), ph.read()


def _draw_floor(seed):
    """Seconds to draw each kind's normals through the same streams, and the count."""
    from breaklab import rng

    import workloads as wl

    floors, normals = {}, 0
    for kind, params in wl.TAB_KINDS:
        shape = {"supqp": (params.get("p", 1), wl.TAB_STEPS), "supabslurcusum": (2, wl.TAB_STEPS)}
        shape = shape.get(kind, (wl.TAB_STEPS,))
        t0 = time.perf_counter()
        for i in range(wl.TAB_DRAWS):
            rng.limit_draw_stream(seed, i).standard_normal(shape)
        floors[kind] = time.perf_counter() - t0
        normals += wl.TAB_DRAWS * math.prod(shape)
    return floors, normals


def replay_tabulate(workload, seed):
    from breaklab import limit_lab

    import workloads as wl

    r = Replay("tabulate", rounds=2)
    floors = []

    def traced_round(first):
        floors.append(_draw_floor(seed))
        tracer = Tracer()
        got = {}
        with patched(tracer):
            t0 = time.perf_counter()
            for kind, params in wl.TAB_KINDS:
                table = limit_lab.tabulate(kind, wl.TAB_LEVELS, wl.TAB_DRAWS, wl.TAB_STEPS,
                                           master_seed=seed, **params)
                got[kind] = {float(lv): float(v) for lv, v in table.quantiles.items()}
            wall = time.perf_counter() - t0
        r.spans.add(tracer.dump())
        if got != first.data["quantiles"]:
            r.mismatches.append("tabulate: traced tables differ from the untraced tables")
        return wall

    r.run(workload, seed, traced_round)
    r.metrics = _layer_metrics(r.spans)
    normals = floors[0][1]
    floor_s = {kind: median([f[kind] for f, _ in floors]) for kind in floors[0][0]}
    r.metrics["rng.normal_floor.ns_per_normal"] = sum(floor_s.values()) / normals * 1e9
    for kind, seconds in floor_s.items():
        r.metrics[f"limit_lab.tabulate.{kind}.floor_ratio"] = r.metrics[f"limit_lab.tabulate.{kind}.s"] / seconds
    return r


def replay_cli(workload, seed):
    from breaklab import break_tests, dgp, experiments, rng

    import workloads as wl

    r = Replay("cli_pipeline", rounds=1)
    spec = experiments.experiment_from_config(wl.cli_spec(seed))
    session, grid = SpanSet(), SpanSet()
    child_records, step_walls, shares, run_walls = [], [], [], {1: [], wl.CLI_WORKERS: []}

    def traced_round(first):
        files = first.data["files"]
        # the same session, each process started through the tracing bootstrap
        dumps = {}

        def launcher(name):
            dumps[name] = os.path.join(workload.workdir, f"trace-{name}.json")
            return [sys.executable, os.path.join(HERE, "traced_cli.py"), dumps[name]]

        t0 = time.perf_counter()
        traced = workload.run_pass(seed, launcher=launcher)
        wall = time.perf_counter() - t0
        if traced.digest != first.digest:
            r.mismatches.append("cli_pipeline: traced session output differs from the untraced one")
        child = {}
        for name, path in dumps.items():
            with open(path) as fh:
                child[name] = json.load(fh)
            session.add(child[name])
        child_records.append(child)
        step_walls.append(traced.steps)
        # the experiment grid in this process: the engine at workers=1, traced
        tracer = Tracer()
        with patched(tracer):
            report = experiments.run_experiment(spec, workers=1, paths_sample=wl.CLI_PATHS)
            reports = {"traced": _write_reports(experiments, report,
                                                os.path.join(workload.workdir, "engine-traced.csv"))}
        dump = tracer.dump()
        grid.add(dump)
        shares.append(engine_overhead_share(dump["spans"]))
        # zmean is undefined off the intercept-only design: time it on location draws
        location = [
            dgp.generate(d, rng.replication_stream(seed, rep))
            for d in spec.dgp_grid if d.family == "location" for rep in range(spec.n_reps)
        ]
        tracer = Tracer()
        with patched(tracer):
            for sample in location:
                break_tests.z_mean_path(sample, 0.15)
        grid.add(tracer.dump())
        for workers in run_walls:
            t0 = time.perf_counter()
            report = experiments.run_experiment(spec, workers=workers, paths_sample=wl.CLI_PATHS)
            run_walls[workers].append(time.perf_counter() - t0)
            reports[workers] = _write_reports(experiments, report,
                                              os.path.join(workload.workdir, f"engine-{workers}.csv"))
        want = (files.get("report.csv"), files.get("report.csv.paths.csv"))
        for key, got in reports.items():
            if got != want:
                r.mismatches.append(f"cli_pipeline: run_experiment ({key}) report or paths differ "
                                    "from the session's")
        return wall

    r.run(workload, seed, traced_round)
    for part in (grid, session):
        r.spans.trees += part.trees
        for key, value in part.counts.items():
            r.spans.counts[key] += value
    r.metrics = _layer_metrics(grid)
    for key, value in _layer_metrics(session).items():
        r.metrics.setdefault(key, value)
    w1, w2 = median(run_walls[1]), median(run_walls[wl.CLI_WORKERS])
    r.metrics["experiments.run_experiment.s"] = w1
    r.metrics["experiments.engine_overhead_share"] = median(shares)
    r.metrics["experiments.parallel_efficiency"] = w1 / (wl.CLI_WORKERS * w2)
    r.metrics["cli.import_s"] = median([c[n]["import_s"] for c in child_records for n in c])
    for name in CLI_COMMANDS:
        r.metrics[f"cli.{name}.s"] = median([w[name] for w in step_walls])
    r.metrics["cli.process_overhead_s"] = median([
        sum(w[n] - c[n]["handler_s"] for n in c) for w, c in zip(step_walls, child_records)
    ])
    return r


REPLAYS = {"study": replay_study, "tabulate": replay_tabulate, "cli_pipeline": replay_cli}


# ---------------------------------------------------------------------------
# per-layer metrics
# ---------------------------------------------------------------------------

def _layer_metrics(spans):
    """Metrics that follow from one replay's spans and counts alone."""
    m = {}
    us = lambda name: median(spans.durations(name)) * 1e6  # noqa: E731
    for name in ("rng.replication_stream", "rng.limit_draw_stream", "estimators.ols_fit",
                 "kernels.ar1_path", "kernels.wald_scan"):
        if spans.durations(name):
            m[f"{name}.us"] = us(name)
    for family in ("location", "linear_regression", "cointegration", "predictive_lur", "ar1"):
        name = f"dgp.generate.{family}"
        if spans.durations(name):
            m[f"{name}.us"] = us(name)
    for name in STAT_SPANS.values():
        if spans.durations(name):
            m[f"{name}.us"] = us(name)
    for name in LIMIT_KERNELS:
        t = sum(spans.durations(f"kernels.{name}"))
        steps = spans.counts.get(f"kernels.{name}.steps", 0)
        if steps:
            nbytes = spans.counts[f"kernels.{name}.bytes_in"]
            m[f"kernels.{name}.ns_per_step"] = t / steps * 1e9
            m[f"kernels.{name}.bytes_in"] = nbytes / spans.counts[f"kernels.{name}.calls"]
            m[f"kernels.{name}.GBps_computed"] = nbytes / t / 1e9
    for kind in ("supabsbb", "supqp", "supabslurcusum", "cvmp1trace"):
        d = spans.durations(f"limit_lab.tabulate.{kind}", top_level=True)
        if d:
            m[f"limit_lab.tabulate.{kind}.s"] = median(d)
    for name, scale, unit in (("dgp.sample_to_csv", 1e3, "ms"), ("dgp.sample_from_csv", 1e3, "ms"),
                              ("limit_lab.save_table", 1e3, "ms"), ("limit_lab.load_table", 1e3, "ms"),
                              ("experiments.report_to_csv", 1e3, "ms"),
                              ("experiments.paths_to_csv", 1e3, "ms"),
                              ("experiments.resolve_tables", 1.0, "s")):
        d = spans.durations(name)
        if d:
            m[f"{name}.{unit}"] = median(d) * scale
    return m


def failure_shares(counts):
    """Statistic calls that raised over calls, and Wald splits skipped over
    splits scanned.  Both are 0 on correct code, so they go in the summary
    rather than among the per-layer metrics."""
    out = {}
    for stat, name in STAT_SPANS.items():
        if counts.get(name + ".calls"):
            out[f"break_tests.{stat}.failed_share"] = counts.get(name + ".failed", 0) / counts[name + ".calls"]
    if counts.get("break_tests.wald_path.scanned"):
        out["break_tests.wald_path.skipped_share"] = (counts["break_tests.wald_path.skipped"]
                                                      / counts["break_tests.wald_path.scanned"])
    return out


def traced_run(workloads_by_name, target, seed):
    """Replay every workload; ``target``'s own replay decides shared metrics.

    Each layer is measured on the traced workload where that workload uses
    it, at its parameters; a layer it does not use is measured on the first
    of study, tabulate, cli_pipeline that does, so every traced run reports
    the full set.
    """
    seed0 = pass_seed(seed, 0)
    replays = {name: REPLAYS[name](wl, seed0) for name, wl in workloads_by_name.items()}
    metrics = {}
    for name in REPLAYS:
        if name != target:
            for key, value in replays[name].metrics.items():
                metrics.setdefault(key, value)
    metrics.update(replays[target].metrics)
    self_s = defaultdict(float)
    for rp in replays.values():
        for module, seconds in rp.spans.self_by_module().items():
            self_s[module] += seconds / rp.rounds
    for module in MODULES:
        metrics[f"{module}.self_s"] = self_s[module]
    own = replays[target]
    metrics["trace.overhead_s"] = own.traced_s - own.untraced_s
    metrics["trace.overhead_share"] = metrics["trace.overhead_s"] / own.untraced_s
    counts = defaultdict(float)
    for rp in replays.values():
        for key, value in rp.spans.counts.items():
            counts[key] += value
    return metrics, failure_shares(counts), replays
