"""The three workloads: inputs from a seed, one timed pass, output checks.

A workload object does its set-up in ``__init__`` (imports, input
generation, table loading), so the set-up probe can time exactly that.
``run_pass(master_seed)`` is one timed unit of work and returns a
:class:`PassOutput`; ``check(out)`` compares that output with the
independent reference in :mod:`reference` and ``check_digest(out)`` with the
digests recorded in ``data/reference.json`` for the default seed.
"""

import csv
import io
import json
import os
import resource
import shutil
import subprocess
import sys
import time
from dataclasses import dataclass, field

from common import (
    DATA,
    RUN_DIR,
    child_env,
    import_breaklab,
    load_json,
    no_pin,
    rel_close,
    sha256_text,
)

# ---------------------------------------------------------------------------
# workload definitions (the benchmark's contract; later changes refer to them)
# ---------------------------------------------------------------------------

#: persistence study: predictive_lur at T=500 over c x corr, cusum + wald
STUDY_C = (0.0, -5.0, -20.0, -200.0)
STUDY_CORR = (0.0, -0.5, -0.95)
STUDY_T = 500
STUDY_STATS = ("cusum", "wald")
STUDY_REPS = 100
STUDY_TABLES = ("supabsbb_p1_nu0.json", "supqp_p2_nu0.15.json")

#: tabulation: each limit functional at the default grid resolution
TAB_KINDS = (
    ("supabsbb", {"p": 1, "nu": 0.0}),
    ("supqp", {"p": 2, "nu": 0.15}),
    ("supabslurcusum", {"c": -5.0, "corr": -0.95}),
    ("cvmp1trace", {}),
)
TAB_DRAWS = 2048
TAB_STEPS = 2000
TAB_LEVELS = (0.90, 0.95, 0.99)

#: CLI session: simulate, critvals, test, then a small-T experiment grid
CLI_SIM = {"family": "predictive_lur", "T": 500, "c": -5.0, "sigma_eps_u": -0.5}
CLI_CRIT = {"kind": "supqp", "p": 2, "nu": 0.15, "reps": 1000, "steps": 2000, "levels": (0.90, 0.95, 0.99)}
CLI_GRID = (
    {"family": "location", "T": 100},
    {"family": "location", "T": 100, "s": 0.5, "beta_pre": [0.0], "beta_post": [0.5]},
    {"family": "linear_regression", "T": 100, "beta_pre": [1.0, 0.5]},
    {"family": "linear_regression", "T": 100, "s": 0.5, "beta_pre": [1.0, 0.5], "beta_post": [1.0, 1.0]},
    {"family": "cointegration", "T": 100, "beta_pre": [1.0], "sigma_eps_u": 0.5},
    {"family": "predictive_lur", "T": 100, "c": -5.0, "sigma_eps_u": -0.5},
    {"family": "ar1", "T": 100, "c": -10.0},
    {"family": "ar1", "T": 100, "s": 0.5, "beta_pre": [0.5], "beta_post": [0.9]},
)
CLI_STATS = ("cusum", "cusumsq", "wald")
CLI_NU = {"cusum": 0.0, "cusumsq": 0.0, "wald": 0.15}
CLI_REPS = 200
CLI_TABLE_REPS = 1000
CLI_WORKERS = 2
CLI_PATHS = 2
CLI_LEVEL = 0.05
#: steps that start a process pool; they are never pinned to one CPU
CLI_POOLED_STEPS = ("experiment",)

#: the CSVs hold 10 significant digits
CSV_RTOL = 1e-8


@dataclass
class PassOutput:
    """What one pass produced: a digest, operation counts, the wall time of
    each of its sequential steps, the reference time taken around each step
    (None when the pass was not pinned), and data to check."""

    digest: str
    evaluations: int
    failures: int
    steps: dict
    data: dict = field(default_factory=dict)
    refs: dict = field(default_factory=dict)


def reference_digests():
    return load_json(os.path.join(DATA, "reference.json"))


def _workdir(tag):
    path = os.path.join(RUN_DIR, f"{tag}-{os.getpid()}")
    os.makedirs(path, exist_ok=True)
    return path


def parse_report(text):
    return list(csv.DictReader(io.StringIO(text)))


def check_report(rows, cells, stats, nus, master_seed, n_reps, cvs):
    """Compare report rows with reference sup statistics of every replication.

    ``cvs`` maps (cell index, stat) to the critical value the row used.
    Returns a list of mismatch descriptions (empty when all rows agree).
    """
    import numpy as np

    import reference as ref

    bad = []
    if len(rows) != len(cells) * len(stats):
        return [f"report has {len(rows)} rows, expected {len(cells) * len(stats)}"]
    it = iter(rows)
    for ci, cfg in enumerate(cells):
        y, X = ref.samples(cfg, master_seed, range(n_reps))
        sups = ref.sup_statistics(y, X, stats, nus)
        for stat in stats:
            row = next(it)
            where = f"{cfg['family']} cell {ci} {stat}"
            if row["stat"] != stat or row["family"] != cfg["family"] or int(row["n_reps"]) != n_reps:
                bad.append(f"{where}: row identity {row['family']},{row['stat']},{row['n_reps']}")
                continue
            if int(row["failed"]) != 0:
                bad.append(f"{where}: {row['failed']} failed replications")
                continue
            s = np.sort(sups[stat])
            cv = cvs[(ci, stat)]
            lo = int(np.count_nonzero(s > cv * (1 + 1e-9)))
            hi = int(np.count_nonzero(s > cv * (1 - 1e-9)))
            rejects = round(float(row["reject_rate"]) * n_reps)
            if not lo <= rejects <= hi:
                bad.append(f"{where}: {rejects} rejections, reference {lo}..{hi}")
            for q, col in ((0.5, "sup_q50"), (0.95, "sup_q95")):
                want = ref.type1_quantile(s, q)
                if not rel_close(float(row[col]), want, CSV_RTOL):
                    bad.append(f"{where}: {col}={row[col]}, reference {want:.10g}")
    return bad


def check_quantiles(got, kind, levels, master_seed, n_draws, n_steps, params):
    import reference as ref

    want = ref.quantiles(kind, levels, master_seed, n_draws, n_steps, **params)
    return [
        f"{kind} q{lv:g}={got[lv]!r}, reference {want[lv]!r}"
        for lv in levels
        if not rel_close(got[lv], want[lv], ref.RTOL)
    ]


# ---------------------------------------------------------------------------
# study
# ---------------------------------------------------------------------------

class Study:
    """The persistence study through ``size_distortion_study``, workers=1."""

    name = "study"
    unit = "replications"

    def __init__(self, seed):
        import_breaklab()
        from breaklab import experiments, limit_lab

        self.experiments = experiments
        self.paths = tuple(os.path.join(DATA, "tables", name) for name in STUDY_TABLES)
        for path in self.paths:  # table loading is part of set-up; a bad table fails here
            limit_lab.load_table(path)
        self.table_source = experiments.TableSource(mode="precomputed", paths=self.paths)
        self.workdir = _workdir("study")

    @property
    def work_per_pass(self):
        return len(STUDY_C) * len(STUDY_CORR) * STUDY_REPS

    def run_pass(self, master_seed, pin=no_pin):
        ex = self.experiments
        out = os.path.join(self.workdir, "report.csv")
        with pin() as ref:
            t0 = time.perf_counter()
            report = ex.size_distortion_study(
                STUDY_C, STUDY_CORR, STUDY_T, STUDY_STATS, STUDY_REPS,
                master_seed=master_seed, table_source=self.table_source, workers=1,
            )
            run_s = time.perf_counter() - t0
            ex.report_to_csv(report, out)
            wall = time.perf_counter() - t0
        with open(out) as fh:
            text = fh.read()
        failures = sum(row.failed for row in report.rows)
        return PassOutput(
            digest=sha256_text(text),
            evaluations=self.work_per_pass * len(STUDY_STATS),
            failures=failures,
            steps={"study": wall},
            data={"report": text, "seed": master_seed, "run_s": run_s},
            refs={"study": ref and ref.seconds},
        )

    @staticmethod
    def cells():
        return [
            {"family": "predictive_lur", "T": STUDY_T, "c": c, "sigma_eps_u": corr}
            for c in STUDY_C
            for corr in STUDY_CORR
        ]

    def check(self, out):
        cvs_by_stat = {}
        for path in self.paths:
            payload = load_json(path)
            stat = "cusum" if payload["kind"] == "supabsbb" else "wald"
            cvs_by_stat[stat] = float(payload["levels"]["0.95"])
        cells = self.cells()
        cvs = {(ci, s): cvs_by_stat[s] for ci in range(len(cells)) for s in STUDY_STATS}
        return check_report(
            parse_report(out.data["report"]), cells, STUDY_STATS,
            {"cusum": 0.0, "wald": 0.15}, out.data["seed"], STUDY_REPS, cvs,
        )

    def check_digest(self, out):
        want = reference_digests()["study"]["report_sha256"]
        return [] if out.digest == want else [f"study report digest {out.digest} != {want}"]

    def close(self):
        shutil.rmtree(self.workdir, ignore_errors=True)


# ---------------------------------------------------------------------------
# tabulate
# ---------------------------------------------------------------------------

class Tabulate:
    """``limit_lab.tabulate`` for each of the four kinds at n_steps=2000."""

    name = "tabulate"
    unit = "draws"

    def __init__(self, seed):
        import_breaklab()
        from breaklab import limit_lab

        self.limit_lab = limit_lab

    @property
    def work_per_pass(self):
        return TAB_DRAWS * len(TAB_KINDS)

    def run_pass(self, master_seed, pin=no_pin):
        got, steps = {}, {}
        with pin() as ref:
            for kind, params in TAB_KINDS:
                t0 = time.perf_counter()
                table = self.limit_lab.tabulate(
                    kind, TAB_LEVELS, TAB_DRAWS, TAB_STEPS, master_seed=master_seed, **params
                )
                steps[kind] = time.perf_counter() - t0
                got[kind] = {float(lv): float(v) for lv, v in table.quantiles.items()}
        failures = sum(1 for q in got.values() for v in q.values() if v != v)
        text = json.dumps({k: {repr(lv): repr(v) for lv, v in q.items()} for k, q in got.items()})
        return PassOutput(
            digest=sha256_text(text),
            evaluations=self.work_per_pass,
            failures=failures,
            steps=steps,
            data={"quantiles": got, "seed": master_seed},
            refs=dict.fromkeys(steps, ref and ref.seconds),
        )

    def check(self, out):
        bad = []
        for kind, params in TAB_KINDS:
            bad += check_quantiles(
                out.data["quantiles"][kind], kind, TAB_LEVELS, out.data["seed"],
                TAB_DRAWS, TAB_STEPS, params,
            )
        return bad

    def check_digest(self, out):
        import reference as ref

        want = reference_digests()["tabulate"]["quantiles"]
        bad = []
        for kind, _ in TAB_KINDS:
            for lv in TAB_LEVELS:
                got, exp = out.data["quantiles"][kind][lv], want[kind][f"{lv:g}"]
                if not rel_close(got, exp, ref.RTOL):
                    bad.append(f"{kind} q{lv:g}={got!r}, recorded {exp!r}")
        return bad

    def close(self):
        pass


# ---------------------------------------------------------------------------
# cli_pipeline
# ---------------------------------------------------------------------------

def cli_spec(master_seed):
    return {
        "master_seed": master_seed,
        "n_reps": CLI_REPS,
        "level": CLI_LEVEL,
        "stat_kinds": list(CLI_STATS),
        "table_source": {"mode": "inline", "n_reps": CLI_TABLE_REPS, "n_steps": TAB_STEPS},
        "dgp_grid": [dict(cfg) for cfg in CLI_GRID],
    }


def cli_steps(workdir, spec_path, master_seed):
    """(name, argv after ``breaklab``) of each step of one session."""
    f = lambda name: os.path.join(workdir, name)  # noqa: E731
    s = str(master_seed)
    sim = ["--family", CLI_SIM["family"], "--T", str(CLI_SIM["T"]), "--c", str(CLI_SIM["c"]),
           "--sigma-eps-u", str(CLI_SIM["sigma_eps_u"])]
    crit = ["--kind", CLI_CRIT["kind"], "--p", str(CLI_CRIT["p"]), "--nu", str(CLI_CRIT["nu"]),
            "--reps", str(CLI_CRIT["reps"]), "--steps", str(CLI_CRIT["steps"]),
            "--levels", ",".join(f"{lv:g}" for lv in CLI_CRIT["levels"])]
    return [
        ("simulate", ["simulate", *sim, "--seed", s, "--out", f("data.csv")]),
        ("critvals", ["critvals", *crit, "--seed", s, "--out", f("table.json")]),
        ("test", ["test", "--stat", "wald", "--input", f("data.csv"), "--critvals", f("table.json"),
                  "--out", f("test.json")]),
        ("experiment", ["experiment", "--spec", spec_path, "--out", f("report.csv"),
                        "--workers", str(CLI_WORKERS), "--paths-sample", str(CLI_PATHS), "--seed", s]),
    ]


def run_process(argv, log_path):
    """Run one process to completion; returns (exit code, wall s, peak RSS MB)."""
    with open(log_path, "ab") as log:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, env=child_env(), stdin=subprocess.DEVNULL,
                                stdout=log, stderr=log)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss / 1024.0


class CliPipeline:
    """A shell session: one ``python -m breaklab.cli`` process per step."""

    name = "cli_pipeline"
    unit = "sessions"

    def __init__(self, seed):
        import_breaklab()
        from breaklab import experiments

        self.workdir = _workdir("cli")
        self.spec_path = os.path.join(self.workdir, "spec.json")
        spec = cli_spec(seed)
        experiments.experiment_from_config(spec)
        with open(self.spec_path, "w") as fh:
            json.dump(spec, fh, indent=2)
        self.peak_rss_mb = 0.0

    work_per_pass = 1

    def run_pass(self, master_seed, pin=no_pin, launcher=None):
        pdir = os.path.join(self.workdir, f"pass-{master_seed}")
        os.makedirs(pdir, exist_ok=True)
        launcher = launcher or (lambda name: [sys.executable, "-m", "breaklab.cli", "-q"])
        walls, codes, refs = {}, {}, {}
        for name, args in cli_steps(pdir, self.spec_path, master_seed):
            with pin(pinned=name not in CLI_POOLED_STEPS) as ref:
                code, wall, rss = run_process(launcher(name) + args, os.path.join(pdir, "stderr.log"))
            walls[name], codes[name], refs[name] = wall, code, ref and ref.seconds
            self.peak_rss_mb = max(self.peak_rss_mb, rss)
        files = {}
        for name in ("data.csv", "table.json", "test.json", "report.csv", "report.csv.paths.csv",
                     "report.csv.provenance.json"):
            path = os.path.join(pdir, name)
            if os.path.exists(path):
                with open(path) as fh:
                    files[name] = fh.read()
        failures = sum(1 for c in codes.values() if c != 0)
        evaluations = len(codes) + len(CLI_GRID) * len(CLI_STATS) * CLI_REPS
        if "report.csv" in files:
            failures += sum(int(r["failed"]) for r in parse_report(files["report.csv"]))
        shutil.rmtree(pdir, ignore_errors=True)
        digest = sha256_text(files.get("report.csv", "") + files.get("report.csv.paths.csv", ""))
        return PassOutput(
            digest=digest, evaluations=evaluations, failures=failures, steps=walls,
            data={"files": files, "codes": codes, "seed": master_seed}, refs=refs,
        )

    def check(self, out):
        import numpy as np

        import reference as ref

        files, s = out.data["files"], out.data["seed"]
        bad = [f"{name} exited {code}" for name, code in out.data["codes"].items() if code != 0]
        if bad:
            return bad
        # simulate: the sample itself
        data = np.loadtxt(io.StringIO(files["data.csv"]), delimiter=",", skiprows=1, ndmin=2)
        y, X = ref.samples(CLI_SIM, s, [0])
        if not (np.allclose(data[:, 1], y[0], rtol=1e-12, atol=1e-12)
                and np.allclose(data[:, 2:], X[0], rtol=1e-12, atol=1e-12)):
            bad.append("simulate: sample differs from the reference DGP")
        # critvals: quantiles of the table
        table = json.loads(files["table.json"])
        got = {float(k): float(v) for k, v in table["levels"].items()}
        bad += check_quantiles(got, CLI_CRIT["kind"], CLI_CRIT["levels"], s, CLI_CRIT["reps"],
                               CLI_CRIT["steps"], {"p": CLI_CRIT["p"], "nu": CLI_CRIT["nu"]})
        # test: sup, k_hat and decision on that sample and table
        res = json.loads(files["test.json"])
        ks, path = ref.stat_paths(y, X, "wald", 0.15)
        best = int(np.argmax(path[0]))
        sup, k_hat = float(path[0, best]), int(ks[best])
        cv = got[0.95]
        if not (rel_close(res["sup"], sup, ref.RTOL) and res["k_hat"] == k_hat
                and res["reject"] == (sup > cv)):
            bad.append(f"test: sup={res['sup']} k_hat={res['k_hat']} reject={res['reject']}, "
                       f"reference {sup!r} {k_hat} {sup > cv}")
        # experiment: inline tables, report rows and sampled paths
        prov = json.loads(files["report.csv.provenance.json"])
        cv_by_key = {}
        for key, tab in prov["tables"].items():
            q = {float(k): float(v) for k, v in tab["levels"].items()}
            params = {"p": int(tab["p"]), "nu": float(tab["nu"])}
            bad += check_quantiles(q, tab["kind"], sorted(q), s, CLI_TABLE_REPS, TAB_STEPS, params)
            cv_by_key[(tab["kind"], params["p"], params["nu"])] = q[1.0 - CLI_LEVEL]
        cvs = {}
        for ci, cfg in enumerate(CLI_GRID):
            dim = 2 if cfg["family"] in ("linear_regression", "predictive_lur") else 1
            for stat in CLI_STATS:
                key = ("supqp", dim, 0.15) if stat == "wald" else ("supabsbb", 1, 0.0)
                cvs[(ci, stat)] = cv_by_key.get(key, float("nan"))
        bad += check_report(parse_report(files["report.csv"]), list(CLI_GRID), CLI_STATS, CLI_NU,
                            s, CLI_REPS, cvs)
        bad += self._check_paths(files["report.csv.paths.csv"], s)
        return bad

    @staticmethod
    def _check_paths(text, master_seed):
        import numpy as np

        import reference as ref

        rows = parse_report(text)
        got = {}
        for r in rows:
            got.setdefault((r["family"], r["s"], r["c"], r["stat"], int(r["rep"])), []).append(
                (int(r["k"]), float(r["value"])))
        bad, seen = [], 0
        for cfg in CLI_GRID:
            y, X = ref.samples(cfg, master_seed, range(CLI_PATHS))
            for stat in CLI_STATS:
                ks, path = ref.stat_paths(y, X, stat, CLI_NU[stat])
                for rep in range(CLI_PATHS):
                    key = (cfg["family"], format(float(cfg.get("s", 0.0)), ".10g"),
                           format(float(cfg.get("c", 0.0)), ".10g"), stat, rep)
                    pts = got.get(key, [])
                    seen += len(pts)
                    want = list(zip(ks.tolist(), path[rep].tolist()))
                    if len(pts) != len(want) or any(
                        k != wk or not rel_close(v, wv, CSV_RTOL) and abs(v - wv) > 1e-12
                        for (k, v), (wk, wv) in zip(pts, want)
                    ):
                        bad.append(f"paths: {key} differs from the reference path")
        if seen != len(rows):
            bad.append(f"paths: {len(rows) - seen} rows that no reference path covers")
        return bad

    def check_digest(self, out):
        want = reference_digests()["cli_pipeline"]["report_and_paths_sha256"]
        return [] if out.digest == want else [f"cli report digest {out.digest} != {want}"]

    def close(self):
        shutil.rmtree(self.workdir, ignore_errors=True)


WORKLOADS = {cls.name: cls for cls in (Study, Tabulate, CliPipeline)}


def peak_rss_mb(workload):
    """Peak resident memory of the processes that ran the workload."""
    if isinstance(workload, CliPipeline):
        return workload.peak_rss_mb
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def probe_setup(name, seed, t0):
    """Entry of the set-up probe: time a workload's set-up from ``t0``."""
    workload = WORKLOADS[name](seed)
    elapsed = time.perf_counter() - t0
    workload.close()
    print(json.dumps({"setup_s": elapsed}))
