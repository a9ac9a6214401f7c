"""Command-line entry point.

Subcommands: ``simulate`` (write a sample CSV), ``test`` (run one break
statistic on a CSV), ``critvals`` (simulate a critical-value table), and
``experiment`` (Monte Carlo grid to a report CSV).

Exit codes: 0 success, 1 usage error, 2 data/spec error, 3 internal
numerical failure.  Human-readable output goes to standard error; machine
output goes to files or standard output only.  Every output carries a
provenance echo of the effective merged configuration: JSON outputs embed it
under ``provenance``, CSV outputs get a ``<out>.provenance.json`` sidecar.

A process (``python -m breaklab.cli`` or the ``breaklab`` script) runs
:func:`run`: once every output is closed and standard output and standard
error are flushed, it exits at once, without interpreter teardown.  The exit
codes are those above.  :func:`main` returns the code, so an in-process
caller carries on after it.

Every write and flush of standard output and standard error (log records, help
and usage, ``test``'s outcome, the exit flushes) goes through ``_stdio``: a
failed one exits 120 with one ``breaklab: cannot ...`` line on standard error,
except a log record's, so a closed standard error loses the log, not the code.

Each command loads only the modules it runs: the parser reads its choices
from ``dgp``, ``limit_lab`` and ``break_tests``, and only ``experiment``
loads the replication engine (``experiments``).  So ``simulate``,
``critvals`` and ``test`` never import it or its process pool.
"""

# The package's modules (and numpy) load before the standard library ones the
# command line adds: a process that compiles its sources keeps some heap from
# each compile, and this order leaves an experiment's peak memory 0.05-0.1 MB
# lower than loading argparse first.
from . import break_tests, dgp, limit_lab
from .errors import DataError, NumericalError, SpecError
from .estimators import ols_fit
from .rng import DEFAULT_MASTER_SEED, SeedSpec, derive_stream
from .schema import SCHEMA_VERSION, check_writable, csv_text, float_policy, json_text, read_json, write_text

import argparse
import logging
import os
import sys
from contextlib import suppress

log = logging.getLogger("breaklab")


def _stdio(name, text=None):
    """Write ``text`` to standard ``name`` ("output" or "error") as ``sys`` holds it now, or flush
    it if ``text`` is None; a None stream (the interpreter started without it) is skipped.  Returns
    0, or 120 on a failed stream (a closed pipe or stream), after one line on standard error if it can."""
    stream = sys.stdout if name == "output" else sys.stderr
    try:
        if stream is not None:
            stream.flush() if text is None else stream.write(text)
        return 0
    except (OSError, ValueError) as exc:
        with suppress(AttributeError, OSError, ValueError):
            sys.stderr.write(f"breaklab: cannot {'flush' if text is None else 'write'} standard {name}: {exc}\n")
            sys.stderr.flush()
        return 120


class _StderrHandler(logging.Handler):
    """Writes and flushes each record by :func:`_stdio`: a closed standard error loses the log, not the command."""

    def emit(self, record):
        _stdio("error", self.format(record) + "\n") or _stdio("error")


class _Parser(argparse.ArgumentParser):
    """argparse variant whose usage errors exit 1 instead of 2, and whose failed
    write (help or usage to a closed pipe or stream) exits 120, naming the stream."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")

    def _print_message(self, message, file=None):
        if message and (code := _stdio("output" if file is not None and file is sys.stdout else "error", message)):
            self.exit(code)


def _coef_list(text):
    try:
        return [float(v) for v in text.split(",") if v.strip() != ""]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated numbers, got {text!r}")


def build_parser():
    parser = _Parser(prog="breaklab", description=__doc__.splitlines()[0])
    parser.add_argument("-v", "--verbose", action="count", default=0, help="more logging (repeatable)")
    parser.add_argument("-q", "--quiet", action="store_true", help="warnings and errors only")
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser(
        "simulate",
        help="generate one sample and write it as CSV (header t,y,x1,...,xp)",
        description="Generate one dataset from a data-generating process spec.",
    )
    sim.add_argument("--config", help="flat JSON config with the documented DGP keys")
    sim.add_argument("--family", choices=dgp.FAMILIES, help="model family")
    sim.add_argument("--T", type=int, help="sample size (>= 4)")
    sim.add_argument("--s", type=float, help="break fraction in [0,1]; 0 or 1 = no break")
    for regime in ("pre", "post"):  # --mu-*: the same key given one number, which the config reader takes
        coefs = sim.add_mutually_exclusive_group()
        coefs.add_argument(f"--beta-{regime}", type=_coef_list, help=f"{regime}-break coefficients, comma separated")
        coefs.add_argument(f"--mu-{regime}", type=float, dest=f"beta_{regime}", help=f"--beta-{regime} of one number")
    sim.add_argument("--sigma-eps", type=float, dest="sigma_eps_sq", metavar="SIGMA_EPS",
                     help="variance of the response innovation")
    sim.add_argument("--sigma-u", type=float, dest="sigma_u_sq", metavar="SIGMA_U",
                     help="variance of the regressor innovation")
    sim.add_argument("--sigma-eps-u", type=float, help="covariance of the two innovations")
    sim.add_argument("--c", type=float, help="persistence parameter; root = 1 + c/T, c <= 0 near-stationary")
    sim.add_argument("--mu", type=float, help="intercept of the predictive regression")
    sim.add_argument("--x0", type=float, help="initial condition of the integrated/persistent regressor")
    sim.add_argument("--seed", type=int, default=DEFAULT_MASTER_SEED, help="master seed (default 0xC0FFEE)")
    sim.add_argument("--stream", type=int, default=0, help="stream id (replication index)")
    sim.add_argument("--out", required=True, help="output CSV path")
    sim.set_defaults(handler=cmd_simulate)

    tst = sub.add_parser(
        "test",
        help="compute one break statistic on a CSV sample",
        description="Run a break-point test and emit the outcome as JSON.",
    )
    tst.add_argument("--stat", required=True, choices=tuple(_TESTS))
    tst.add_argument("--input", required=True, help="sample CSV (header t,y,x1,...,xp)")
    tst.add_argument("--nu", type=float, help="trimming fraction (default depends on the statistic)")
    tst.add_argument("--level", type=float, default=_TEST_ONLY["level"][0],
                     help="with --critvals only: significance level for the decision")
    tst.add_argument("--critvals", help="critical-value table JSON; enables the decision fields")
    tst.add_argument("--path-out", help="also write the statistic path as CSV with columns k,value")
    tst.add_argument(
        "--on-singular",
        choices=(break_tests.ON_SINGULAR_SKIP, break_tests.ON_SINGULAR_FAIL),
        default=_TEST_ONLY["on_singular"][0],
        help="wald only: skip singular regime fits or fail hard",
    )
    tst.add_argument(
        "--cusumsq-norm",
        choices=(break_tests.CUSUMSQ_NORM_SQ_SD, break_tests.CUSUMSQ_NORM_RESID_SD),
        default=_TEST_ONLY["cusumsq_norm"][0],
        help="cusumsq only: scale by the sd of squared residuals (default) or the residual sd",
    )
    tst.add_argument("--out", help="write the JSON outcome here instead of stdout")
    tst.set_defaults(handler=cmd_test)

    cvs = sub.add_parser(
        "critvals",
        help="simulate a critical-value table for a limit functional",
        description="Tabulate quantiles of a simulated limit functional.",
    )
    cvs.add_argument("--kind", required=True, choices=limit_lab.FUNCTIONAL_KINDS)
    cvs.add_argument("--p", type=int, default=1, help="dimension of the functional (supqp)")
    cvs.add_argument("--nu", type=float, help="trimming (default: that of the statistics it calibrates)")
    cvs.add_argument("--c", type=float, help="persistence parameter (supabslurcusum)")
    cvs.add_argument("--corr", type=float, help="innovation correlation (supabslurcusum)")
    cvs.add_argument("--reps", type=int, default=100000, help="number of draws (>= 1000)")
    cvs.add_argument("--steps", type=int, default=limit_lab.DEFAULT_N_STEPS, help="grid resolution")
    cvs.add_argument("--levels", type=_coef_list, default=[0.90, 0.95, 0.99], help="quantile levels")
    cvs.add_argument("--seed", type=int, default=DEFAULT_MASTER_SEED, help="master seed (default 0xC0FFEE)")
    cvs.add_argument("--out", required=True, help="output JSON path")
    cvs.set_defaults(handler=cmd_critvals)

    exp = sub.add_parser(
        "experiment",
        help="run a Monte Carlo grid and write the report CSV",
        description="Run a size/power experiment from a JSON spec.",
    )
    exp.add_argument("--spec", required=True, help="experiment spec JSON")
    exp.add_argument("--out", required=True, help="report CSV path")
    exp.add_argument("--workers", type=int, default=1, help="worker processes (results identical for any count)")
    exp.add_argument("--paths-sample", type=int, default=0, help="dump the first K statistic paths per cell")
    exp.add_argument("--seed", type=int, help="override master_seed from the spec")
    exp.add_argument("--n-reps", type=int, help="override n_reps from the spec")
    exp.add_argument("--level", type=float, help="override the significance level")
    exp.add_argument("--nu", type=float, help="override the trimming for every statistic")
    exp.set_defaults(handler=cmd_experiment)

    return parser


# ---------------------------------------------------------------------------
# handlers
# ---------------------------------------------------------------------------

def _write_provenance(out_path, payload):
    sidecar = out_path + ".provenance.json"
    write_text(sidecar, "provenance", json_text(payload))
    log.info("wrote provenance sidecar %s", sidecar)


def _merged_dgp_config(args):
    cfg = read_json(args.config, "config") if args.config else {}
    for key in dgp.CONFIG_KEYS:  # every config key has a flag of that dest
        if getattr(args, key) is not None:
            cfg[key] = getattr(args, key)
    return cfg


def cmd_simulate(args):
    check_writable(args.out, args.out + ".provenance.json")
    cfg = _merged_dgp_config(args)
    spec = dgp.spec_from_config(cfg)
    stream = derive_stream(SeedSpec(args.seed, args.stream))
    with float_policy():
        sample = dgp.generate(spec, stream)
    dgp.sample_to_csv(sample, args.out)
    _write_provenance(
        args.out,
        {
            "schema_version": SCHEMA_VERSION,
            "command": "simulate",
            "config": dgp.spec_to_config(spec),
            "seed": args.seed,
            "stream": args.stream,
            "output": args.out,
        },
    )
    log.info("wrote %d rows to %s", sample.n_obs, args.out)
    return 0


#: the statistics ``test`` runs: kind -> its one-sample outcome under the command's
#: flags (a --nu of None is the statistic's default trimming).  A kind added by
#: ``break_tests.register_statistic`` has no one-sample outcome, so it is not offered
_TESTS = {
    "cusum": lambda sample, args: break_tests.cusum_path(ols_fit(sample), args.nu),
    "cusumsq": lambda sample, args: break_tests.cusum_sq_path(
        ols_fit(sample), args.nu, normalization=args.cusumsq_norm
    ),
    "zmean": lambda sample, args: break_tests.z_mean_path(sample, args.nu),
    "wald": lambda sample, args: break_tests.wald_path(sample, args.nu, on_singular=args.on_singular),
}

#: the flags of ``test`` that only some runs read: dest -> (default, the runs that read
#: it, whether ``args`` is such a run); any other run refuses a value off the default
_TEST_ONLY = {
    "level": (0.05, "with --critvals", lambda args: args.critvals is not None),
    "on_singular": (break_tests.ON_SINGULAR_SKIP, "by --stat wald", lambda args: args.stat == "wald"),
    "cusumsq_norm": (break_tests.CUSUMSQ_NORM_SQ_SD, "by --stat cusumsq", lambda args: args.stat == "cusumsq"),
}


def cmd_test(args):
    for dest, (default, runs, reads) in _TEST_ONLY.items():  # before the input is read
        if getattr(args, dest) != default and not reads(args):
            raise SpecError(f"--{dest.replace('_', '-')} is read only {runs}, got {getattr(args, dest)!r}")
    check_writable(args.out, args.path_out)
    sample = dgp.sample_from_csv(args.input)
    with float_policy():
        outcome = _TESTS[args.stat](sample, args)
    if args.critvals:
        table = limit_lab.load_table(args.critvals)
        outcome = break_tests.decide(outcome, table, args.level)
    record = outcome.to_record()
    payload = {
        "schema_version": SCHEMA_VERSION,
        **record,
        "provenance": {
            "command": "test",
            "input": args.input,
            "stat": args.stat,
            "nu": record["nu"],
            "level": args.level,
            "critvals": args.critvals,
            "on_singular": args.on_singular,
            "cusumsq_norm": args.cusumsq_norm,
        },
    }
    text = json_text(payload)
    if args.out:
        write_text(args.out, "outcome", text)
        log.info("wrote outcome to %s", args.out)
    elif code := _stdio("output", text):
        return code
    if args.path_out:
        rows = ([str(int(k)), format(float(v), ".17g")] for k, v in zip(outcome.ks, outcome.path))
        write_text(args.path_out, "path", csv_text(("k", "value"), rows))
        log.info("wrote statistic path to %s", args.path_out)
    return 0


def cmd_critvals(args):
    check_writable(args.out)
    nu = args.nu
    if nu is None:
        recipes = break_tests.STAT_RECIPES.values()
        nu = next((r.default_nu for r in recipes if args.kind in r.table_kinds), 0.0)
    table = limit_lab.tabulate(
        args.kind,
        levels=args.levels,
        n_reps=args.reps,
        n_steps=args.steps,
        master_seed=args.seed,
        p=args.p,
        nu=nu,
        c=args.c,
        corr=args.corr,
    )
    limit_lab.save_table(table, args.out)
    log.info("wrote critical-value table to %s", args.out)
    return 0


def cmd_experiment(args):
    from . import experiments

    paths_file = args.out + ".paths.csv" if args.paths_sample > 0 else None
    check_writable(args.out, args.out + ".provenance.json", paths_file)
    cfg = read_json(args.spec, "experiment spec")
    overrides = {"master_seed": args.seed, "n_reps": args.n_reps, "level": args.level, "nu": args.nu}
    for key, value in overrides.items():
        if value is not None:
            cfg[key] = value
    spec = experiments.experiment_from_config(cfg)
    report = experiments.run_experiment(spec, workers=args.workers, paths_sample=args.paths_sample)
    experiments.report_to_csv(report, args.out)
    _write_provenance(args.out, report.provenance)
    if paths_file is not None:
        experiments.paths_to_csv(report, paths_file)
        log.info("wrote sampled paths to %s", paths_file)
    log.info("wrote %d report rows to %s", len(report.rows), args.out)
    return 0


# ---------------------------------------------------------------------------
# entry points
# ---------------------------------------------------------------------------

def main(argv=None):
    """Parse ``argv`` (default ``sys.argv[1:]``) and run; returns the process exit code."""
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else int(exc.code)
    level = logging.INFO
    if args.quiet:
        level = logging.WARNING
    elif args.verbose >= 1:
        level = logging.DEBUG
    logging.basicConfig(
        handlers=[_StderrHandler()],
        level=level,
        format="%(levelname)s %(name)s: %(message)s",
        force=True,
    )
    try:
        return args.handler(args)
    except (SpecError, DataError) as exc:
        log.error("%s", exc)
        return 2
    except NumericalError as exc:
        log.error("numerical failure: %s", exc)
        return 3


def run(argv=None):
    """The process entry point: :func:`main`, then flush standard output and
    standard error and exit with its code, skipping interpreter teardown.

    An exception escaping ``main`` takes the interpreter's usual path (a
    traceback, exit 1).  A flush that fails, as on a closed pipe, exits 120,
    as the interpreter's own teardown does; so does a command whose write to
    standard output failed.
    """
    code = main(argv)
    for name in ("output", "error"):
        code = _stdio(name) or code
    os._exit(code)


if __name__ == "__main__":
    run()
