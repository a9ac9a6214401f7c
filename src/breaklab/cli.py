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
"""

import argparse
import json
import logging
import os
import sys
from contextlib import suppress

from . import break_tests, dgp, experiments, limit_lab
from .errors import DataError, NumericalError, SpecError
from .estimators import ols_fit
from .rng import DEFAULT_MASTER_SEED, SeedSpec, derive_stream
from .schema import SCHEMA_VERSION, check_writable, float_policy, jsonable, opened, read_json

log = logging.getLogger("breaklab")


class _StderrHandler(logging.StreamHandler):
    """Writes each record to the ``sys.stderr`` of that moment, never to a
    stream an in-process caller has since swapped or closed."""

    stream = property(lambda self: sys.stderr, lambda self, stream: None)


class _Parser(argparse.ArgumentParser):
    """argparse variant whose usage errors exit 1 instead of 2."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


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
    tst.add_argument("--level", type=float, default=0.05, help="significance level for the decision")
    tst.add_argument("--critvals", help="critical-value table JSON; enables the decision fields")
    tst.add_argument("--path-out", help="also write the statistic path as CSV with columns k,value")
    tst.add_argument(
        "--on-singular",
        choices=(break_tests.ON_SINGULAR_SKIP, break_tests.ON_SINGULAR_FAIL),
        default=break_tests.ON_SINGULAR_SKIP,
        help="wald only: skip singular regime fits or fail hard",
    )
    tst.add_argument(
        "--cusumsq-norm",
        choices=(break_tests.CUSUMSQ_NORM_SQ_SD, break_tests.CUSUMSQ_NORM_RESID_SD),
        default=break_tests.CUSUMSQ_NORM_SQ_SD,
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
    cvs.add_argument("--p", type=int, default=1, help="dimension of the functional")
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
    with opened(sidecar, "provenance", "w") as fh:
        json.dump(jsonable(payload), fh, indent=2)
        fh.write("\n")
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


def cmd_test(args):
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
    text = json.dumps(jsonable(payload), indent=2) + "\n"
    if args.out:
        with opened(args.out, "outcome", "w") as fh:
            fh.write(text)
        log.info("wrote outcome to %s", args.out)
    else:
        sys.stdout.write(text)
    if args.path_out:
        lines = ["k,value"]
        lines.extend(
            f"{int(k)},{format(float(v), '.17g')}" for k, v in zip(outcome.ks, outcome.path)
        )
        with opened(args.path_out, "path", "w") as fh:
            fh.write("\n".join(lines) + "\n")
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
# dispatch
# ---------------------------------------------------------------------------

def dispatch(argv):
    """Parse and run; returns the process exit code."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
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


def main(argv=None):
    return dispatch(argv if argv is not None else sys.argv[1:])


def run(argv=None):
    """The process entry point: :func:`main`, then flush standard output and
    standard error and exit with its code, skipping interpreter teardown.

    An exception escaping ``main`` takes the interpreter's usual path (a
    traceback, exit 1).  A flush that fails, as on a closed pipe, exits 120,
    as the interpreter's own teardown does.
    """
    code = main(argv)
    for stream, name in ((sys.stdout, "output"), (sys.stderr, "error")):
        try:
            if stream is not None:  # None: the interpreter started without that stream
                stream.flush()
        except (OSError, ValueError) as exc:  # a closed pipe or stream
            code = 120
            with suppress(AttributeError, OSError, ValueError):
                sys.stderr.write(f"breaklab: cannot flush standard {name}: {exc}\n")
                sys.stderr.flush()
    os._exit(code)


if __name__ == "__main__":
    run()
