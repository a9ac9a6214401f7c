"""Monte Carlo experiment engine for size and power studies.

Replication r of every cell draws from the stream (master_seed, r), so a
report is a pure function of its spec: reruns with any worker count produce
byte-identical results.  The cells of a grid are grouped by the shape of
the normals their DGP draws (:func:`~breaklab.dgp.draw_shape`); cells of
one group draw the same normals, so each stack of replications draws them
once for the whole group.  A group's replications are cut into nearly equal
stacks of at most :data:`CHUNK_SIZE`, bounded by :data:`STACK_BYTES` and
enough to keep every worker busy, and one payload is one stack of one group;
all payloads go through one map, over a process pool of at most one worker
per payload when ``workers > 1``, so no worker waits at a cell boundary.
Results are then aggregated, logged and reported per cell in grid order.  A
payload's replications are generated together and evaluated together: the
cells of one covariance share one pair transform of the normals, each cell's
stack gets one pooled fit, and each statistic is evaluated once on the
stacked fits.
"""

import logging
from dataclasses import MISSING, dataclass, field, fields, is_dataclass

import numpy as np

from . import dgp, limit_lab
from .break_tests import STAT_RECIPES, register_statistic, scan_range  # noqa: F401  (re-exported)
from .errors import SpecError, TableLookupError
from .estimators import ols_fit
from .rng import DEFAULT_MASTER_SEED, LIMIT_DRAW_STREAM_OFFSET, InnovCov, SeedSpec, gaussian_pairs, replication_stream
from .schema import SCHEMA_VERSION, csv_text, float_policy, json_object, jsonable, typed, write_text

log = logging.getLogger(__name__)

#: most replications per worker task; a large design's stack (:func:`stack_size`)
#: or fewer tasks than workers cuts them smaller.  No result depends on the cut:
#: each replication draws its own stream
CHUNK_SIZE = 256

PATHS_COLUMNS = ("family", "T", "s", "c", "corr", "stat", "rep", "k", "value")


# ---------------------------------------------------------------------------
# experiment specification
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TableSource:
    """Where critical values come from: saved files or inline simulation; a mode reads only its ``_READS``."""

    mode: str
    paths: tuple = ()
    n_reps: int = 20000
    n_steps: int = limit_lab.DEFAULT_N_STEPS

    _READS = {"precomputed": ("paths",), "inline": ("n_reps", "n_steps")}  # unannotated, so not a field

    def __post_init__(self):
        if self.mode not in tuple(self._READS):  # a tuple: mode may be any JSON value, unhashable too
            raise SpecError(f"table_source mode must be 'precomputed' or 'inline', got {self.mode!r}")
        if self.mode == "precomputed" and not self.paths:
            raise SpecError("precomputed table_source needs at least one table path")
        object.__setattr__(self, "paths", tuple(self.paths))
        for f in fields(self):
            value = getattr(self, f.name)
            if f.name not in ("mode", *self._READS[self.mode]) and value != f.default:
                raise SpecError(f"table_source mode {self.mode!r} does not read {f.name}, got {jsonable(value)!r}")


@dataclass(frozen=True)
class ExperimentSpec:
    """Grid of DGPs crossed with statistics, plus calibration choices.

    ``nu`` of None means each statistic uses its own default trimming.
    """

    dgp_grid: tuple
    stat_kinds: tuple
    nu: float | None = None
    level: float = 0.05
    n_reps: int = 1000
    table_source: TableSource = field(default_factory=lambda: TableSource(mode="inline"))
    master_seed: int = DEFAULT_MASTER_SEED

    def __post_init__(self):
        object.__setattr__(self, "dgp_grid", tuple(self.dgp_grid))
        object.__setattr__(self, "stat_kinds", tuple(self.stat_kinds))
        if not self.dgp_grid:
            raise SpecError("experiment needs at least one DGP in dgp_grid")
        unknown = [k for k in self.stat_kinds if k not in STAT_RECIPES]
        if unknown:
            raise SpecError(f"unknown statistic kind(s) in stat_kinds: {', '.join(map(str, unknown))}")
        if not self.stat_kinds:
            raise SpecError("experiment needs at least one statistic kind in stat_kinds")
        if not 100 <= self.n_reps <= LIMIT_DRAW_STREAM_OFFSET:  # replication ids stay below the limit draws'
            raise SpecError(f"n_reps must be at least 100 and at most 2**63, got {self.n_reps}")
        SeedSpec(self.master_seed, 0)  # a master seed that names no stream fails before any table
        if not 0.0 < self.level < 1.0:
            raise SpecError(f"level must lie in (0, 1), got {self.level}")
        for cell, dspec in enumerate(self.dgp_grid):  # a cell a statistic cannot run on fails before any draw
            for kind in self.stat_kinds:
                try:
                    if kind == "zmean" and not dspec.intercept_only:
                        raise SpecError("statistic requires the intercept-only model (a single all-ones column)")
                    scan_range(dspec.T, dspec.design_dim, self.nu_for(kind))
                except SpecError as exc:
                    raise SpecError(f"dgp_grid[{cell}] ({dspec.family}, T={dspec.T}) with {kind}: {exc}") from None

    def nu_for(self, kind):
        return STAT_RECIPES[kind].default_nu if self.nu is None else float(self.nu)

    def table_key(self, kind, dspec):
        """(table_kind, p, nu) calibrating ``kind`` on ``dspec``; None for a critical value of 0."""
        recipe = STAT_RECIPES[kind]
        if recipe.table_kinds:
            return (recipe.table_kinds[0], recipe.limit_dim(dspec.design_dim), self.nu_for(kind))
        return None


def experiment_to_config(spec):
    ts = spec.table_source
    given = {
        "dgp_grid": [dgp.spec_to_config(d) for d in spec.dgp_grid],
        "table_source": {"mode": ts.mode, **{name: getattr(ts, name) for name in ts._READS[ts.mode]}},
    }
    return {f.name: jsonable(given.get(f.name, getattr(spec, f.name))) for f in fields(spec)}


def _from_config(cls, cfg, where, **nested):
    """``cls`` from the JSON object ``cfg``, whose keys must be fields of ``cls``; a field
    without a default must be given.  A value is read by its field's type (a number, a
    list of strings for a tuple, a string as it is, None where that is the default, an
    object for a dataclass), or by ``nested[name](value, label)``."""
    required = [f.name for f in fields(cls) if f.default is MISSING and f.default_factory is MISSING]
    json_object(cfg, where, SpecError, [f.name for f in fields(cls)], required)
    kwargs = {}
    for f in fields(cls):
        if f.name not in cfg:
            continue
        label, value = f"{where} key {f.name!r}", cfg[f.name]
        if f.name in nested:
            value = nested[f.name](value, label)
        elif is_dataclass(f.type):
            value = _from_config(f.type, json_object(value, label, SpecError), f.name)
        elif f.type is tuple:
            if not (isinstance(value, (list, tuple)) and all(isinstance(v, str) for v in value)):
                raise SpecError(f"{label} must be a list of strings, got {value!r}")
        elif f.type is not str and not (value is None and f.default is None):
            value = typed(int if f.type is int else float, value, label, SpecError)
        kwargs[f.name] = value
    return cls(**kwargs)


def _grid_from_config(cells, label):
    if not isinstance(cells, (list, tuple)):
        raise SpecError(f"{label} must be a list, got {cells!r}")
    grid = []
    for cell, cfg in enumerate(cells):
        try:
            grid.append(dgp.spec_from_config(cfg))
        except SpecError as exc:
            raise SpecError(f"dgp_grid[{cell}]: {exc}") from None
    return grid


def experiment_from_config(cfg):
    return _from_config(ExperimentSpec, cfg, "experiment config", dgp_grid=_grid_from_config)


# ---------------------------------------------------------------------------
# critical-value resolution
# ---------------------------------------------------------------------------

def required_table_keys(spec):
    """(table_kind, p, nu) triples the experiment needs."""
    keys = {spec.table_key(kind, d) for d in spec.dgp_grid for kind in spec.stat_kinds}
    return keys - {None}


def resolve_tables(spec):
    """Map every required (table_kind, p, nu) to a CriticalValueTable.

    Raises :class:`TableLookupError` when a table is missing, when two
    precomputed files cover the same key, or when a table lacks the quantile
    at ``1 - spec.level``.  Inline keys are all checked before any is drawn,
    and then drawn together (:func:`limit_lab.tabulate_together`): each
    sub-block's normals are drawn once and every key reduces its prefix of
    them, so each table is bit for bit the one ``tabulate`` draws alone.
    """
    keys = required_table_keys(spec)
    ts = spec.table_source
    tables = {}
    if ts.mode == "precomputed":
        loaded = {path: limit_lab.load_table(path) for path in ts.paths}
        for key in keys:
            kind, p, nu = key
            match = [
                path
                for path, t in loaded.items()
                if t.functional_kind == kind and t.p == p and abs(t.nu - nu) <= 1e-12
            ]
            if len(match) != 1:
                found = " and ".join(match[:2]) + " both cover" if match else "no precomputed table covers"
                raise TableLookupError(f"{found} ({kind}, p={p}, nu={nu:g})")
            tables[key] = loaded[match[0]]
    elif keys:
        keys = sorted(keys)
        drawn = limit_lab.tabulate_together(  # checks every key before it draws any
            [(kind, p, nu, None, None) for kind, p, nu in keys], [1.0 - spec.level], ts.n_reps, ts.n_steps,
            spec.master_seed,
        )
        tables = dict(zip(keys, drawn))
        for key in keys:
            log.info("simulated critical values for (%s, p=%d, nu=%g)", *key)
    for table in tables.values():  # a missing level fails here, before any replication
        table.lookup(1.0 - spec.level)
    return tables


# ---------------------------------------------------------------------------
# replication engine
# ---------------------------------------------------------------------------

#: chunk count of replications whose pooled design failed the rank check
#: (every statistic fails on them), kept next to the skipped-split counts
RANK_DEFICIENT = "pooled designs rank deficient"

#: budget of one generation stack, which is one payload: the normals, paths,
#: y and X of every replication generated at once
STACK_BYTES = 1 << 23


def stack_size(T, p):
    """Replications generated at once, the most one payload holds: as many as
    keep their :func:`~breaklab.dgp.replication_bytes` within
    :data:`STACK_BYTES` (174 at T=500, p=2)."""
    return max(1, STACK_BYTES // dgp.replication_bytes(T, p))


def _evaluate_stack(stack, rep_lo, stat_items, paths_upto):
    """Evaluate one cell's generated replications ``rep_lo ..``; returns
    ``(sups, paths, skipped)`` as :func:`_run_cells` describes.

    The stack gets one pooled fit, and each statistic returns its stacked
    outcome on it once.  An outcome is dropped as soon as its sups, skipped
    counts and sampled paths are read: a path is kept for a sampled
    replication whose sup is defined.  The spec has already refused a cell
    with no candidate split.
    """
    n_sampled = max(0, min(len(stack), paths_upto - rep_lo))
    sups, skipped, paths = {}, {}, []
    fit = ols_fit(stack)
    for kind, nu in stat_items:
        out = STAT_RECIPES[kind].compute(stack, fit, nu)
        sups[kind] = out.sup_value
        skipped[kind] = int(np.sum(out.skipped))
        paths += [(rep_lo + j, kind, out.ks, out.path[j].copy())
                  for j in range(n_sampled) if not np.isnan(out.sup_value[j])]
        del out
    skipped[RANK_DEFICIENT] = int(np.count_nonzero(~fit.full_rank))
    paths.sort(key=lambda entry: entry[0])  # by replication; stable, so kinds keep their order
    return sups, paths, skipped


def _run_cells(payload):
    """One payload: replications [rep_lo, rep_hi) of every cell in a group
    that shares one draw shape; one ``(sups, paths, skipped)`` per cell, in
    the group's order.  Per statistic, ``sups`` holds one sup per replication,
    NaN where it failed, and ``skipped`` the number of skipped Wald splits;
    under :data:`RANK_DEFICIENT` it counts the replications whose pooled
    design failed the rank check.  ``paths`` holds ``(rep, kind, ks, path)``
    for each sampled replication whose sup is defined, by replication.

    Module-level so it can cross a process boundary.  The payload is one
    generation stack (:func:`run_experiment` sizes it by :func:`stack_size`):
    its normals are drawn once, read-only, and the cells are generated one
    covariance at a time (:func:`~breaklab.dgp.pair_cov`): every cell of a
    covariance builds from one read-only pair transform of the normals,
    released before the next covariance's is computed, and each cell is
    generated and evaluated in turn, its stack released before the next
    cell's is generated.  A replication's results depend on its own stream
    alone, never on the group or payload it landed in.  A replication may
    overflow or divide by zero in its generation, fit or statistics; its row
    then has no estimate and is counted as failed, so all of them run with
    those warnings off.
    """
    dgp_cfgs, stat_items, master_seed, rep_lo, rep_hi, paths_upto = payload
    specs = [dgp.spec_from_config(cfg) for cfg in dgp_cfgs]
    z = replication_stream(master_seed, range(rep_lo, rep_hi)).normal_rows(dgp.draw_shape(specs[0]))
    z.flags.writeable = False  # shared by every cell of the group
    by_cov, results = {}, [None] * len(specs)  # cells by pair covariance; None: they read z itself
    for cell, spec in enumerate(specs):
        by_cov.setdefault(dgp.pair_cov(spec), []).append(cell)
    with float_policy():
        for cov, cells in by_cov.items():
            draw = z if cov is None else (z, gaussian_pairs(z, cov))
            if cov is not None:
                draw[1].flags.writeable = False  # shared by every cell of the covariance
            for cell in cells:
                results[cell] = _evaluate_stack(dgp.generate(specs[cell], draw), rep_lo, stat_items, paths_upto)
            del draw  # one transform alive at a time
    return results


def _run_chunk(payload):
    """Compute sup statistics for replications [rep_lo, rep_hi) of one cell,
    generated as one stack: the one-cell case of :func:`_run_cells`.

    Returns ``rep_lo`` and the cell's ``(sups, paths, skipped)`` as
    :func:`_run_cells` describes.
    """
    [(sups, paths, skipped)] = _run_cells(([payload[0]], *payload[1:]))
    return payload[3], sups, paths, skipped


@dataclass
class McRow:
    """One (DGP, statistic) cell of a Monte Carlo report."""

    family: str
    T: int
    s: float
    c: float
    corr: float
    stat: str
    nu: float
    level: float
    n_reps: int
    failed: int
    reject_rate: float
    mc_se: float
    sup_q50: float
    sup_q95: float


REPORT_COLUMNS = tuple(f.name for f in fields(McRow))


@dataclass
class McReport:
    """Rejection frequencies and sup-statistic summaries with provenance."""

    rows: list
    provenance: dict
    paths: list = field(default_factory=list)


def _cell_key(dspec):
    """A cell's key columns in the report, the sampled paths and its log line:
    family, T, s, c and corr."""
    return dspec.family, dspec.T, dspec.s, dspec.persistence_c, float(dspec.cov.correlation)


def _aggregate(kind, nu, sups, cv, dspec, spec):
    failed_mask = np.isnan(sups)
    failed = int(failed_mask.sum())
    good = sups[~failed_mask]
    n_eff = good.shape[0]
    if n_eff == 0:
        rate = float("nan")
        mc_se = float("nan")
        q50 = float("nan")
        q95 = float("nan")
    else:
        rejects = int(np.count_nonzero(good > cv))
        rate = rejects / n_eff
        mc_se = float(np.sqrt(rate * (1.0 - rate) / n_eff))
        ordered = np.sort(good)
        q50 = limit_lab.type1_quantile(ordered, 0.5)
        q95 = limit_lab.type1_quantile(ordered, 0.95)
    return McRow(
        *_cell_key(dspec),
        stat=kind,
        nu=nu,
        level=spec.level,
        n_reps=spec.n_reps,
        failed=failed,
        reject_rate=rate,
        mc_se=mc_se,
        sup_q50=q50,
        sup_q95=q95,
    )


def run_experiment(spec, workers=1, paths_sample=0):
    """Run the full grid and return an :class:`McReport`.

    Parameters
    ----------
    spec : ExperimentSpec
    workers : int
        Process count for the payloads, at most one per payload; results
        are identical for any value.
    paths_sample : int
        Dump the raw statistic paths of the first ``paths_sample``
        replications of every cell (for plotting).
    """
    if workers < 1:
        raise SpecError(f"workers must be >= 1, got {workers}")
    tables = resolve_tables(spec)
    rows = []
    all_paths = []
    stat_items = [(kind, spec.nu_for(kind)) for kind in spec.stat_kinds]
    groups = {}  # draw shape -> grid indices of the cells drawing it
    for cell, dspec in enumerate(spec.dgp_grid):
        groups.setdefault(dgp.draw_shape(dspec), []).append(cell)
    payloads, served = [], []  # each payload, and the grid indices of the cells it serves
    for cells in groups.values():
        dspecs = [spec.dgp_grid[cell] for cell in cells]
        step = min(CHUNK_SIZE, *(stack_size(d.T, d.design_dim) for d in dspecs))
        n_chunks = max(-(-spec.n_reps // step), min(-(-workers // len(groups)), spec.n_reps))
        cuts = [spec.n_reps * i // n_chunks for i in range(n_chunks + 1)]
        cfgs = [dgp.spec_to_config(d) for d in dspecs]
        for lo, hi in zip(cuts, cuts[1:]):
            payloads.append((cfgs, stat_items, spec.master_seed, lo, hi, paths_sample))
            served.append(cells)
    chunks = [[] for _ in spec.dgp_grid]  # per cell, its payloads' results in replication order
    workers = min(workers, len(payloads))  # a forked pool starts every worker at its first submit
    if workers > 1:  # importing the pool loads multiprocessing, which a serial run never needs
        from concurrent.futures import ProcessPoolExecutor
    executor = ProcessPoolExecutor(max_workers=workers) if workers > 1 else None
    try:
        # one map over every group's payloads: no worker waits at a cell boundary
        results = (map if executor is None else executor.map)(_run_cells, payloads)
        for cells, cell_results in zip(served, results):
            for cell, result in zip(cells, cell_results):
                chunks[cell].append(result)
    finally:
        if executor is not None:
            executor.shutdown(cancel_futures=True)
    for dspec, results in zip(spec.dgp_grid, chunks):
        sups = {kind: np.concatenate([chunk[0][kind] for chunk in results]) for kind in spec.stat_kinds}
        skipped = {key: sum(chunk[2][key] for chunk in results) for key in (*spec.stat_kinds, RANK_DEFICIENT)}
        notes = [
            f"{kind} failed {int(np.isnan(sups[kind]).sum())}/{spec.n_reps}"
            + (f", {skipped[kind]} singular splits skipped" if skipped[kind] else "")
            for kind in spec.stat_kinds
        ]
        if skipped[RANK_DEFICIENT]:
            notes.append(f"{skipped[RANK_DEFICIENT]}/{spec.n_reps} {RANK_DEFICIENT}")
        log.info("%s T=%d s=%g c=%g corr=%g: %s", *_cell_key(dspec), "; ".join(notes))
        for kind, nu in stat_items:
            key = spec.table_key(kind, dspec)
            cv = 0.0 if key is None else tables[key].lookup(1.0 - spec.level)
            rows.append(_aggregate(kind, nu, sups[kind], cv, dspec, spec))
        all_paths += [(dspec, kind, rep, ks, path) for chunk in results for rep, kind, ks, path in chunk[1]]
    # deliberately excludes the worker count: scheduling must never show up
    # in any output, so reruns are byte-identical at any parallelism
    provenance = {
        "schema_version": SCHEMA_VERSION,
        "experiment": experiment_to_config(spec),
        "tables": {
            f"{k[0]},p={k[1]},nu={k[2]:g}": limit_lab.table_to_json_dict(t)
            for k, t in sorted(tables.items())
        },
    }
    return McReport(rows=rows, provenance=provenance, paths=all_paths)


def size_distortion_study(
    c_grid,
    corr_grid,
    T,
    stat_kinds,
    n_reps,
    master_seed=DEFAULT_MASTER_SEED,
    level=0.05,
    table_source=None,
    workers=1,
):
    """Rejection-rate matrix for persistent-regressor nulls.

    Builds predictive-regression null specs (both regime coefficients zero)
    over the (c, corr) grid and evaluates the requested statistics against
    stationary-world critical values.  The matrix itself is the deliverable;
    only the effectively-stationary exogenous corner has a size target.
    """
    grid = []
    for c in c_grid:
        for corr in corr_grid:
            grid.append(
                dgp.DgpSpec(
                    family="predictive_lur",
                    T=T,
                    cov=InnovCov(sigma_eps_u=float(corr)),
                    persistence_c=float(c),
                )
            )
    spec = ExperimentSpec(
        dgp_grid=tuple(grid),
        stat_kinds=tuple(stat_kinds),
        level=level,
        n_reps=n_reps,
        table_source=table_source or TableSource(mode="inline"),
        master_seed=master_seed,
    )
    return run_experiment(spec, workers=workers)


# ---------------------------------------------------------------------------
# report output
# ---------------------------------------------------------------------------

def _format_cell(value):
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, str):
        return value
    return format(float(value), ".10g")


def report_to_csv(report, path):
    """Write the contracted report CSV (one row per cell)."""
    rows = ([_format_cell(getattr(row, col)) for col in REPORT_COLUMNS] for row in report.rows)
    write_text(path, "report", csv_text(REPORT_COLUMNS, rows))


def paths_to_csv(report, path):
    """Write sampled raw statistic paths (long format, one row per k)."""

    def rows():  # one row at a time, the path's key cells joined once per path
        for dspec, kind, rep, ks, values in report.paths:
            prefix = ",".join([*map(_format_cell, _cell_key(dspec)), kind, str(rep)])
            yield from ([prefix, str(int(k)), _format_cell(value)] for k, value in zip(ks, values))

    write_text(path, "paths", csv_text(PATHS_COLUMNS, rows()))
