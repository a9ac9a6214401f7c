"""Simulation of asymptotic limit processes and their quantiles.

The functionals simulated here are the null limits of the break statistics:

* ``supabsbb``        -- sup |W(s) - s W(1)| over a trimmed grid
* ``supqp``           -- sup of the squared normalized p-dimensional bridge
* ``supabslurcusum``  -- the bridge contaminated by a mean-reverting
                         persistence correction with nuisance parameters
                         ``c`` (local persistence) and ``corr`` (innovation
                         cross-correlation); untrimmed, so ``nu`` is 0
* ``cvmp1trace``      -- the integrated squared bridge

Each kind is defined once, by the parameters it reads (``_READS``), its
draw shape and parameter rules in :func:`check_functional` and its
reduction of normals to draws in ``_reduce``; tabulation, single draws and
table loading share them.  Paths live on the uniform grid 0, 1/n, ..., 1.
Stochastic integrals are discretized as left-endpoint sums.  Tabulation
draws are indexed by stream id (one stream per draw from the dedicated
limit-draw namespace), so tables are reproducible and independent of any
batching or scheduling.  Draw i of every kind reads stream i's normals from
their start, so the draw shape of one kind is a prefix of another's: several
functionals at one grid (an experiment's inline tables) are drawn together,
each reducing its prefix of one shared draw, with the same draws as alone.
Draws come in cache-sized blocks of at most ``_BLOCK_BYTES`` of normals,
each reduced to its draws while still in cache inside one workspace of two
budgets allocated once per tabulation.  So memory stays at about three
budgets, the normals plus the workspace, whatever the number of draws or
functionals.
"""

import math
from dataclasses import dataclass
from json import dump

import numpy as np

from . import kernels
from .errors import DataError, SpecError, TableLookupError
from .rng import DEFAULT_MASTER_SEED, LIMIT_DRAW_STREAM_OFFSET, limit_draw_stream
from .schema import SCHEMA_VERSION, finite, json_object, jsonable, opened, read_json, typed

#: functional kind -> the parameters besides ``p`` its draws read; any other must keep its default
_READS = {"supabsbb": ("nu",), "supqp": ("nu",), "supabslurcusum": ("c", "corr"), "cvmp1trace": ()}
FUNCTIONAL_KINDS = tuple(_READS)
#: parameter -> its default, and the refusal of another value by a kind that does not read it
_UNREAD = {"nu": (0.0, "takes no trimming: nu must be 0"), "c": (None, "takes no persistence: c must be unset"),
           "corr": (None, "takes no correlation: corr must be unset")}

#: default grid resolution for tabulation
DEFAULT_N_STEPS = 2000

#: bytes of standard normals drawn and reduced at once during tabulation
_BLOCK_BYTES = 4 << 20


@dataclass
class PathGrid:
    """A process sampled on the uniform grid with ``n_steps`` intervals.

    ``values`` has length ``n_steps + 1`` (or shape (p, n_steps + 1) for
    vector processes); index j corresponds to time j / n_steps.
    """

    n_steps: int
    values: np.ndarray


@dataclass(frozen=True)
class CriticalValueTable:
    """Simulated quantiles of one limit functional.

    ``quantiles`` maps quantile level (e.g. 0.95) to the simulated value;
    ``meta`` records (n_steps, n_reps, master_seed) and fully determines the
    table.
    """

    functional_kind: str
    p: int
    nu: float
    c: float | None
    corr: float | None
    quantiles: dict
    meta: dict

    def lookup(self, level):
        """Quantile at ``level``; exact matches only, no interpolation."""
        for lv, value in self.quantiles.items():
            if abs(lv - level) <= 1e-9:
                return value
        available = ", ".join(f"{lv:.10g}" for lv in sorted(self.quantiles))
        raise TableLookupError(
            f"table ({self.functional_kind}, p={self.p}, nu={self.nu:g}) has no "
            f"quantile at level {level:.10g}; available levels: {available}"
        )


def type1_quantile(sorted_values, level):
    """Order statistic at ceil(level * n), on an ascending array."""
    n = sorted_values.shape[0]
    idx = min(max(int(math.ceil(level * n)) - 1, 0), n - 1)
    return float(sorted_values[idx])


# ---------------------------------------------------------------------------
# limit functionals and single draws
# ---------------------------------------------------------------------------

def check_functional(kind, n_steps, p, nu, c=None, corr=None):
    """Draw shape of ``kind`` and its checked ``(n_steps, p, nu, c, corr)``.

    A :class:`SpecError` names the first parameter that breaks a rule, or is
    not read by ``kind`` and off its default.  A read ``corr`` of None is 0.
    """
    if kind not in FUNCTIONAL_KINDS:  # a tuple: a table's kind may be any JSON value, unhashable too
        raise SpecError(f"unknown functional kind {kind!r}; expected one of {FUNCTIONAL_KINDS}")
    if not 2 <= n_steps <= np.iinfo(np.intp).max:
        raise SpecError(f"n_steps must be at least 2 and fit in a 64-bit array index, got {n_steps}")
    if p < 1:
        raise SpecError(f"dimension p must be >= 1, got {p}")
    reads = _READS[kind]
    for name, value in (("nu", nu), ("c", c), ("corr", corr)):
        if name not in reads and value != _UNREAD[name][0]:
            raise SpecError(f"{kind} {_UNREAD[name][1]}, got {value}")
    if "nu" in reads:
        if not (0.0 < nu < 0.5 or nu == 0.0 and kind != "supqp"):
            raise SpecError(f"{kind} needs trimming nu in {'(0' if kind == 'supqp' else '[0'}, 0.5), got {nu}")
        j_lo, j_hi = _window(nu, n_steps)
        if j_lo > j_hi:
            raise SpecError(f"{kind} trimming nu={nu} leaves no interior grid point for n_steps={n_steps}")
    if "c" in reads and (c is None or not math.isfinite(c)):
        raise SpecError(f"{kind} requires a finite persistence c, got {c}")
    if "corr" in reads:
        corr = 0.0 if corr is None else corr
        if not -1.0 <= corr <= 1.0:
            raise SpecError(f"corr must lie in [-1, 1], got {corr}")
    shape = {"supqp": (p, n_steps), "supabslurcusum": (2, n_steps)}.get(kind, (n_steps,))
    return shape, (n_steps, p, nu, c, corr)


def _window(nu, n_steps):
    """Interior grid points (j_lo, j_hi) in [nu, 1-nu]; a bridge is zero at both ends anyway."""
    return max(math.ceil(nu * n_steps - 1e-9), 1), min(math.floor((1.0 - nu) * n_steps + 1e-9), n_steps - 1)


def _workspace(rows, shape):
    """Scratch for any reduction of ``rows`` draws of ``shape``: two flat budgets, each the size of the normals."""
    return np.empty(rows * math.prod(shape)), np.empty(rows * math.prod(shape))


def _reduce(kind, z, nu, c, corr, work):
    """One value of ``kind`` per draw in ``z``, a stack of normals of its checked draw shape.

    ``z`` may be a strided prefix view of a wider shared draw, so every kind only reads it, except
    supabslurcusum, which forms its motions in place in ``z`` and so is only given a draw it owns.
    It reduces inside ``work``, a :func:`_workspace` at least as large as ``z``.  Kernels are
    looked up on :mod:`kernels` at each call, so tracing can wrap them; ``work`` goes by keyword.
    """
    n_steps = z.shape[-1]
    if kind == "supabsbb":
        return kernels.bridge_sup(z, *_window(nu, n_steps), work=work)
    if kind == "supqp":
        return kernels.qp_sup(z, *_window(nu, n_steps), work=work)
    if kind == "supabslurcusum":
        # error and regressor motions with correlation corr, scaled by sqrt(dt), formed in place in z
        dbe, dbu = z[:, 0], z[:, 1]
        dbu *= math.sqrt(1.0 - corr * corr)
        dbu += np.multiply(corr, dbe, out=kernels.carve(work, dbe.shape)[0])
        z *= math.sqrt(1.0 / n_steps)
        return kernels.lur_cusum_sup(dbe, dbu, c, work=work)
    return _cvm_from_increments(z, work)


def _draw_one(kind, stream, n_steps, p=1, nu=0.0, c=None, corr=None):
    shape, (n_steps, p, nu, c, corr) = check_functional(kind, n_steps, p, nu, c, corr)
    return float(_reduce(kind, stream.standard_normal((1, *shape)), nu, c, corr, _workspace(1, shape))[0])


def simulate_bridge(n_steps, stream):
    """One Brownian bridge path W(s) - s W(1) on the uniform grid.

    The underlying motion is built from scaled Gaussian increments, so the
    path is pinned to zero at both ends by construction.
    """
    check_functional("supabsbb", n_steps, 1, 0.0)
    z = stream.standard_normal(n_steps)
    w = np.concatenate([[0.0], np.cumsum(z) * (1.0 / math.sqrt(n_steps))])
    kernels.bridge_in_place(w[1:])
    return PathGrid(n_steps=n_steps, values=w)


def simulate_qp_sup(p, nu, n_steps, stream):
    """One draw of the sup of the squared normalized p-dimensional bridge.

    Coordinates are independent; the sup runs over grid points inside
    [nu, 1-nu], endpoints included.
    """
    return _draw_one("supqp", stream, n_steps, p, nu)


def simulate_ou(c, n_steps, stream, x0=0.0, horizon=1.0):
    """Mean-reverting Gaussian path by exact one-step discretization.

    Each step is :func:`kernels.ou_step`'s: the decay exp(c * dt) and a
    Gaussian shock with the exact conditional variance (exp(2 c dt) - 1) / (2 c),
    which degenerates to dt at c = 0.  Composing two half-horizon calls on a
    shared stream is bit-identical to one full-horizon call.
    """
    finite(c, "persistence c", SpecError)
    if n_steps < 1:
        raise SpecError(f"n_steps must be >= 1, got {n_steps}")
    dt = horizon / n_steps
    decay, lam = kernels.ou_step(c, dt)
    shocks = lam * math.sqrt(dt) * stream.standard_normal(n_steps)
    path = kernels.ar1_path(shocks, decay, x0)
    return PathGrid(n_steps=n_steps, values=np.concatenate([[x0], path]))


def simulate_lur_cusum_limit(c, corr, n_steps, stream):
    """One draw of the sup of the persistence-contaminated bridge.

    The bridge is driven by one Brownian motion and the mean-reverting
    correction by another, with correlation ``corr`` between the two; both
    motions are standardized to unit variance.  The correction vanishes as
    c -> -inf, recovering the pivotal bridge limit.
    """
    return _draw_one("supabslurcusum", stream, n_steps, c=c, corr=corr)


def _coint_t_from_draws(z, extra, phi):
    """Vectorized draws of the integrated-regressor t-statistic limit.

    ``z`` is (B, n) increments for the regressor motion, ``extra`` one
    independent standard normal per draw.  With unit innovation variances
    the endogeneity ratio ``phi`` is the only free parameter: the limit is
    0.5 phi [W(1)^2 + 1] (integral of W^2)^(-1/2) plus the independent
    Gaussian component scaled by sqrt(1 - phi^2).
    """
    B, n = z.shape
    w = np.cumsum(z, axis=1) * (1.0 / math.sqrt(n))
    w1 = w[:, -1]
    w_prev = np.concatenate([np.zeros((B, 1)), w[:, :-1]], axis=1)
    int_w2 = np.maximum(np.sum(w_prev * w_prev, axis=1) / n, 1e-12)
    bias = 0.5 * phi * (w1 * w1 + 1.0) / np.sqrt(int_w2)
    return bias + math.sqrt(1.0 - phi * phi) * extra


def simulate_cointegration_tstat_limit(phi_ratio, n_steps, stream):
    """One draw of the t-statistic limit under an integrated regressor.

    At ``phi_ratio`` = 0 the draw is exactly standard normal; any nonzero
    value shifts the distribution through the second-order bias term.
    """
    if not -1.0 <= phi_ratio <= 1.0:
        raise SpecError(f"phi_ratio must lie in [-1, 1], got {phi_ratio}")
    z = stream.standard_normal(n_steps)
    extra = stream.standard_normal()
    return float(_coint_t_from_draws(z[None], np.array([extra]), phi_ratio)[0])


def _cvm_from_increments(z, work=None):
    """Per-row left-sum quadrature of the squared bridge; ``work``: a :func:`_workspace`."""
    B, n = z.shape
    w, tmp = kernels.carve(work, (B, n), (B, n))  # w: the bridge at 0, 1/n, ..., (n-1)/n
    w[:, 0] = 0.0
    np.cumsum(z[:, :-1], axis=1, out=w[:, 1:])
    w_one = (w[:, -1:] + z[:, -1:]) * (1.0 / math.sqrt(n))
    w[:, 1:] *= 1.0 / math.sqrt(n)
    w[:, 1:] -= np.multiply(np.arange(1, n) / n, w_one, out=tmp[:, 1:])
    np.multiply(w, w, out=w)
    return np.sum(w, axis=1) / n


def simulate_cvm_p1(n_steps, stream):
    """One draw of the integrated squared bridge (grid quadrature)."""
    return _draw_one("cvmp1trace", stream, n_steps)


# ---------------------------------------------------------------------------
# tabulation
# ---------------------------------------------------------------------------

def _draw_block(kind, master_seed, lo, hi, n_steps, p, nu, c, corr):
    """Draws lo..hi-1 of ``kind``: the one-functional case of :func:`_draw_blocks`."""
    [draws] = _draw_blocks([(kind, p, nu, c, corr)], master_seed, lo, hi, n_steps)
    return draws


def _draw_blocks(functionals, master_seed, lo, hi, n_steps):
    """Draws lo..hi-1 of each functional ``(kind, p, nu, c, corr)``, from one shared draw.

    Each sub-block of at most ``_BLOCK_BYTES`` draws its normals once, at the shape with the
    most rows, and each functional reduces its prefix of every row, bit for bit its own draw.
    With several functionals the draw is read-only, so none may overwrite it.
    """
    checked = [check_functional(kind, n_steps, p, nu, c, corr) for kind, p, nu, c, corr in functionals]
    shape = max((own for own, _ in checked), key=math.prod)
    rows = max(1, min(hi - lo, _BLOCK_BYTES // (8 * math.prod(shape))))
    work = _workspace(rows, shape)  # reused by every sub-block and functional
    draws = [np.empty(hi - lo) for _ in functionals]
    for start in range(lo, hi, rows):
        z = limit_draw_stream(master_seed, range(start, min(start + rows, hi))).normal_rows(shape)
        z = z.reshape(len(z), -1)  # row i: stream i's normals, each functional's a prefix of them
        z.flags.writeable = len(functionals) == 1
        for out, (kind, *_), (own, (_, _, nu, c, corr)) in zip(draws, functionals, checked):
            prefix = z[:, : math.prod(own)].reshape(len(z), *own)
            out[start - lo : start - lo + len(z)] = _reduce(kind, prefix, nu, c, corr, work)
        del z, prefix  # the normals die before the next sub-block is drawn
    return draws


def tabulate_together(functionals, levels, n_reps, n_steps, master_seed):
    """A :func:`tabulate` table of each functional ``(kind, p, nu, c, corr)`` at one grid,
    all drawn from one shared draw (:func:`_draw_blocks`), each bit for bit the table it
    gets alone.  Only kinds that just read their normals may share a draw: supabslurcusum
    forms its motions in place, so it is tabulated alone."""
    if not 1000 <= n_reps <= LIMIT_DRAW_STREAM_OFFSET:  # draw i reads stream 2**63 + i, below 2**64
        raise SpecError(f"tabulation needs n_reps >= 1000 and <= 2**63, got {n_reps}")
    levels = [float(lv) for lv in levels]
    if not levels or any(not 0.0 < lv < 1.0 for lv in levels):
        raise SpecError(f"quantile levels must lie in (0, 1), got {levels}")
    checked = [check_functional(kind, n_steps, p, nu, c, corr)[1] for kind, p, nu, c, corr in functionals]
    tables = []
    for (kind, *_), (n_steps, p, nu, c, corr), draws in zip(
        functionals, checked, _draw_blocks(functionals, master_seed, 0, n_reps, n_steps)
    ):
        draws.sort()
        tables.append(CriticalValueTable(
            functional_kind=kind,
            p=int(p),
            nu=float(nu),
            c=None if c is None else float(c),
            corr=None if corr is None else float(corr),
            quantiles={lv: type1_quantile(draws, lv) for lv in sorted(levels)},
            meta={"n_steps": int(n_steps), "n_reps": int(n_reps), "master_seed": int(master_seed)},
        ))
    return tables


def tabulate(
    functional_kind,
    levels,
    n_reps,
    n_steps=DEFAULT_N_STEPS,
    master_seed=DEFAULT_MASTER_SEED,
    p=1,
    nu=0.0,
    c=None,
    corr=None,
):
    """Simulate quantiles of a limit functional.

    Parameters
    ----------
    functional_kind : str
        One of :data:`FUNCTIONAL_KINDS`.
    levels : sequence of float
        Quantile levels to record, each in (0, 1).
    n_reps : int
        Number of independent draws (at least 1000).
    n_steps : int
        Grid resolution of each path.
    master_seed : int
        Seed; draw i always uses the limit-draw stream (master_seed, i).
    p, nu, c, corr
        Functional parameters; one the kind does not read keeps its default.

    Returns
    -------
    CriticalValueTable
        Empirical type-1 quantiles with full provenance in ``meta``.
    """
    [table] = tabulate_together([(functional_kind, p, nu, c, corr)], levels, n_reps, n_steps, master_seed)
    return table


# ---------------------------------------------------------------------------
# table (de)serialization
# ---------------------------------------------------------------------------

def table_to_json_dict(table):
    return {
        "schema_version": SCHEMA_VERSION,
        "kind": table.functional_kind,
        "p": table.p,
        "nu": table.nu,
        "c": table.c,
        "corr": table.corr,
        "levels": {f"{lv:.10g}": jsonable(v) for lv, v in table.quantiles.items()},
        "meta": {
            "n_steps": table.meta["n_steps"],
            "n_reps": table.meta["n_reps"],
            "seed": table.meta["master_seed"],
        },
    }


#: a table's keys and the ones it must give; ``schema_version`` is written, never read
_TABLE_KEYS = ("schema_version", "kind", "p", "nu", "c", "corr", "levels", "meta")
_TABLE_REQUIRED = ("kind", "p", "nu", "levels", "meta")
_META_KEYS = ("n_steps", "n_reps", "seed")


def table_from_json_dict(payload):
    json_object(payload, "critical-value table", DataError, _TABLE_KEYS, _TABLE_REQUIRED)
    label = "critical-value table field {!r}".format
    levels = json_object(payload["levels"], label("levels"), DataError)
    meta = json_object(payload["meta"], label("meta"), DataError, _META_KEYS, _META_KEYS)

    def field(convert, value, name):
        return typed(convert, value, label(name), DataError)

    def level(key):  # a JSON object key is a string: the one number read from text
        try:
            lv = float(key)
        except ValueError:
            lv = math.nan
        if not 0.0 < lv < 1.0:  # NaN fails too
            raise DataError(f"{label('levels')} keys must be numbers in (0, 1), got {key!r}")
        return lv

    try:
        table = CriticalValueTable(
            functional_kind=payload["kind"],
            p=field(int, payload["p"], "p"),
            nu=field(float, payload["nu"], "nu"),
            c=None if payload.get("c") is None else field(float, payload["c"], "c"),
            corr=None if payload.get("corr") is None else field(float, payload["corr"], "corr"),
            quantiles={level(lv): field(float, v, "levels") for lv, v in levels.items()},
            meta={
                "n_steps": field(int, meta["n_steps"], "meta.n_steps"),
                "n_reps": field(int, meta["n_reps"], "meta.n_reps"),
                "master_seed": field(int, meta["seed"], "meta.seed"),
            },
        )
        check_functional(table.functional_kind, table.meta["n_steps"], table.p, table.nu, table.c, table.corr)
    except SpecError as exc:
        raise DataError(f"critical-value table does not define a limit functional: {exc}") from exc
    if len(table.quantiles) < len(levels):  # "0.95" and "0.950": one level, one quantile dropped
        raise DataError(f"{label('levels')} gives a level twice, got keys {list(levels)}")
    if not all(map(math.isfinite, table.quantiles.values())):
        raise DataError(f"critical-value table field 'levels' must hold finite quantiles, got {levels}")
    return table


def save_table(table, path):
    with opened(path, "critical-value table", "w") as fh:
        dump(table_to_json_dict(table), fh, indent=2)
        fh.write("\n")


def load_table(path):
    return table_from_json_dict(read_json(path, "critical-value table"))
