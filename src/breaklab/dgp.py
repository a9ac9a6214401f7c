"""Data-generating processes for single-break Monte Carlo studies.

Every generator is a pure function of ``(spec, stream)``: innovations are
drawn in a fixed order that does not depend on the break fraction, so under
the encoded null (equal regime coefficients) the generated data are identical
for any ``s``.

Each family builds a whole stack of replications at once from their
standard normals, one row per replication.  :func:`generate` given a
:class:`~breaklab.rng.StreamStack` (``replication_stream(seed, range(lo,
hi))``), or the normals such a stack has drawn, returns the stacked samples
of those replications; given one stream, it builds the block of one, so a
row of the stack and the sample generated from that replication's own
stream are the same bit for bit.  The normals depend on the spec only
through :func:`draw_shape`, so specs of one shape can share one draw; a
family built from (eps, u) pairs reads them only through their transform
at :func:`pair_cov`, which specs of one covariance can share too.

Sign convention for persistence: the autoregressive root is
``rho = 1 + c/T`` with ``c <= 0`` meaning near-stationary and ``c = 0`` the
exact unit root.  This convention is used consistently everywhere a ``c``
appears (configs, CLI flags, reports).
"""

import math
from dataclasses import dataclass, field, fields
from operator import attrgetter

import numpy as np

from . import kernels
from .errors import DataError, SpecError
from .rng import InnovCov, StreamStack, gaussian_pairs
from .schema import MEMORY_BUDGET, csv_text, finite, json_object, opened, typed, write_text

#: config key -> the :class:`DgpSpec` field it sets (``cov.*``: an :class:`InnovCov`
#: field), in the order :func:`spec_to_config` writes them
_CONFIG_FIELDS = {
    "family": "family",
    "T": "T",
    "s": "s",
    "beta_pre": "params_pre",
    "beta_post": "params_post",
    "sigma_eps_sq": "cov.sigma_eps_sq",
    "sigma_u_sq": "cov.sigma_u_sq",
    "sigma_eps_u": "cov.sigma_eps_u",
    "c": "persistence_c",
    "mu": "intercept",
    "x0": "x0",
}
CONFIG_KEYS = tuple(_CONFIG_FIELDS)


def _local_root(c, T):
    """The autoregressive root ``1 + c/T`` of persistence ``c`` at sample size ``T``."""
    return 1.0 + c / T


@dataclass(frozen=True)
class DgpSpec:
    """Full parametric description of one data-generating process.

    ``params_pre`` applies to observations t <= k and ``params_post`` to
    t > k, where the break index is k = floor(T * s), clamped so both
    regimes are non-empty whenever 0 < s < 1.  ``s`` equal to 0 or 1 encodes
    "no break" and requires equal regime coefficients.

    Every autoregressive root a family runs must satisfy |root| <= 1.5:
    ``1 + c/T``, and for ar1 also each regime coefficient.  Near that bound
    the regressor explodes within the sample (predictive_lur at T=500,
    c=240 passes 1e80), so the pooled design fails the rank check in every
    replication: an experiment cell reports ``failed`` equal
    to ``n_reps`` and a NaN rejection rate for every statistic, and its
    per-cell INFO line counts the rank-deficient pooled designs.
    """

    family: str
    T: int
    s: float = 0.0
    params_pre: tuple = (0.0,)
    params_post: tuple = (0.0,)
    cov: InnovCov = field(default_factory=InnovCov)
    persistence_c: float = 0.0
    intercept: float = 0.0
    x0: float = 0.0

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise SpecError(f"unknown family {self.family!r}; expected one of {FAMILIES}")
        if typed(int, self.T, "T", SpecError) < 4:
            raise SpecError(f"T must be an integer >= 4, got {self.T!r}")
        if not 0.0 <= self.s <= 1.0:
            raise SpecError(f"break fraction s must lie in [0, 1], got {self.s}")
        object.__setattr__(self, "params_pre", tuple(float(v) for v in self.params_pre))
        object.__setattr__(self, "params_post", tuple(float(v) for v in self.params_post))
        for name, value in (("persistence c", self.persistence_c), ("intercept mu", self.intercept),
                            ("x0", self.x0), ("params_pre (config key beta_pre)", self.params_pre),
                            ("params_post (config key beta_post)", self.params_post)):
            finite(value, name, SpecError)
        if len(self.params_pre) != len(self.params_post) or len(self.params_pre) < 1:
            raise SpecError(
                "params_pre and params_post (config keys beta_pre, beta_post) must have equal positive length, "
                f"got {len(self.params_pre)} and {len(self.params_post)}"
            )
        if self.s in (0.0, 1.0) and self.params_pre != self.params_post:
            raise SpecError(
                "s encodes no break (s=0 or s=1) but params_pre != params_post"
            )
        family = _FAMILIES[self.family]
        for key, default in _DEFAULTS.items():  # a setting no draw reads would only mislabel the output
            if key not in family.reads and _GETTERS[key](self) != default:
                raise SpecError(f"family {self.family!r} does not read {key}, got {_GETTERS[key](self)!r}")
        if family.one_coef and self.p != 1:
            raise SpecError(f"family {self.family!r} requires exactly one coefficient, got p={self.p}")
        size = replication_bytes(int(self.T), self.design_dim)  # a Python int: a numpy one would wrap
        if size > MEMORY_BUDGET:
            raise SpecError(f"T={self.T} needs {size} bytes per replication, over the memory budget of {MEMORY_BUDGET}")
        for key, rho in family.roots(self).items():
            if abs(rho) > 1.5:
                setting = f"persistence c={self.persistence_c}" if key == "c" else f"{key}={rho}"
                raise SpecError(f"{setting} gives autoregressive root {rho:.4g} with |root| > 1.5 (wildly explosive)")

    @property
    def p(self):
        return len(self.params_pre)

    @property
    def design_dim(self):
        """Number of columns in the generated design matrix."""
        return _FAMILIES[self.family].design_dim(self)

    @property
    def intercept_only(self):
        """Whether the generated design is the single all-ones column (zmean's model)."""
        return _FAMILIES[self.family].intercept_only(self)

    @property
    def break_index(self):
        """k = floor(T * s); clamped to [1, T-1] for an interior break."""
        if self.s == 0.0:
            return 0
        if self.s == 1.0:
            return self.T
        k = math.floor(self.T * self.s)
        return min(max(k, 1), self.T - 1)


#: config key -> its getter on a :class:`DgpSpec`
_GETTERS = {key: attrgetter(name) for key, name in _CONFIG_FIELDS.items()}
_FIELD_DEFAULTS = {f.name: f.default for f in fields(DgpSpec)} | {f"cov.{f.name}": f.default for f in fields(InnovCov)}
#: config key -> its default, for each setting a family may leave unread (``_Family.reads``)
_DEFAULTS = {key: _FIELD_DEFAULTS[_CONFIG_FIELDS[key]]
             for key in ("sigma_eps_sq", "sigma_u_sq", "sigma_eps_u", "c", "mu", "x0")}


@dataclass
class Sample:
    """One simulated or user-supplied dataset."""

    y: np.ndarray
    X: np.ndarray
    truth: DgpSpec | None = None
    innovations: dict | None = None

    def __post_init__(self):
        self.y = np.asarray(self.y, dtype=np.float64)
        self.X = np.asarray(self.X, dtype=np.float64)
        if self.X.ndim != 2:
            raise DataError(f"design matrix must be 2-D, got shape {self.X.shape}")
        if self.y.ndim != 1 or self.y.shape[0] != self.X.shape[0]:
            raise DataError(
                f"y has length {self.y.shape} but design has {self.X.shape[0]} rows"
            )
        if self.truth is not None and self.truth.T != self.y.shape[0]:
            raise DataError(
                f"sample length {self.y.shape[0]} does not match truth.T={self.truth.T}"
            )

    @property
    def n_obs(self):
        return self.y.shape[0]

    @property
    def p(self):
        return self.X.shape[1]


def _regime_coefs(spec):
    coefs = np.empty((spec.T, spec.p))
    k = spec.break_index
    coefs[:k] = spec.params_pre
    coefs[k:] = spec.params_post
    return coefs


@dataclass
class SampleStack:
    """Samples of consecutive replications of one spec, stacked.

    ``y`` is (R, T), ``X`` (R, T, p) and every innovation series (R, T);
    row i is the sample of the i-th replication.
    """

    y: np.ndarray
    X: np.ndarray
    truth: DgpSpec
    innovations: dict

    def __len__(self):
        return self.y.shape[0]

    def rows(self, lo, hi):
        """The stack of rows lo..hi-1 (views, no copy)."""
        innovations = {name: v[lo:hi] for name, v in self.innovations.items()}
        return SampleStack(y=self.y[lo:hi], X=self.X[lo:hi], truth=self.truth, innovations=innovations)

    def sample(self, i):
        """Row i as a :class:`Sample`."""
        innovations = {name: v[i] for name, v in self.innovations.items()}
        return Sample(y=self.y[i], X=self.X[i], truth=self.truth, innovations=innovations)


# Each family builds its stack from standard normals ``z`` of shape
# (R, *draw_shape): row i of ``z`` is the start of replication i's stream, in
# the order a single stream draws them.


def _location(spec, z):
    """Mean-shift model: y_t = m1 for t <= k, m2 after, plus Gaussian noise."""
    eps = math.sqrt(spec.cov.sigma_eps_sq) * z
    y = _regime_coefs(spec)[:, 0] + eps
    return y, np.ones((*y.shape, 1)), {"eps": eps}


def _linear_regression(spec, z):
    """Regression with intercept and i.i.d. standard-normal regressors.

    The first design column is the intercept; the remaining p-1 columns are
    drawn independently of the noise, before it.  Coefficients switch at the
    break index.
    """
    T, p = spec.T, spec.p
    X = np.ones((z.shape[0], T, p))
    X[:, :, 1:] = z[:, : T * (p - 1)].reshape(z.shape[0], T, p - 1)
    eps = math.sqrt(spec.cov.sigma_eps_sq) * z[:, T * (p - 1) :]
    y = np.sum(X * _regime_coefs(spec), axis=-1) + eps
    return y, X, {"eps": eps}


def _cointegration(spec, pairs):
    """Integrated-regressor pair: x is a random walk driven by eps, y = b*x + u.

    The (eps, u) pairs are drawn jointly with covariance ``spec.cov``; the
    cross-covariance is what makes the regressor endogenous.
    """
    eps, u = pairs[..., 0], pairs[..., 1]
    x = kernels.ar1_path(eps, 1.0, spec.x0)
    y = _regime_coefs(spec)[:, 0] * x + u
    return y, x[..., None], {"eps": eps, "u": u}


def _predictive_lur(spec, pairs):
    """Predictive regression with a local-to-unity regressor.

    The regressor evolves as x_t = rho x_{t-1} + u_t with rho = 1 + c/T, and
    row t pairs y_t with the lagged value x_{t-1}.  T+1 innovation pairs are
    drawn and the t=0 pairing is discarded so the sample has exactly T rows.
    The design is [1, x_{t-1}].
    """
    T = spec.T
    rho = _local_root(spec.persistence_c, T)
    eps, u = pairs[:, 1:, 0], pairs[:, 1:, 1]
    x = kernels.ar1_path(u, rho, spec.x0)
    X = np.ones((pairs.shape[0], T, 2))
    X[:, 0, 1] = spec.x0
    X[:, 1:, 1] = x[:, :-1]
    y = spec.intercept + _regime_coefs(spec)[:, 0] * X[..., 1] + eps
    return y, X, {"eps": eps, "u": u}


def _ar1(spec, z):
    """Autoregression on its own lag: y_t = rho_t y_{t-1} + u_t.

    The regime coefficients are the autoregressive roots, so the path is one
    recursion with the root of each step's regime; configs may supply the
    root through ``c`` (rho = 1 + c/T) instead of explicit coefficients.
    """
    T = spec.T
    u = math.sqrt(spec.cov.sigma_u_sq) * z
    y = kernels.ar1_path(u, _regime_coefs(spec)[:, 0], spec.x0)
    X = np.empty((z.shape[0], T, 1))
    X[:, 0, 0] = spec.x0
    X[:, 1:, 0] = y[:, :-1]
    return y, X, {"u": u}


def _lur_roots(spec):
    return {"c": _local_root(spec.persistence_c, spec.T)}


@dataclass(frozen=True)
class _Family:
    design_dim: object  # spec -> number of design columns
    draw_shape: object  # spec -> shape of one replication's standard normals
    build: object  # (spec, z) -> (y, X, innovations) stacks
    reads: tuple  # the keys of ``_DEFAULTS`` build reads; any other must keep its default
    pairs: bool = False  # build reads gaussian_pairs(z, spec.cov) in place of z
    one_coef: bool = True  # takes exactly one regime coefficient
    roots: object = lambda spec: {}  # spec -> {config key: autoregressive root it sets}, each |root| <= 1.5
    intercept_only: object = lambda spec: False  # spec -> whether the design is the single all-ones column


_FAMILIES = {
    "location": _Family(lambda spec: 1, lambda spec: (spec.T,), _location, ("sigma_eps_sq",),
                        intercept_only=lambda spec: True),
    "linear_regression": _Family(lambda spec: spec.p, lambda spec: (spec.T * spec.p,), _linear_regression,
                                 ("sigma_eps_sq",), one_coef=False, intercept_only=lambda spec: spec.p == 1),
    "cointegration": _Family(lambda spec: 1, lambda spec: (spec.T, 2), _cointegration,
                             ("sigma_eps_sq", "sigma_u_sq", "sigma_eps_u", "x0"), pairs=True),
    # intercept column plus lagged regressor
    "predictive_lur": _Family(lambda spec: 2, lambda spec: (spec.T + 1, 2), _predictive_lur, tuple(_DEFAULTS),
                              pairs=True, roots=_lur_roots),
    # its coefficients are the roots the recursion runs; c, which sets their default, is bounded too
    "ar1": _Family(lambda spec: 1, lambda spec: (spec.T,), _ar1, ("sigma_u_sq", "c", "x0"), roots=lambda spec: {
        **_lur_roots(spec), "beta_pre": spec.params_pre[0], "beta_post": spec.params_post[0]}),
}
FAMILIES = tuple(_FAMILIES)


def _stack(spec, z, pairs=None):
    family = _FAMILIES[spec.family]
    if family.pairs and pairs is None:
        pairs = gaussian_pairs(z, spec.cov)
    y, X, innovations = family.build(spec, pairs if family.pairs else z)
    return SampleStack(y=y, X=X, truth=spec, innovations=innovations)


def replication_bytes(T, p):
    """Bytes of one replication's generation stack: about four T x (p + 1)
    float64 arrays (its normals, paths, y and X)."""
    return 8 * T * 4 * (p + 1)


def draw_shape(spec):
    """Shape of the standard normals one replication of ``spec`` draws."""
    return _FAMILIES[spec.family].draw_shape(spec)


def pair_cov(spec):
    """The covariance whose pair transform of the normals ``spec`` builds
    from, or None when it builds from the normals themselves."""
    return spec.cov if _FAMILIES[spec.family].pairs else None


def generate(spec, stream):
    """Generate one sample from ``spec`` using the given random stream.

    ``stream`` may instead be a :class:`~breaklab.rng.StreamStack`, or the
    (R, *draw_shape(spec)) normals ``z`` such a stack drew, which are only
    read, or ``(z, gaussian_pairs(z, pair_cov(spec)))``, whose transform a
    family that builds from it reads in place of transforming ``z`` again;
    the result is then the :class:`SampleStack` of those streams, generated
    at once, whose row i equals the sample generated from stream i alone.
    """
    shape = draw_shape(spec)
    if isinstance(stream, (np.ndarray, tuple)):
        z, pairs = stream if isinstance(stream, tuple) else (stream, None)
        if z.shape[1:] != shape:
            raise DataError(f"{spec.family} draws normals of shape (R, *{shape}), got {z.shape}")
        return _stack(spec, z, pairs)
    if isinstance(stream, StreamStack):
        return _stack(spec, stream.normal_rows(shape))
    return _stack(spec, stream.standard_normal(shape)[None]).sample(0)


def _family_generator(family):
    def gen(spec, stream):
        if spec.family != family:
            raise SpecError(f"generator for family {family!r} got spec with family {spec.family!r}")
        return generate(spec, stream)

    gen.__name__ = gen.__qualname__ = f"gen_{family}"
    gen.__doc__ = _FAMILIES[family].build.__doc__
    return gen


gen_location = _family_generator("location")
gen_linear_regression = _family_generator("linear_regression")
gen_cointegration = _family_generator("cointegration")
gen_predictive_lur = _family_generator("predictive_lur")
gen_ar1 = _family_generator("ar1")


# ---------------------------------------------------------------------------
# flat key-value config serialization
# ---------------------------------------------------------------------------

def spec_to_config(spec):
    """Flatten a DgpSpec into the documented key-value form."""
    config = {key: get(spec) for key, get in _GETTERS.items()}
    return {key: list(value) if isinstance(value, tuple) else value for key, value in config.items()}


def _as_coef_tuple(value, key):
    if value is None:
        return None
    values = [value] if isinstance(value, (int, float)) else value
    if not (isinstance(values, (list, tuple)) and values):
        raise SpecError(f"config key {key!r} must be a number or a non-empty list of numbers, got {value!r}")
    return tuple(typed(float, v, f"config key {key!r}", SpecError) for v in values)


def spec_from_config(cfg):
    """Build a DgpSpec from a flat config mapping.

    Unknown keys are rejected by name, and a key not given keeps the
    default of its :class:`DgpSpec` or :class:`InnovCov` field.  For the
    ``ar1`` family the regime coefficients may be omitted, in which case
    both default to the root ``1 + c/T``.
    """
    json_object(cfg, "DGP config", SpecError, CONFIG_KEYS, ("family", "T"))
    kwargs, cov = {"family": cfg["family"], "T": typed(int, cfg["T"], "config key 'T'", SpecError)}, {}
    for key in CONFIG_KEYS:  # only the keys given: every default is the dataclass's
        if key in ("family", "T") or key not in cfg:
            continue
        if key in ("beta_pre", "beta_post"):
            value = _as_coef_tuple(cfg[key], key)
        else:
            value = typed(float, cfg[key], f"config key {key!r}", SpecError)
        name = _CONFIG_FIELDS[key]
        (cov if name.startswith("cov.") else kwargs)[name.removeprefix("cov.")] = value
    pre, post = kwargs.pop("params_pre", None), kwargs.pop("params_post", None)
    if pre is None and post is None and kwargs["family"] == "ar1":
        pre = (_local_root(kwargs.get("persistence_c", DgpSpec.persistence_c), kwargs["T"]),)
    if pre or post:
        kwargs.update(params_pre=pre or post, params_post=post or pre)
    return DgpSpec(**kwargs, cov=InnovCov(**cov))


# ---------------------------------------------------------------------------
# sample CSV round trip (header: t,y,x1,...,xp)
# ---------------------------------------------------------------------------

def sample_to_csv(sample, path):
    """Write a sample as CSV with header ``t,y,x1,...,xp``.

    Floats are written with 17 significant digits so the round trip is exact.
    A non-finite value raises :class:`DataError` naming its row.
    """
    bad = np.flatnonzero(~(np.isfinite(sample.y) & np.isfinite(sample.X).all(axis=1)))
    if bad.size:  # sample_from_csv would refuse it
        raise DataError(f"sample row {bad[0] + 1} has a non-finite value in y or X; its DGP overflows")
    header = ["t", "y", *(f"x{j}" for j in range(1, sample.p + 1))]
    values = np.column_stack((sample.y, sample.X)).tolist()
    rows = ([str(t), *(format(v, ".17g") for v in row)] for t, row in enumerate(values, 1))
    write_text(path, "sample", csv_text(header, rows))


def sample_from_csv(path):
    """Read a sample written by :func:`sample_to_csv` (truth is not stored).

    Rejects a file with no data rows, an empty line after the header, any
    row that is not comma-separated numbers (``#`` starts no comment), and
    ``nan``/``inf`` in y or X with a :class:`DataError` naming the first such
    data row (1-based, header excluded).
    """
    with opened(path, "input") as fh:
        header = fh.readline().strip()
        cols = header.split(",")
        if len(cols) < 3 or cols[0] != "t" or cols[1] != "y":
            raise DataError(
                f"{path}: expected header 't,y,x1,...,xp', got {header!r}"
            )
        rows = fh.read()
    if not rows.strip():
        raise DataError(f"{path}: has no data rows")
    lines = rows.splitlines()
    if "" in lines:  # sample_to_csv writes none, and np.loadtxt would skip it and misnumber the rows after it
        raise DataError(f"{path}: data row {lines.index('') + 1} is an empty line")
    try:
        data = np.loadtxt(lines, delimiter=",", ndmin=2, comments=None)
    except ValueError as exc:
        raise DataError(f"{path}: could not parse numeric rows: {exc}") from exc
    if data.shape[1] != len(cols):
        raise DataError(
            f"{path}: header names {len(cols)} columns but rows have {data.shape[1]}"
        )
    bad = np.flatnonzero(~np.isfinite(data[:, 1:]).all(axis=1))
    if bad.size:
        raise DataError(
            f"{path}: data row {bad[0] + 1} has a non-finite value in y or X"
            + (f" (+{bad.size - 1} more rows)" if bad.size > 1 else "")
        )
    return Sample(y=data[:, 1], X=data[:, 2:])
