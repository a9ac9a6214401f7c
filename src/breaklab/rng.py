"""Deterministic stream-splittable random number generation.

Streams are counter-based: a 128-bit Philox key is formed directly from
``(master_seed, stream_id)``, so the stream is a pure function of both fields
and distinct stream ids give statistically independent generators.  Workers
never share a stream; replication r of an experiment always uses
``stream_id = r`` regardless of how replications are scheduled, which makes
every Monte Carlo result independent of the worker count.

Limit-process draws (critical-value tabulation) live in a disjoint stream-id
namespace so that a table simulated inline with the same master seed never
reuses the innovation streams of the experiment it calibrates.

Given a range of replications or draws, :func:`replication_stream` and
:func:`limit_draw_stream` return a :class:`StreamStack`.  Its
``normal_rows(shape)`` stacks one row per stream, row i bit for bit what
stream i's own generator draws first, so a stack of replications or limit
draws costs one re-keyed bit generator instead of one generator per stream.
"""

from dataclasses import dataclass

import numpy as np

from .errors import SpecError
from .schema import finite

#: master seed used when none is given, so documented examples reproduce
DEFAULT_MASTER_SEED = 0xC0FFEE

_U64_MAX = 2**64

#: stream-id namespace offset for limit-process draws
LIMIT_DRAW_STREAM_OFFSET = 2**63


@dataclass(frozen=True)
class SeedSpec:
    """Master seed plus stream index; identifies one random stream."""

    master_seed: int
    stream_id: int

    def __post_init__(self):
        for name in ("master_seed", "stream_id"):
            value = getattr(self, name)
            if not isinstance(value, (int, np.integer)):
                raise SpecError(f"{name} must be an integer, got {value!r}")
            if not 0 <= value < _U64_MAX:
                raise SpecError(f"{name} must fit in an unsigned 64-bit integer, got {value}")


def derive_stream(seed):
    """Return the generator keyed on (master_seed, stream_id).

    The mapping is pure: the same ``SeedSpec`` always yields a generator
    producing the identical draw sequence.
    """
    key = np.array([seed.master_seed, seed.stream_id], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


@dataclass(frozen=True)
class StreamStack:
    """The streams ``(master_seed, i)`` of every id i in the range
    ``stream_ids``, drawn from together.

    Both ends of the range are validated like a :class:`SeedSpec`, so every
    id in it is.
    """

    master_seed: int
    stream_ids: range

    def __post_init__(self):
        ends = (*self.stream_ids[:1], *self.stream_ids[-1:])
        for stream_id in ends or (0,):
            SeedSpec(self.master_seed, stream_id)

    def __len__(self):
        return len(self.stream_ids)

    def normal_rows(self, shape):
        """Standard normals of shape ``(len(self), *shape)``, one stream per row.

        Row r equals ``derive_stream(SeedSpec(master_seed, stream_ids[r]))
        .standard_normal(shape)`` bit for bit: one Philox bit generator is
        re-keyed to each stream's initial state in turn, in place of one new
        generator per stream.  Every call draws from the streams' start.
        """
        out = np.empty((len(self), *shape))
        bits = np.random.Philox(key=np.array([self.master_seed, 0], dtype=np.uint64))
        gen = np.random.Generator(bits)
        state = bits.state
        key = state["state"]["key"]
        for row, stream_id in zip(out, self.stream_ids):
            key[1] = stream_id
            bits.state = state
            gen.standard_normal(shape, out=row)
        return out


def replication_stream(master_seed, rep):
    """Stream for Monte Carlo replication ``rep`` (stream_id = rep).

    A range of replications gives their :class:`StreamStack`.
    """
    if isinstance(rep, range):
        return StreamStack(master_seed, rep)
    return derive_stream(SeedSpec(master_seed, rep))


def limit_draw_stream(master_seed, draw):
    """Stream for limit-process draw ``draw``, in its own id namespace.

    A range of draws gives their :class:`StreamStack`.
    """
    offset = LIMIT_DRAW_STREAM_OFFSET
    if isinstance(draw, range):
        return StreamStack(master_seed, range(offset + draw.start, offset + draw.stop, draw.step))
    return derive_stream(SeedSpec(master_seed, offset + draw))


@dataclass(frozen=True)
class InnovCov:
    """2x2 innovation covariance for the (eps, u) pair.

    ``sigma_eps_sq`` and ``sigma_u_sq`` are the variances of the regression
    and regressor innovations, ``sigma_eps_u`` their covariance.  A zero
    determinant (perfectly correlated innovations) is accepted; the
    conditional standard deviation of u given eps is then zero.  Zero
    variances are representable so noiseless examples can be encoded, but
    joint pair sampling requires strictly positive diagonals.
    """

    sigma_eps_sq: float = 1.0
    sigma_u_sq: float = 1.0
    sigma_eps_u: float = 0.0

    def __post_init__(self):
        for name in ("sigma_eps_sq", "sigma_u_sq", "sigma_eps_u"):
            finite(getattr(self, name), name, SpecError)
        if self.sigma_eps_sq < 0:
            raise SpecError(f"sigma_eps_sq must be nonnegative, got {self.sigma_eps_sq}")
        if self.sigma_u_sq < 0:
            raise SpecError(f"sigma_u_sq must be nonnegative, got {self.sigma_u_sq}")
        det = self.determinant
        scale = max(self.sigma_eps_sq * self.sigma_u_sq, 1.0e-30)
        if not det >= -1e-12 * scale:  # a NaN determinant (inf - inf) is refused too
            raise SpecError(
                "innovation covariance is not positive semi-definite: "
                f"determinant {det} < 0 (sigma_eps_u**2 exceeds sigma_eps_sq * sigma_u_sq)"
            )

    @property
    def determinant(self):
        return self.sigma_eps_sq * self.sigma_u_sq - self.sigma_eps_u * self.sigma_eps_u  # inf, not OverflowError

    @property
    def correlation(self):
        scale = np.sqrt(self.sigma_eps_sq * self.sigma_u_sq)
        if scale == 0.0:
            return 0.0
        return self.sigma_eps_u / scale

    @property
    def endogeneity_slope(self):
        """Slope of the conditional mean of u given eps."""
        return self.sigma_eps_u / self.sigma_eps_sq

    @property
    def conditional_u_var(self):
        """Variance of u net of its projection on eps (clamped at zero)."""
        return max(self.sigma_u_sq - self.sigma_eps_u**2 / self.sigma_eps_sq, 0.0)

    def cholesky_factor(self):
        """Lower-triangular square root L with L L' equal to the covariance.

        Requires strictly positive variances on the diagonal.
        """
        if not (self.sigma_eps_sq > 0 and self.sigma_u_sq > 0):
            raise SpecError(
                "joint pair sampling requires positive innovation variances, got "
                f"sigma_eps_sq={self.sigma_eps_sq}, sigma_u_sq={self.sigma_u_sq}"
            )
        a = np.sqrt(self.sigma_eps_sq)
        b = self.sigma_eps_u / a
        c = np.sqrt(self.conditional_u_var)
        return np.array([[a, 0.0], [b, c]])


def gaussian_pairs(z, cov):
    """Correlated (eps, u) pairs from standard normals ``z`` of shape (..., n, 2).

    Pairs are formed by the lower-triangular square-root transform of
    independent standard normals, so sample moments converge to ``cov``.
    """
    return z @ cov.cholesky_factor().T


def draw_gaussian_pairs(stream, n, cov):
    """Draw n correlated (eps, u) pairs as an (n, 2) array (see :func:`gaussian_pairs`)."""
    if n < 0:
        raise SpecError(f"n must be nonnegative, got {n}")
    return gaussian_pairs(stream.standard_normal((n, 2)), cov)
