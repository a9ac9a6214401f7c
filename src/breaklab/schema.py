"""Output schema versioning, file and JSON helpers, the JSON field and object rules and the float policy."""

import json
import math
import os
from contextlib import contextmanager, suppress

import numpy as np

from .errors import DataError

#: bumped whenever any CSV header or JSON layout changes
SCHEMA_VERSION = "1"


def jsonable(obj):
    """Recursively convert numpy scalars/arrays for the json module."""
    if isinstance(obj, dict):
        return {k: jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [jsonable(v) for v in obj.tolist()]
    if isinstance(obj, np.bool_):
        return bool(obj)
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.floating):
        return float(obj)
    return obj


def typed(convert, value, name, error):
    """The JSON ``value`` of field ``name`` as ``convert`` (int or float): an integer
    field takes only an integer, a number field an integer or a float; a bool, a
    string or any other value raises ``error`` naming ``name``."""
    kinds = (int, np.integer) if convert is int else (int, float, np.integer, np.floating)
    if isinstance(value, kinds) and not isinstance(value, bool):
        with suppress(OverflowError):  # an integer too large for a float
            return convert(value)
    what = "an integer" if convert is int else "a number"
    raise error(f"{name} must be {what}, got {value!r}")


def json_object(value, what, error, keys=None, required=()):
    """``value`` if it is a JSON object whose keys all lie in ``keys`` (None: any)
    and include each ``required`` one; otherwise ``error`` naming ``what`` and the key."""
    if not isinstance(value, dict):
        raise error(f"{what} must be a JSON object, got {type(value).__name__}")
    unknown = [] if keys is None else sorted(map(str, set(value) - set(keys)))
    if unknown:
        raise error(f"unknown {what} key(s): {', '.join(unknown)}")
    for key in required:
        if key not in value:
            raise error(f"{what} is missing required key {key!r}")
    return value


def finite(value, name, error):
    """Refuse a NaN or infinite ``value`` (a number or a tuple of them) with
    ``error`` naming ``name``; a range check alone lets NaN through."""
    if not all(map(math.isfinite, value if isinstance(value, tuple) else (value,))):
        raise error(f"{name} must be finite, got {value!r}")


def float_policy():
    """The float policy of every computation on drawn or read data: an overflow,
    a division by zero or an invalid operation gives inf or NaN, which the
    computation's own checks count as a failure or refuse, so numpy stays quiet."""
    return np.errstate(divide="ignore", invalid="ignore", over="ignore")


@contextmanager
def opened(path, what, mode="r"):
    """``open(path, mode)``; any ``OSError`` from opening to closing raises
    :class:`DataError` naming the ``what`` file and its path."""
    try:
        with open(path, mode) as fh:
            yield fh
    except OSError as exc:
        if mode == "r" and isinstance(exc, FileNotFoundError):
            raise DataError(f"{what} file does not exist: {path}") from exc
        verb = "read" if mode == "r" else "write"
        raise DataError(f"cannot {verb} {what} file {path}: {exc.strerror or exc}") from exc


def check_writable(*paths):
    """Open each output path (None: none) for writing once, before any work,
    so an output that cannot be written fails first; a probe file is removed."""
    for path in filter(None, paths):
        created = not os.path.lexists(path)
        with opened(path, "output", "a"):
            pass
        if created:
            os.remove(path)


def read_json(path, what):
    """The JSON object in the ``what`` file at ``path``; a file that cannot
    be read, is not JSON or holds no object raises :class:`DataError`."""
    with opened(path, what) as fh:
        try:
            payload = json.load(fh)
        except ValueError as exc:
            raise DataError(f"{path}: not valid JSON: {exc}") from exc
    return json_object(payload, f"{path}: the {what}", DataError)
