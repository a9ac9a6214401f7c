"""Output schema versioning, JSON helpers and typed config fields."""

import numpy as np

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
    """``convert(value)``; a value of the wrong type raises ``error`` naming ``name``."""
    try:
        return convert(value)
    except (TypeError, ValueError, OverflowError) as exc:
        what = "an integer" if convert is int else "a number"
        raise error(f"{name} must be {what}, got {value!r}") from exc
