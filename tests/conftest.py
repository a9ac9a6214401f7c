"""Shared test helpers."""

import os
import subprocess
import sys

import pytest

import breaklab


@pytest.fixture(scope="session")
def python():
    """``python(args, cwd=None, **env_vars)`` starts ``python args`` in ``cwd``
    with ``env_vars`` set, importing the breaklab this test process imported:
    that package's directory goes first on ``PYTHONPATH`` (``src/`` for the
    source tree, site-packages for an installed package).  Unless ``env_vars``
    say otherwise, the child's standard output is buffered, so what it writes
    waits there for the exit flush."""
    home = os.path.dirname(os.path.dirname(os.path.abspath(breaklab.__file__)))
    path = os.pathsep.join(filter(None, (home, os.environ.get("PYTHONPATH"))))

    def start(args, cwd=None, **env_vars):
        env = {**os.environ, "PYTHONPATH": path}
        env.pop("PYTHONUNBUFFERED", None)
        env.update(env_vars)
        return subprocess.Popen([sys.executable, *args], cwd=cwd, env=env,
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)

    return start
