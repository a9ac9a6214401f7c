"""Shared test helpers."""

import os
import subprocess
import sys
from unittest import mock

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


@pytest.fixture
def sample_csv(tmp_path):
    """``tmp_path / "d.csv"``, a sample ``t,y,x1`` of 8 rows: y cycles 0, 1, 2 on the all-ones column."""
    path = tmp_path / "d.csv"
    path.write_text("t,y,x1\n" + "\n".join(f"{t + 1},{t % 3},1" for t in range(8)) + "\n")
    return path


@pytest.fixture
def spy(monkeypatch):
    """``spy(owner, name)`` wraps ``owner.name`` for the rest of the test, still calling
    it, and returns the list of its calls, each a :data:`unittest.mock.call` of the
    arguments it got (a method's ``self`` first)."""

    def watch(owner, name):
        calls, real = [], getattr(owner, name)
        monkeypatch.setattr(
            owner, name, lambda *args, **kwargs: calls.append(mock.call(*args, **kwargs)) or real(*args, **kwargs)
        )
        return calls

    return watch


@pytest.fixture
def drawn(spy):
    """Every call of :meth:`breaklab.rng.StreamStack.normal_rows` in the test: each draw of
    normals, by the engine, a tabulation or a single sample."""
    from breaklab import rng

    return spy(rng.StreamStack, "normal_rows")
