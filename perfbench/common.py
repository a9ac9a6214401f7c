"""Paths, child-process environment, seeds and small helpers shared by the
benchmark modules.

Nothing here imports numpy or breaklab at module level, so the set-up probe
can time those imports from a fresh interpreter.
"""

import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from contextlib import contextmanager

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
DATA = os.path.join(HERE, "data")
#: run outputs (result records, traces, CLI work files); ignored by git
RUN_DIR = os.path.join(ROOT, ".perfbench_run")

#: breaklab's own DEFAULT_MASTER_SEED; the seed for routine runs
DEFAULT_SEED = 0xC0FFEE
#: kept back for checking a claimed gain on a seed not used while tuning
HELDOUT_SEED = 20220201

#: one BLAS thread per process, so `--workers 2` on 2 cores does not
#: oversubscribe; set on this process before numpy loads and on every child
BLAS_CAPS = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}


class BenchError(Exception):
    """The benchmark cannot run here (missing program, bad arguments)."""


def apply_blas_caps():
    os.environ.update(BLAS_CAPS)


def child_env():
    """Environment for every process the benchmark starts."""
    env = dict(os.environ)
    env.update(BLAS_CAPS)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["PYTHONHASHSEED"] = "0"
    return env


def import_breaklab():
    """Import breaklab from this checkout's ``src`` and nowhere else."""
    if not os.path.isfile(os.path.join(SRC, "breaklab", "__init__.py")):
        raise BenchError(f"no breaklab package under {SRC}; run from a full checkout")
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    import breaklab

    where = os.path.dirname(os.path.abspath(breaklab.__file__))
    if os.path.commonpath([where, SRC]) != SRC:
        raise BenchError(f"breaklab was imported from {where}, not from {SRC}")
    return breaklab


def pass_seed(seed, index):
    """Master seed of timed pass ``index``.

    Every pass gets its own seed, so a cache inside the program cannot make
    a repeated pass cheaper than the single call a user makes.
    """
    return (int(seed) * 1000 + int(index)) % 2**62


def probe_s():
    """About two milliseconds of small numpy calls on the current CPU."""
    import numpy as np

    t0 = time.perf_counter()
    for i in range(80):
        g = np.random.Generator(np.random.Philox(key=np.array([7, i], dtype=np.uint64)))
        z = g.standard_normal(64)
        np.max(np.abs(np.cumsum(z - z.mean())))
    return time.perf_counter() - t0


#: the reference block's median time on the 2-vCPU machine the benchmark
#: was written on; times are reported at that speed (see README,
#: "Steadiness")
REF_S = 0.035


def reference_s():
    """Time of a fixed block of numpy work, about 35 ms: a million normals
    from a Philox stream, cumulated and reduced to each row's bridge sup.
    Its 8 MB arrays make memory traffic count, as it does in the workloads."""
    import numpy as np

    t0 = time.perf_counter()
    g = np.random.Generator(np.random.Philox(key=np.array([7, 1], dtype=np.uint64)))
    w = np.cumsum(g.standard_normal((512, 2000)), axis=1)
    np.max(np.abs(w - w[:, -1:] * np.linspace(0.0, 1.0, 2000)), axis=1)
    return time.perf_counter() - t0


class Ref:
    """Reference times taken around one block; ``seconds`` is their mean."""

    def __init__(self):
        self.samples = []

    @property
    def seconds(self):
        return sum(self.samples) / len(self.samples)


def _reference_on(cpus):
    """Mean reference time over ``cpus``, each measured pinned to that CPU."""
    times = []
    for cpu in cpus:
        os.sched_setaffinity(0, {cpu})
        times.append(reference_s())
    return sum(times) / len(times)


@contextmanager
def least_busy_cpu(pinned=True):
    """Runs a block on the CPU that is fastest at the time, and times the
    reference work (:func:`reference_s`) right before and after the block on
    that CPU.  Yields a :class:`Ref` that holds both times after the block.

    The host slows each CPU of this machine on its own, in episodes lasting
    seconds, and at times all of them for minutes; the scheduler sees
    neither.  Before the block a probe runs on every allowed CPU and the
    block is pinned to the fastest.  Dividing the block's time by the
    reference time taken around it removes most of the slowdown still in
    effect.  A block that starts a process pool is not pinned
    (``pinned=False``), since that would hide its parallelism; its reference
    is the mean over all CPUs.  The previous affinity is restored afterwards.
    """
    cpus = os.sched_getaffinity(0)
    ref = Ref()
    try:
        if pinned:
            speed = {}
            for cpu in sorted(cpus):
                os.sched_setaffinity(0, {cpu})
                probe_s()  # warms this CPU's caches after the move
                speed[cpu] = min(probe_s() for _ in range(3))
            around = [min(speed, key=speed.get)]
        else:
            around = sorted(cpus)
        ref.samples.append(_reference_on(around))
        os.sched_setaffinity(0, set(around) if pinned else cpus)
        yield ref
        ref.samples.append(_reference_on(around))
    finally:
        os.sched_setaffinity(0, cpus)


@contextmanager
def no_pin(pinned=True):
    """Stands in for :func:`least_busy_cpu` when a pass is not timed."""
    yield None


def sha256_text(text):
    return hashlib.sha256(text.encode()).hexdigest()


def median(values):
    return float(statistics.median(values))


def rel_close(a, b, rtol):
    return abs(a - b) <= rtol * max(abs(a), abs(b), 1e-300)


def load_json(path):
    with open(path) as fh:
        return json.load(fh)


def _git_sha():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    try:
        out = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10, check=True,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() or None


def source_digest():
    """sha256 over breaklab's sources; identifies the code when git cannot."""
    h = hashlib.sha256()
    pkg = os.path.join(SRC, "breaklab")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            h.update(name.encode())
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def environment():
    """What the numbers depend on besides the code."""
    import numpy
    import scipy

    breaklab = import_breaklab()
    blas = {}
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        pass
    return {
        "git_sha": _git_sha(),
        "source_sha256": source_digest(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "breaklab_backend": getattr(breaklab, "BACKEND", None),
        "blas_thread_caps": dict(BLAS_CAPS),
        "platform": platform.platform(),
    }
