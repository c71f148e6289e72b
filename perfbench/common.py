"""Paths and process settings shared by the benchmark's scripts.

The benchmark runs from the root of a source checkout and imports the
library from ``src/`` of that checkout, never from an installed copy.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PACKAGE_DIR = SRC / "planecurves"
OUT_DIR = ROOT / ".perfbench"

# BLAS pinned to one thread: with default threads the float64 matmul of
# the search kernel spreads over both cores of a 2-core machine, which
# makes wall time depend on whatever else runs there.
THREAD_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
}


# Times are normalized against a reference loop.  On a shared host the speed
# of the same code drifts within seconds, in CPU time as well as in wall
# time: on 2-vCPU Intel Xeon cloud hardware this loop took 3.7 to 6.3 ms of
# CPU time within a minute, differing between the two vCPUs and changing on
# each within a second.  So a call's CPU time is scaled by
# REFERENCE_NOMINAL_S over the mean of the loop's times measured on the same
# CPU just before, during and just after the call.
# The figures read as CPU time at the speed where the loop takes
# REFERENCE_NOMINAL_S.
REFERENCE_LOOPS = 40_000
REFERENCE_NOMINAL_S = 0.0038
# While a call runs, the loop is also timed this often.
REFERENCE_INTERVAL_S = 0.05


class MissingLibrary(RuntimeError):
    """The checkout has no importable ``src/planecurves``."""


def pin_threads() -> None:
    """Set the thread variables for this process and its children; must
    run before numpy is imported."""
    os.environ.update(THREAD_ENV)


def pin_cpu() -> int:
    """Keep this process and its children on one CPU, so the reference loop
    runs on the same CPU as the work it calibrates; returns the CPU."""
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def reference() -> float:
    """CPU seconds of a fixed pure-Python loop (dict lookups, integer ops)."""
    table = {i: (i * 7) % 13 for i in range(13)}
    acc = 0
    start = time.process_time()
    for i in range(REFERENCE_LOOPS):
        acc = table[(acc + i) % 13] ^ (i & 7)
    return time.process_time() - start


def normalize(cpu_s: float, refs: list) -> float:
    """CPU seconds scaled to the nominal speed of the reference loop."""
    return cpu_s * REFERENCE_NOMINAL_S * len(refs) / sum(refs)


def run_child(argv: list, env: dict, timeout: float, calibrate: bool = True):
    """Run a child to completion on this CPU, timing the reference loop
    every REFERENCE_INTERVAL_S meanwhile when ``calibrate``; the child is
    preempted for those few milliseconds, which leaves its CPU time
    unchanged.  Returns (exit code, stdout, stderr, reference times)."""
    refs = []
    deadline = time.monotonic() + timeout
    with subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          env=env) as proc:
        while True:
            try:
                out, err = proc.communicate(timeout=REFERENCE_INTERVAL_S)
                return proc.returncode, out, err, refs
            except subprocess.TimeoutExpired:
                if time.monotonic() > deadline:
                    proc.kill()
                    raise
                if calibrate:
                    refs.append(reference())


class InProcessReference:
    """Times the reference loop every REFERENCE_INTERVAL_S of wall time while
    a block runs in this process (from a SIGALRM handler), and keeps the
    loop's own CPU time out of the block's.

    A wall-clock timer, not ITIMER_PROF: while a process-wide CPU timer is
    armed, Linux reads the process CPU clock at tick granularity (4 ms)."""

    def __enter__(self):
        self.refs: list = []
        self.spent = 0.0
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, REFERENCE_INTERVAL_S, REFERENCE_INTERVAL_S)
        return self

    def _tick(self, signum, frame) -> None:
        start = time.process_time()
        self.refs.append(reference())
        self.spent += time.process_time() - start

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)


def child_env(**extra) -> dict:
    env = dict(os.environ)
    env.update(THREAD_ENV)
    env["PYTHONPATH"] = str(SRC)
    env.update(extra)
    return env


def import_planecurves():
    """Import the checkout's library, refusing any other copy."""
    if not (PACKAGE_DIR / "__init__.py").is_file():
        raise MissingLibrary(f"no planecurves package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import planecurves

    where = Path(planecurves.__file__).resolve().parent
    if where != PACKAGE_DIR.resolve():
        raise MissingLibrary(f"planecurves imported from {where}, not {PACKAGE_DIR}")
    return planecurves
