"""Wall-clock stack sampler for the traced benchmark runs.

A SIGALRM interval timer interrupts the main thread; the handler walks the
interrupted stack.  Each sample is weighted by the wall time since the
previous one, so a long call into numpy (during which Python cannot run
the handler) is charged in full to the frame that made it when the
handler finally runs.

Self time goes to the module of the innermost frame that lives under the
sampled package directory; a sample with no such frame (imports, the
benchmark's own loop, interpreter start-up) goes to ``outside``.
Module-level code (``<module>`` frames) counts as outside, because it only
runs while importing.  Inclusive time is kept for named groups of code
objects and for (code, line) pairs, each sample counted once per group.
"""

from __future__ import annotations

import os
import signal
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

OUTSIDE = "outside"


class Sampler:
    """Aggregates weighted stack samples in memory; nothing is written
    until the caller asks for ``snapshot()``."""

    def __init__(self, package_dir: str, interval: float = 0.005):
        self.package_dir = os.path.realpath(package_dir) + os.sep
        self.interval = interval
        self.self_s: dict[str, float] = defaultdict(float)
        self.group_s: dict[str, float] = defaultdict(float)
        self.samples = 0
        self.wall_s = 0.0
        self.active = False
        self._by_code: dict = {}
        self._by_line: dict = {}
        self._module_of: dict = {}
        self._last = 0.0
        self._started = 0.0

    def add_group(self, name: str, codes=(), lines=()) -> None:
        """Inclusive-time group: a sample counts when any frame on the stack
        runs one of ``codes`` or sits on one of the (code, lineno) ``lines``."""
        for code in codes:
            self._by_code.setdefault(code, set()).add(name)
        for key in lines:
            self._by_line.setdefault(key, set()).add(name)
        self.group_s.setdefault(name, 0.0)

    def start(self) -> None:
        self._started = self._last = time.perf_counter()
        self.active = True
        signal.signal(signal.SIGALRM, self._on_signal)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self.active = False
        # The interval since the last sample goes to the caller's stack, so
        # that stopping and restarting often loses no time.
        now = time.perf_counter()
        self.record(sys._getframe(1), now - self._last)
        self.wall_s += now - self._started

    @contextmanager
    def paused(self):
        """Suspend sampling for a block when it is running; time spent in the
        block is charged to no layer."""
        if not self.active:
            yield
            return
        self.stop()
        try:
            yield
        finally:
            self.start()

    def _module(self, code):
        """Module name under the package for a code object, else None."""
        try:
            return self._module_of[code]
        except KeyError:
            path = os.path.realpath(code.co_filename)
            mod = None
            if path.startswith(self.package_dir) and code.co_name != "<module>":
                rel = path[len(self.package_dir):]
                mod = os.path.splitext(rel)[0].replace(os.sep, ".")
            self._module_of[code] = mod
            return mod

    def _on_signal(self, signum, frame) -> None:
        now = time.perf_counter()
        weight = now - self._last
        self._last = now
        self.record(frame, weight)

    def record(self, frame, weight: float) -> None:
        self.samples += 1
        innermost = None
        hit = set()
        by_code, by_line = self._by_code, self._by_line
        while frame is not None:
            code = frame.f_code
            if innermost is None:
                innermost = self._module(code)
            names = by_code.get(code)
            if names:
                hit |= names
            if by_line:
                names = by_line.get((code, frame.f_lineno))
                if names:
                    hit |= names
            frame = frame.f_back
        self.self_s[innermost or OUTSIDE] += weight
        for name in hit:
            self.group_s[name] += weight

    def snapshot(self) -> dict:
        return {
            "self_s": dict(self.self_s),
            "group_s": dict(self.group_s),
            "samples": self.samples,
            "wall_s": self.wall_s,
        }


def lines_calling(func, needle: str) -> set:
    """(code, lineno) pairs of the lines in ``func`` whose source contains
    ``needle``; used for work done inline rather than in its own function."""
    import inspect

    code = func.__code__
    source, first = inspect.getsourcelines(func)
    return {(code, first + i) for i, text in enumerate(source) if needle in text}
