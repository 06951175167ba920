"""Reference kernel and the clock that normalises spans against it.

The machine this benchmark targets changes speed by up to a factor of two,
over tens of seconds and within single ops, while process CPU time tracks
wall time: the machine itself drifts, so no run length or median averages
it away.  Every timed span is therefore measured against a fixed reference
kernel and reported in normalised seconds, raw_s * R0 / R, where R is the
median kernel time over the samples taken just before, inside and just
after the span, and R0 is the constant below.

The kernel uses only the standard library and never imports `absorder`, so
no change to the program can change the yardstick.  It runs with the cyclic
garbage collector paused, so that a program holding more live objects
cannot slow the kernel and look faster by comparison, and only while the
process has no other thread and no child process.
"""

import contextlib
import gc
import os
import signal
import statistics
import threading
import time
from fractions import Fraction

# Median kernel time, in seconds, on the machine the benchmark was tuned on.
# Normalised seconds are seconds at that speed.
R0 = 0.015

SAMPLES_PER_BRACKET = 3
# What the kernel returns; a different value means it did not do its work.
KERNEL_VALUE = 3872430
# Seconds between kernel samples taken inside an in-process span.
INTERVAL = 0.15


class CalibrationError(RuntimeError):
    """The kernel could not run cleanly, so the span cannot be normalised."""


def _kernel() -> int:
    """Tuple, dict, big-integer and Fraction work: about 15 ms at R0."""
    table = {}
    for i in range(12000):
        key = (i % 61, i % 37, i & 7)
        table[key] = table.get(key, 0) + i
    mask = 0
    for i in range(0, 4000, 3):
        mask |= 1 << i
    bits = 0
    probe = mask
    while probe:
        low = probe & -probe
        bits += low.bit_length()
        probe ^= low
    acc = Fraction(0)
    for k in range(1, 120):
        acc += Fraction(k, k * k + 1)
    words = sorted(table.items())
    return (len(words) + bits + acc.numerator % 1000003
            + sum(v for _, v in words[:50]))


def _no_other_activity() -> bool:
    if threading.active_count() != 1:
        return False
    try:
        os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return True
    return False


def kernel_sample() -> float:
    """Raw seconds of one kernel call, under the guards above."""
    if not _no_other_activity():
        raise CalibrationError("reference kernel needs a quiet process: "
                               "a thread or child process is alive")
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        value = _kernel()
        elapsed = time.perf_counter() - start
    finally:
        if was_enabled:
            gc.enable()
    if value != KERNEL_VALUE:
        raise CalibrationError(f"reference kernel returned {value}")
    return elapsed


class Clock:
    """Times spans against the kernel; keeps every raw sample.

    A span is bracketed by kernel samples before and after it.  An
    in-process span is also interleaved with them: a wall-clock timer
    interrupts it every INTERVAL seconds to take one more sample, because
    the machine's speed changes within a single op.  The time spent in
    those samples is taken out of the span (`now` excludes it), and R is
    the median of every sample from the bracket before to the bracket
    after.  Consecutive spans share the bracket between them.
    """

    def __init__(self):
        self.samples = []
        self.paused = 0.0
        self._last = None
        self.inside = []

    def now(self) -> float:
        """Seconds of program time: wall time minus time spent sampling."""
        return time.perf_counter() - self.paused

    def bracket(self) -> list:
        taken = [kernel_sample() for _ in range(SAMPLES_PER_BRACKET)]
        self.samples.extend(taken)
        self._last = taken
        return taken

    def _tick(self, signum, frame):
        start = time.perf_counter()
        sample = kernel_sample()
        self.inside.append(sample)
        self.paused += time.perf_counter() - start

    @contextlib.contextmanager
    def interleaved(self):
        """Take a kernel sample every INTERVAL seconds of the block."""
        previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0, 0)
            signal.signal(signal.SIGALRM, previous)

    def absorb(self, samples: list, paused: float) -> None:
        """Count samples another process took inside the current span."""
        self.inside.extend(samples)
        self.paused += paused

    def span(self, fn, interleave: bool = True):
        """Run fn between brackets; return (value, raw_s, normalised_s, factor).

        Pass interleave=False while a child process runs: the kernel must
        not share the machine with the program.  Such a child may take its
        own samples and hand them over with `absorb`.
        """
        before = self._last if self._last is not None else self.bracket()
        self._last = None
        self.inside = []
        start = self.now()
        if interleave:
            with self.interleaved():
                value = fn()
        else:
            value = fn()
        raw = self.now() - start
        inside, self.inside = self.inside, []
        self.samples.extend(inside)
        after = self.bracket()
        factor = R0 / statistics.median(before + inside + after)
        return value, raw, raw * factor, factor

    def reset(self) -> None:
        """Forget the last bracket, so the next span takes a fresh one."""
        self._last = None
