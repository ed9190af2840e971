"""Scale measured times to a reference host speed.

The benchmark's host is shared: its speed swings by up to 1.9x within
seconds and drifts by a quarter over minutes, so raw times of the same code
differ from run to run by more than any bound worth having.  `SpeedMeter`
times a fixed pure-Python loop just before an operation, every INTERVAL_S
while it runs (from a SIGALRM handler, in the main thread) and just after it.  The
operation's time, less the time spent in the handler, is then scaled by
REF_LOOP_S over the mean loop time: a scaled time is the time the operation
would take on a host that runs the loop in REF_LOOP_S.  The loop allocates no
object the garbage collector tracks, so sampling does not move the
operation's collections.
"""

from __future__ import annotations

import signal
import statistics
import time

INTERVAL_S = 0.005
LOOP_N = 500
# Loop samples taken just before and just after the operation: one sample is
# noisy, and an operation shorter than INTERVAL_S gets no other.
EDGE_SAMPLES = 3
# About the loop's median time on the 2-vCPU Intel Xeon host of the baseline.
REF_LOOP_S = 4.5e-5
_TABLE = list(range(256))


def _loop(n: int = LOOP_N) -> int:
    """List indexing and int arithmetic: the interpreter's bread and butter."""
    table, x, acc = _TABLE, 1, 0
    for i in range(n):
        x = table[(x * 5 + i) & 255]
        acc += x & 7
    return acc


def sample() -> tuple[float, float]:
    """(wall, cpu) seconds of one run of the loop."""
    t0, c0 = time.perf_counter(), time.process_time()
    _loop()
    return time.perf_counter() - t0, time.process_time() - c0


def loop_time(reps: int = 21) -> float:
    """Median wall time of `reps` runs of the loop."""
    return statistics.median(sample()[0] for _ in range(reps))


class SpeedMeter:
    """Measures an operation and the host's speed while it runs."""

    def __init__(self):
        self._samples: list[float] = []
        self._spent = [0.0, 0.0]

    def _on_alarm(self, signum, frame):
        wall, cpu = sample()
        self._samples.append(wall)
        self._spent[0] += wall
        self._spent[1] += cpu

    def measure(self, fn) -> tuple[object, float, float, float, float]:
        """Run fn(); returns (result, wall_s, cpu_s, raw_wall_s, raw_cpu_s).

        The raw times exclude the handler's; the scaled ones are raw times
        times REF_LOOP_S over the mean loop time.  An exception from fn
        propagates once the timer is stopped.
        """
        self._samples = [sample()[0] for _ in range(EDGE_SAMPLES)]
        self._spent = [0.0, 0.0]
        previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        t0, c0 = time.perf_counter(), time.process_time()
        try:
            result = fn()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
            wall, cpu = time.perf_counter() - t0, time.process_time() - c0
            signal.signal(signal.SIGALRM, previous)
        self._samples += [sample()[0] for _ in range(EDGE_SAMPLES)]
        wall, cpu = wall - self._spent[0], cpu - self._spent[1]
        factor = REF_LOOP_S / statistics.fmean(self._samples)
        return result, wall * factor, cpu * factor, wall, cpu
