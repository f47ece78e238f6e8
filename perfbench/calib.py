"""Machine-speed calibration: a fixed reference measured next to each timed measurement.

The shared machine the benchmark runs on changes speed in phases of a
fraction of a second to a minute: the same verdict runs up to 1.7x
slower, and its CPU time moves with its wall time, so neither a longer
run nor CPU time removes the change.  So every timed measurement is
taken together with a fixed reference that uses no tiltval code, and
its time is scaled by

    reference time at reference speed / reference time measured

which gives the time it would have taken with the reference at its
reference speed.  A change to tiltval moves the scaled time exactly as
it moves the raw time; a phase of the machine moves the reference as
well and cancels.  There are two references, one per kind of
measurement, because a phase slows process start-up and interpreter
work by different amounts:

- ``kernel()`` for work inside a running interpreter (the worker's
  verdicts, and the per-layer times): Fraction arithmetic, dict updates
  and big-integer products, the kind of work tiltval does.  It runs
  ``ENDPOINT_RUNS`` times just before and just after a verdict, and a
  :class:`Sampler` runs it every ``SAMPLE_INTERVAL_S`` during the
  verdict, so that a phase that begins or ends inside a long verdict is
  seen.  The sampler's own time is taken out of the verdict's.
- A bare ``python -c pass`` start, spawned by the benchmark with the
  same interpreter and environment just before and after, for
  measurements that are whole processes (set-up, cold-mix verdicts, the
  import probe).

The raw times and the reference times are kept in the raw rows.
"""

from __future__ import annotations

import gc
import signal
import time
from fractions import Fraction

# Reference times at which a scaled time equals the raw one: roughly the
# medians on a 2-vCPU shared VM with Python 3.11.7.  Constants, so that
# scaled times compare across runs and commits.
KERNEL_REFERENCE_S = 0.001
SPAWN_REFERENCE_S = 0.075

ENDPOINT_RUNS = 8  # kernel runs just before and just after each in-process verdict
SAMPLE_INTERVAL_S = 0.02  # one kernel run per this much of a verdict's wall time

_MODULUS = 7**700 + 1


def kernel() -> int:
    """A fixed amount of interpreter work; the result only keeps it from being optimised away."""
    acc: dict[int, int] = {}
    x = Fraction(1, 3)
    for i in range(1, 150):
        x = x * Fraction(i % 7 + 1, i % 5 + 2) + Fraction(1, i)
        if x.denominator > 10**40:
            x = Fraction(x.numerator % 1000003, x.denominator % 999983 + 1)
        acc[i % 97] = acc.get(i % 97, 0) + (i * 2654435761) % 1000003
    n = 3**400
    for _ in range(8):
        n = (n * n) % _MODULUS
    return n + sum(acc.values())


def timed() -> float:
    """One run of the kernel, in seconds of wall time.

    The collector is off while it runs, as in ``timeit``: otherwise a
    full collection over the host process's heap, which grows with the
    verdicts run so far, lands in the kernel's time.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter_ns()
        kernel()
        return (time.perf_counter_ns() - start) / 1e9
    finally:
        if enabled:
            gc.enable()


def endpoint() -> list[float]:
    return [timed() for _ in range(ENDPOINT_RUNS)]


class Sampler:
    """Runs the kernel from a SIGALRM handler every ``SAMPLE_INTERVAL_S`` while active.

    ``spent_wall_ns`` and ``spent_cpu_ns`` are the handler's own time, to
    be taken out of the measurement it interrupted.
    """

    def __init__(self) -> None:
        self.samples: list[float] = []
        self.spent_wall_ns = 0
        self.spent_cpu_ns = 0
        self._previous = None

    def _sample(self, signum, frame) -> None:
        wall0, cpu0 = time.perf_counter_ns(), time.process_time_ns()
        self.samples.append(timed())
        self.spent_cpu_ns += time.process_time_ns() - cpu0
        self.spent_wall_ns += time.perf_counter_ns() - wall0

    def __enter__(self) -> Sampler:
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)


def kernel_factor(mean_s: float) -> float:
    """Scale for an in-process measurement whose kernel runs took ``mean_s`` on average."""
    return KERNEL_REFERENCE_S / mean_s


def spawn_factor(before: float, after: float) -> float:
    """Scale for a process measurement taken between two bare interpreter starts of these durations."""
    return SPAWN_REFERENCE_S / ((before + after) / 2)
