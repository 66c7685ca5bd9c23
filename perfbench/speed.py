"""CPU speed probe, for times that do not move with the host's load.

On a shared host each virtual CPU is slowed, independently of the other,
by up to 1.6x in episodes that last seconds to minutes (measured on a
2-vCPU KVM guest on an Intel Xeon, family 6 model 207).  Whole runs can
fall inside one episode, so run-to-run spreads of raw times reach 25-35 %.

The benchmark therefore runs a fixed pure-Python kernel (Fraction
arithmetic, tuples and a dict, no frobtilt code) just before and just after
each timed operation, on the CPU the operation runs on, and, while an
operation runs in this process, every SAMPLE_INTERVAL_S from a timer
signal.  It reports the operation's time, less the kernel runs inside it,
scaled by REFERENCE_S over the kernel's mean time.  The result is the
operation's time on a CPU running the kernel in REFERENCE_S: "nominal
seconds".  The kernel does not depend on the program, so a change to
frobtilt moves nominal times exactly as it moves raw ones.
"""

from __future__ import annotations

import contextlib
import os
import signal
from fractions import Fraction
from time import perf_counter

# The kernel's time on an uncontended CPU of the machine above: the 5th
# percentile of 400 probe() results on one CPU.
REFERENCE_S = 0.00050
SAMPLE_INTERVAL_S = 0.05


def kernel() -> float:
    """Seconds one run of the fixed kernel takes on this CPU now."""
    t0 = perf_counter()
    table = {}
    for i in range(1, 120):
        x = Fraction(i, i + 1) * Fraction(i + 2, 2 * i + 3) + Fraction(1, i)
        table[i % 31] = (i, x.numerator % 97, x.denominator % 89)
    return perf_counter() - t0


def probe(cpus: list[int]) -> float:
    """Mean kernel time over the given CPUs; leaves the process pinned to them.

    On each CPU the kernel runs twice and the faster run counts, so that
    the caches a move to another CPU leaves cold do not count.
    """
    total = 0.0
    for cpu in cpus:
        os.sched_setaffinity(0, {cpu})
        total += min(kernel(), kernel())
    os.sched_setaffinity(0, set(cpus))
    return total / len(cpus)


class Sampler:
    """Runs the kernel from SIGALRM every SAMPLE_INTERVAL_S while active.

    Only for operations that run in this process: with pool workers busy
    on every CPU the kernel would time CPU sharing, not CPU speed.
    """

    def __init__(self) -> None:
        self.samples: list[float] = []
        self._previous = None

    def _handler(self, signum, frame) -> None:
        self.samples.append(kernel())

    def __enter__(self) -> "Sampler":
        self._previous = signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)


def timed(call, cpus: list[int], sample: bool):
    """Run call() on the given CPUs; (result or exception, raw s, nominal s).

    The kernel times taken before, during (when sample) and after the call
    set its scale; the kernel runs inside the call are not counted in it.
    """
    before = probe(cpus)
    sampler = Sampler()
    start = perf_counter()
    try:
        with sampler if sample else contextlib.nullcontext():
            outcome = call()
    except Exception as exc:  # reported by the caller as a failed operation
        outcome = exc
    elapsed = perf_counter() - start - sum(sampler.samples)
    kernels = [before, probe(cpus), *sampler.samples]
    return outcome, elapsed, elapsed * REFERENCE_S * len(kernels) / sum(kernels)
