"""Host-speed calibration: a fixed pure-Python loop timed between repetitions.

The benchmark runs on shared hosts whose speed drifts: the same repetition
can take 1.5 to 2 times as long for seconds or minutes at a time, with CPU
time equal to wall time, so the slowdown cannot be seen from inside the
process.  A run of the benchmark lasts tens of seconds, so its median follows
that drift, and two sets of runs an hour apart can differ by more than any
useful regression bound.

:func:`measure` times a loop that does a fixed amount of interpreter work
(integer arithmetic, dictionary updates, small string allocations, no I/O and
nothing from the program under test).  Timed between repetitions, it gives
the host's speed around each repetition relative to a reference host, and
:func:`adjust` scales the repetition's seconds to what they would have been
on the reference host.  On a host running at the reference speed the
adjusted and raw seconds agree.

The workloads do not always slow down exactly as the loop does.  At host
speeds around 0.65 of the reference, a busy host has read up to 20% fast
(``table1-spice``); at 0.5, ``sharded-rdag`` slowed as much as the loop.
"""

from __future__ import annotations

import os
import statistics
import time

#: Seconds of one :func:`_kernel` call on the reference host (a quiet 2-CPU
#: x86_64 host, Python 3.11); the adjusted times are in its seconds.
REFERENCE_S = 0.0029
#: Kernel calls per CPU in :func:`measure`, about 35 ms on the reference host.
CALLS = 12
#: CPUs sampled by :func:`measure` (the first ones the process may use).
MAX_CPUS = 4
#: Calibrations averaged on each side of a sample by :func:`adjust`.
SPAN = 2


def _kernel() -> int:
    table: dict[int, int] = {}
    acc = 0
    for i in range(12000):
        key = i & 511
        table[key] = table.get(key, 0) + (i ^ (i >> 3))
        acc += len(str(i))
    return acc + min(table.values())


def measure() -> float:
    """Mean seconds of one kernel call, over :data:`CALLS` calls on each CPU.

    The calls run pinned to each CPU the process may use in turn, because
    the CPUs of a shared host slow down independently and a repetition (or
    the worker pool of ``sharded-rdag``) may run on any of them.  A mean
    rather than a median, so that a slow spell inside the window counts as
    it does in the repetition next to it.
    """
    allowed = sorted(os.sched_getaffinity(0))
    cpus = allowed[:MAX_CPUS]
    start = time.perf_counter()
    try:
        for cpu in cpus:
            os.sched_setaffinity(0, {cpu})
            for _ in range(CALLS):
                _kernel()
    finally:
        os.sched_setaffinity(0, allowed)
    return (time.perf_counter() - start) / (CALLS * len(cpus))


def adjust(samples: list[tuple[int, float]], calibrations: list[float]) -> list[float]:
    """Scale samples to the reference host's speed.

    A sample ``(k, seconds)`` was timed between ``calibrations[k - 1]`` and
    ``calibrations[k]``; it is scaled by the mean of the :data:`SPAN`
    calibrations on each side of it, which follows slow spells of a few
    seconds while averaging out the noise of single calibrations.
    """
    return [
        seconds * REFERENCE_S / statistics.fmean(calibrations[max(0, k - SPAN):k + SPAN])
        for k, seconds in samples
    ]
