"""Timing on a shared host, calibrated by a fixed interpreter-bound loop.

The benchmark gets a few cores of a shared host.  Load from other guests
slows every instruction of a run, by up to about 2x, for seconds to minutes
at a time, and it inflates CPU time as much as wall time.  :func:`measure`
therefore runs a short calibration slice every :data:`INTERVAL_S` of the
timed block (from a ``SIGALRM`` handler, so between bytecodes of the
program) and once before and after it, subtracts the slices from the
block's times, and reports the factor that scales those times to the
reference host's speed: :data:`REFERENCE_SLICE_S` over the mean slice time.
The slices are the benchmark's own code, so a change to the simulator moves
the scaled times exactly as it moves the measured ones.
"""

from __future__ import annotations

import contextlib
import os
import signal
import time
from collections import OrderedDict
from dataclasses import dataclass
from typing import Iterator, List, Tuple

#: iterations of one calibration slice.
SLICE_ITERATIONS = 40_000
#: seconds between calibration slices inside a timed block.
INTERVAL_S = 0.25
#: median seconds of one slice on the reference host when no other guest
#: loads it (README, Baseline); measured ones ranged 0.017-0.031 s.
REFERENCE_SLICE_S = 0.018


def cpu_seconds() -> float:
    """CPU time of this process and its reaped children."""
    times = os.times()
    return times.user + times.system + times.children_user + times.children_system


def calibration_slice() -> Tuple[float, float]:
    """Wall and CPU seconds one slice takes: a set-associative LRU cache fed
    by a linear congruential generator, the same kind of interpreter work as
    the reference engine's hot loop."""
    started, cpu0 = time.perf_counter(), time.process_time()
    sets: List[OrderedDict] = [OrderedDict() for _ in range(64)]
    state = 12345
    for _ in range(SLICE_ITERATIONS):
        state = (state * 1103515245 + 12345) & 0x7FFFFFFF
        line = (state >> 8) % 700
        lines = sets[line & 63]
        if line in lines:
            lines.move_to_end(line)
        else:
            lines[line] = None
            if len(lines) > 4:
                lines.popitem(last=False)
    return time.perf_counter() - started, time.process_time() - cpu0


@dataclass
class Timing:
    #: seconds of the timed block, calibration slices excluded.
    wall: float = 0.0
    cpu: float = 0.0
    #: factor to reference-host seconds (1.0 when not calibrated).
    scale: float = 1.0


@contextlib.contextmanager
def measure(calibrate: bool = True) -> Iterator[Timing]:
    """Time the block; with *calibrate*, also measure the host's speed."""
    timing = Timing()
    slices = [calibration_slice()] if calibrate else []

    def on_alarm(signum: int, frame: object) -> None:
        slices.append(calibration_slice())

    previous = signal.signal(signal.SIGALRM, on_alarm) if calibrate else None
    cpu0, started = cpu_seconds(), time.perf_counter()
    if calibrate:
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
    try:
        yield timing
    finally:
        if calibrate:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        wall, cpu = time.perf_counter() - started, cpu_seconds() - cpu0
    timing.wall = wall - sum(slice_wall for slice_wall, _ in slices[1:])
    timing.cpu = cpu - sum(slice_cpu for _, slice_cpu in slices[1:])
    if calibrate:
        slices.append(calibration_slice())
        timing.scale = REFERENCE_SLICE_S * len(slices) / sum(w for w, _ in slices)
