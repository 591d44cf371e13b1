"""Host speed index: a fixed unit of CPU work, timed while the program is idle.

The machines this benchmark runs on share physical cores with other
tenants: the same code runs up to ~2x slower on a virtual CPU while
its sibling is busy, in phases lasting from a second to minutes, and
each virtual CPU has its own phases. Raw host seconds from two runs are
then not comparable. So the benchmark times a fixed unit of work (JSON
round trips, dict and list work in the interpreter, a NumPy sort) on
the CPUs the measured work runs on, just before and just after each
timed stretch of work, and reports that work at a reference speed::

    adjusted = raw * REF_UNIT_S / mean(unit before, unit after)

The unit is timed only while the measured program is idle (no pass
running, no pool worker alive, no job in the daemon), so it measures the
other tenants' load on those CPUs and not the program's own: a change
that makes the program use less CPU, cache or memory bandwidth leaves
the unit alone. Units are timed in host (wall) seconds and averaged, so
the time the hypervisor takes a virtual CPU away (steal) slows the unit
as it slows the program; with the program idle, nothing of its own can
hold the CPU. Raw values stay in the run record.
"""

from __future__ import annotations

import json
import os
import statistics
import time
from contextlib import contextmanager
from typing import Iterator, List, Sequence

import numpy as np

#: CPU seconds of one unit at the reference speed: what it took on the
#: 2-vCPU host the bounds were set on while its cores were quiet (about
#: 1.25 ms while they were contended); adjusted seconds are on this scale
REF_UNIT_S = 0.00064
#: units timed per CPU per calibration; the calibration is their mean
UNITS_PER_CPU = 9

_RECORDS = [{"id": i, "name": f"cell-{i}", "vals": [i * 0.5, i + 1.0, float(i % 7)]}
            for i in range(60)]
_ARRAY = np.random.default_rng(7).integers(0, 4096, 4096)


def unit_seconds() -> float:
    """Host seconds for one unit of fixed work."""
    start = time.perf_counter()
    for _ in range(4):
        back = json.loads(json.dumps(_RECORDS, sort_keys=True))
        acc = 0.0
        for record in back:
            acc += record["vals"][0] * 3 + len(record["name"])
        back.sort(key=lambda r: -r["vals"][2])
        np.sort(_ARRAY)
    return time.perf_counter() - start


def usable_cpus() -> List[int]:
    return sorted(os.sched_getaffinity(0))


@contextmanager
def pinned(cpu: int) -> Iterator[None]:
    """Run the block with this thread (and processes it starts) on one CPU."""
    saved = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {cpu})
    try:
        yield
    finally:
        os.sched_setaffinity(0, saved)


def calibrate(cpus: Sequence[int]) -> float:
    """The unit on ``cpus`` now: the mean of a few units on each CPU, then
    over the CPUs. Call it only while the measured work is idle."""
    per_cpu = []
    for cpu in cpus:
        with pinned(cpu):
            per_cpu.append(statistics.mean(unit_seconds() for _ in range(UNITS_PER_CPU)))
    return statistics.mean(per_cpu)


class Calibration:
    """Idle calibrations on ``cpus`` around consecutive stretches of work.

    One calibration is taken at construction; each :meth:`scale` takes
    the next, right after a stretch ends, and so brackets that stretch
    with the calibration before it.
    """

    def __init__(self, cpus: Sequence[int]) -> None:
        self.cpus = list(cpus)
        self.units = [calibrate(self.cpus)]

    def scale(self) -> float:
        """The factor that puts the stretch of work that just ended at the
        reference speed. The caller makes sure the work has ended: pool
        workers reaped, the daemon idle."""
        self.units.append(calibrate(self.cpus))
        return REF_UNIT_S / statistics.mean(self.units[-2:])
