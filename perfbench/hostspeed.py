"""Timings rescaled to a reference host speed.

On a shared host the same CPU-bound code runs up to about 1.5x slower for
stretches of 10 to 60 seconds, as other tenants load the machine; process
CPU time swings with wall time, so it does not help.  A run of a few dozen
seconds then reports host noise as large as any change worth catching.

The benchmark therefore times a fixed pure-Python loop between the runs of
a timed phase, at most every :data:`INTERVAL_S` (:func:`tick`), and
rescales the on-CPU time of each run and pass by how much slower than
:data:`REFERENCE_S` the loop ran around it (:meth:`Tracker.scaled`).  The
loops are taken out of every interval that holds them, and time the process
spent off the CPU — waiting on a socket or a timer — is kept as measured.
So a reported time is the time the work would have taken on a host where
the loop takes :data:`REFERENCE_S`: a change to the program moves it as
much as it moves the wall time, while the host's slow stretches cancel.
(A NumPy gather from a 4 MiB table added to the loop tracked the solver
stack's array work better on some stretches, but on others it ran up to 4x
slower while the solves did not, so the loop stays pure Python.)
"""

from __future__ import annotations

import statistics
import time
from contextlib import contextmanager
from typing import Iterator, List, Optional, Tuple

__all__ = ["Interval", "Reading", "Tracker", "calibrate", "read", "scaled", "slowdown", "tick", "tracking"]

#: ``(wall seconds, process CPU seconds)``.
Reading = Tuple[float, float]
Interval = Tuple[Reading, Reading]

#: Iterations of the calibration loop: 1.2 to 2 ms on a shared 2-vCPU cloud VM.
LOOP_ITERATIONS = 20_000

#: The loop's time on the reference host.
REFERENCE_S = 0.002

#: Loops per calibration; the median is taken.
SAMPLES = 3

#: Least time between two calibrations of a timed phase.
INTERVAL_S = 0.25

#: How far from an interval a calibration may lie and still count for it:
#: short against the host's slow stretches, long enough to take the median
#: over several calibrations.
WINDOW_S = 1.0


def read() -> Reading:
    return time.perf_counter(), time.process_time()


def _loop() -> float:
    began = time.perf_counter()
    total = 0
    for value in range(LOOP_ITERATIONS):
        total += value * value % 7
    return time.perf_counter() - began


def calibrate(samples: int = SAMPLES) -> List[float]:
    """``samples`` timings of the calibration loop, in seconds."""
    return [_loop() for _ in range(samples)]


def slowdown(timings: List[float]) -> float:
    """How much slower than the reference host the loop ran (median)."""
    return statistics.median(timings) / REFERENCE_S


def scaled(elapsed: Reading, factor: float) -> float:
    """Wall time with its on-CPU part divided by the host ``factor``.

    CPU time beyond the wall time (threads running at once) counts as on-CPU
    time only up to the wall time.
    """
    wall, cpu = elapsed
    busy = min(max(cpu, 0.0), wall)
    return wall - busy + busy / factor


class Tracker:
    """The host's slowdown over one timed phase, calibrated between runs."""

    def __init__(self) -> None:
        self.points: List[Tuple[float, float]] = []  # (wall time, slowdown)
        self.pauses: List[Interval] = []  # the calibrations themselves

    def calibrate(self) -> None:
        start = read()
        factor = slowdown(calibrate())
        end = read()
        self.points.append(((start[0] + end[0]) / 2, factor))
        self.pauses.append((start, end))

    def tick(self) -> None:
        if time.perf_counter() - self.pauses[-1][1][0] >= INTERVAL_S:
            self.calibrate()

    def slowdown(self, begin: float, end: float) -> float:
        """Median slowdown of the calibrations within ``WINDOW_S`` of ``[begin, end]``."""
        near = [factor for at, factor in self.points if begin - WINDOW_S <= at <= end + WINDOW_S]
        if not near:
            near = [min(self.points, key=lambda point: min(abs(point[0] - begin), abs(point[0] - end)))[1]]
        return statistics.median(near)

    def scaled(self, interval: Interval) -> float:
        """The interval's time on the reference host, calibrations taken out."""
        (wall0, cpu0), (wall1, cpu1) = interval
        wall, cpu = wall1 - wall0, cpu1 - cpu0
        for (pause_wall0, pause_cpu0), (pause_wall1, pause_cpu1) in self.pauses:
            if wall0 <= pause_wall0 and pause_wall1 <= wall1:
                wall -= pause_wall1 - pause_wall0
                cpu -= pause_cpu1 - pause_cpu0
        return scaled((wall, cpu), self.slowdown(wall0, wall1))


_active: Optional[Tracker] = None


@contextmanager
def tracking() -> Iterator[Tracker]:
    """Calibrate on :func:`tick` while the block runs (a timed phase)."""
    global _active
    _active = Tracker()
    _active.calibrate()
    try:
        yield _active
    finally:
        _active = None


def tick() -> None:
    """Between two runs: calibrate if a timed phase is on and it is time to."""
    if _active is not None:
        _active.tick()
