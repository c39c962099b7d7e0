"""Machine-speed calibration for the benchmark's timings.

On a shared host the CPU time of identical exact-arithmetic work drifts by
tens of percent within minutes (a co-tenant on the sibling hyperthread, the
host's clock).  ``calibrate`` is a fixed piece of Fraction arithmetic, the
kind of work submodcurv does, that the worker runs between jobs.  Reported
job times are scaled by REFERENCE_NS / (calibration time measured around
the job), which is the job time on a machine where ``calibrate`` takes
REFERENCE_NS.  The calibration does not touch submodcurv, so a change to
the program moves the scaled times exactly as it moves the raw ones.

On the 2-vCPU VM this was written on, averages over ten samples of the
calibration and of an m=3, D=6 curvature job correlated at 0.97; their
ratio varied by 4% while the job time alone varied by 18%.  Over six
kernel-eval runs the interquartile range of the median job time fell from
29% to 10% of its median with scaling, and that of jobs_per_s from 22% to
11%.
"""

from __future__ import annotations

import gc
import statistics
import time
from fractions import Fraction

REFERENCE_NS = 6_000_000  # calibrate() on that VM in a typical state
SPIN_REFERENCE_NS = 5_000_000  # spin() on that VM in a typical state

# Import times are scaled by spin(), timed in the same fresh interpreter just
# before and just after the import: integer work that needs no import of its
# own.  Over eight rounds of 16 launches on that VM the interquartile range
# of the median import time was 14% of its median, and 7% once scaled.
SPIN_SOURCE = """
def spin():
    start = time.process_time_ns()
    acc = 0
    for i in range(1, 60000):
        acc += (i * 7919) % 97
    return time.process_time_ns() - start
"""
WINDOW = 5  # calibrations on each side of a job that set its scale


def calibrate() -> int:
    """CPU nanoseconds of a fixed amount of Fraction arithmetic.  The
    garbage collector is off meanwhile, so that the time does not depend on
    the size of the program's heap."""
    gc.disable()
    try:
        start = time.process_time_ns()
        acc = Fraction(0)
        for i in range(1, 1500):
            acc += Fraction(i % 97 + 1, i % 89 + 2)
        return time.process_time_ns() - start
    finally:
        gc.enable()


def scales(samples, indices):
    """Scale factor for each job: REFERENCE_NS over the median of the
    calibrations within WINDOW of the one taken just before the job."""
    out = []
    for k in indices:
        near = samples[max(0, k - WINDOW):k + WINDOW + 1]
        out.append(REFERENCE_NS / statistics.median(near))
    return out
