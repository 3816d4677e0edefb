"""Host-speed reference: a fixed pure-Python loop timed beside the program.

A shared virtual machine can change speed in phases that last seconds,
by up to 2.5x on a 2-vCPU Xeon host, and a run's medians follow it.  So
each timing is taken together with this loop, timed right beside it in
the same process, and scaled to a nominal host on which the loop takes
``NOMINAL_S``:

    scaled = measured * NOMINAL_S / loop time

Both runs of a comparison use the same loop and constant, so the constant
cancels; a change to the program moves the scaled time, a change of host
speed moves the measured time and the loop time together.
"""

from __future__ import annotations

import time

ITERATIONS = 30_000
NOMINAL_S = 0.003  # about the loop's time on a 2-vCPU Xeon host


def loop_s(iterations: int = ITERATIONS) -> float:
    """Time of a fixed pure-Python loop."""
    start = time.perf_counter()
    acc = 0
    for i in range(iterations):
        acc = (acc + i * i) % 1_000_003
    return time.perf_counter() - start


def scaled(measured_s: float, loop_time_s: float) -> float:
    """``measured_s`` as it would read on the nominal host."""
    return measured_s * NOMINAL_S / loop_time_s
