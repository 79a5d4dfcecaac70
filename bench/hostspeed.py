"""Host-speed calibration: a fixed pure-Python loop, timed between ops.

The benchmark runs on shared virtual machines whose speed drifts by up to
1.7 times over seconds to minutes.  The worker times this loop before its
first op and after every op, outside the ops' timing, so the samples follow
the host's speed through the round.  An op's time is then scaled by
REFERENCE_MS over the mean of the samples just before and just after it,
and the per-layer self times of a round by REFERENCE_MS over the round's
median sample: the figures read as they would at the host speed at which
the loop takes REFERENCE_MS.  The loop allocates no container objects, so
it triggers no garbage collection and leaves the program's state as it
found it.
"""

from __future__ import annotations

import statistics
import time

LOOP = 20_000
# The loop's median time on the 2-vCPU virtual machine (Python 3.11.7) of
# the reference figures in README.md.  A fixed scale, never re-measured.
REFERENCE_MS = 1.75


def sample_ms() -> float:
    """Wall time of one pass of the calibration loop, in ms."""
    t0 = time.perf_counter()
    s = 0
    for i in range(LOOP):
        s += i * i % 7
    return (time.perf_counter() - t0) * 1000


def scale(samples: list[float]) -> float:
    """Factor that turns times measured alongside `samples` into reference time."""
    return REFERENCE_MS / statistics.median(samples)
