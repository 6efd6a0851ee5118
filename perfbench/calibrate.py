"""A fixed piece of pure-Python work that measures how fast the host runs
right now.

The benchmark runs on a few cores of a shared host whose speed drifts by
tens of percent from one minute to the next.  Every timed CLI call is
bracketed by this calibration, and a long call is also stopped now and then
to run it.  The call's wall time is divided by the mean pass time over the
call; multiplied by REFERENCE_S, that ratio is the call's time in seconds on
a host that runs one pass in REFERENCE_S.  A change in the program moves the
call and not the calibration, so it shows in full; a change in host speed
moves both, and cancels.

The work mixes what trifold spends its time on: tuple hashing and dict
inserts, Fraction arithmetic, sorting with a key function, big-integer
arithmetic and a working set of a few megabytes.  It does not use trifold.
"""

from __future__ import annotations

import os
import struct
import time
from fractions import Fraction

# The median time of one pass on the host the reference figures were taken
# on (Python 3.11, 2 cores of a shared virtual machine).
REFERENCE_S = 0.1
PASSES = 3


def _work() -> int:
    table = {}
    acc = 0
    for i in range(40_000):
        key = (i, i * 7919 % 1009, i & 63)
        table[key] = (key, i)
        acc += hash(key) & 0xFF
    frac = Fraction(0)
    for i in range(1, 3_000):
        frac += Fraction(i * i + 1, 3 * i + 2)
    order = sorted(table, key=lambda k: (k[1], k[2], k[0]))
    big = 1
    for i in range(1, 2_000):
        big = (big * (i | 1) + i) % (1 << 521)
    return acc + len(order) + frac.numerator % 7 + big % 7


def calibrate(passes: int = PASSES) -> float:
    """Mean wall time of one pass of the fixed work, over `passes` passes.

    The work runs in a forked child, so that this process stays small: a
    child forked from it starts with its resident pages, and Linux counts
    them in the child's peak RSS.
    """
    read, write = os.pipe()
    pid = os.fork()
    if pid == 0:
        status = 1
        try:
            os.close(read)
            start = time.perf_counter()
            for _ in range(passes):
                _work()
            os.write(write, struct.pack("d", (time.perf_counter() - start) / passes))
            status = 0
        finally:
            os._exit(status)
    os.close(write)
    with os.fdopen(read, "rb") as pipe:
        data = pipe.read()
    _, status = os.waitpid(pid, 0)
    if status != 0 or len(data) != 8:
        raise RuntimeError(f"calibration child failed with status {status}")
    return struct.unpack("d", data)[0]
