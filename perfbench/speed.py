"""The machine-speed reference that every reported timing is scaled by.

The shared host this benchmark runs on changes speed by up to about 1.8x, in
phases that last from seconds to minutes.  Its figures then drift more between
runs of the same code than the benchmark's bounds allow, however long a run is.
A fixed pure-Python loop, timed next to each measured operation, slows down
with the operation (their correlation was 0.8-0.98 over sweep passes), so each
end-to-end timing is reported in reference seconds:

    measured seconds * REFERENCE_S / (the loop's time next to it)

A change to the program moves reference seconds in full.  A change of machine
speed moves the loop's time in the same proportion and cancels out.  The raw
wall times are printed beside them as text lines.

The loop and REFERENCE_S are part of the benchmark's definition: changing
either changes every reported time, so both stay fixed.
"""

from __future__ import annotations

import time

# The loop's best-of-two time on a 2-vCPU Intel Xeon sandbox in its fast phase,
# so reference seconds read close to wall seconds there.
REFERENCE_S = 0.0014


def _loop() -> int:
    seen: dict = {}
    acc = 0
    for i in range(6000):
        key = (i % 97, i % 13)
        seen[key] = seen.get(key, 0) + 1
        acc = (acc * 31 + i) % 1000003
    return acc + len(seen)


def scale() -> float:
    """REFERENCE_S over the loop's best time of two runs, taken now."""
    best = float("inf")
    for _ in range(2):
        start = time.perf_counter()
        _loop()
        best = min(best, time.perf_counter() - start)
    return REFERENCE_S / best
