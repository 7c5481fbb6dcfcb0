"""The unit of host time: a calibration loop that rides along with every slice.

This box's speed moves by 20–50 % for minutes at a time (shared cores;
``/proc/stat`` shows no steal, so the guest can neither see nor subtract
it), and a whole run reads high or low with it.  The driver accepts the
benchmark only while ten runs with ten seeds spread (interquartile range
÷ median) less than a metric's bound, and no bound may exceed 25 %; in
each of this PR's six ten-seed sets the widest raw spread of CPU-ms per
request on a workload was 15–38 %.  No estimator inside one run removes a shift that outlasts the
run, and the driver's time limit leaves no room for longer runs, so host
times are reported *scaled to a reference host speed*: a fixed
pure-Python loop is timed before and after every measured slice (and
every set-up), and the slice's time is divided by how much slower than
the reference the loop just ran.  The same runs then spread 4–12 %
(README.md, "Host speed", has the tables and what the loop does not
track).

The loop is interpreter work of the kind the product does — generator
resumes, small-object allocation, dict and attribute traffic, string
formatting, a sort — followed by a strided walk over a 100 000-object
heap, because a noisy neighbour's cache pressure slows the product (a
60–100 MB heap the collector keeps walking) more than it slows a loop
that fits in cache.  It *defines the unit* of ``cpu_ms_per_req``,
``wall_rps`` and ``setup_s``: editing it re-bases every later
comparison.  :data:`REFERENCE_SECONDS` only names the unit — any value
compares two commits alike.  Raw, unscaled numbers are kept in each
run's detail line.
"""

from __future__ import annotations

import time

__all__ = ["REFERENCE_SECONDS", "slowdown"]

#: CPU seconds one pass of the loop takes on the reference host (this
#: box on a quiet minute), so scaled and raw numbers agree there.
REFERENCE_SECONDS = 0.0040


class _Point:
    __slots__ = ("a", "b")

    def __init__(self, a: int, b: int):
        self.a = a
        self.b = b

    def total(self) -> int:
        return self.a + self.b


def _count(n: int):
    for index in range(n):
        yield index


#: Distinct tuples of cached small ints: ≈ 6 MB that the cyclic collector
#: untracks, so the benchmark process pays nothing for them in a gen-2 pass.
_HEAP = [(index & 255, 1) for index in range(100_000)]


def _one_pass() -> float:
    started = time.process_time()
    table = {}
    total = 0
    for index in _count(6000):
        table[index & 1023] = _Point(index, 1)
        total += table[index & 1023].total()
        if f"k{index}" in table:
            total += 1
    sorted(table, reverse=True)
    for item in _HEAP[1::3]:
        total += item[0]
    return time.process_time() - started


def slowdown() -> float:
    """How many times slower than the reference the host runs right now
    (best of two passes, so a stray interrupt does not count)."""
    return min(_one_pass(), _one_pass()) / REFERENCE_SECONDS
