"""Host speed, sampled alongside the program it normalizes.

On a shared host the same code runs 20-40% faster or slower from one
minute to the next, as other tenants come and go. A pass timed alone
measures that drift as much as the program. :class:`SpeedProbe`
therefore runs a fixed reference kernel (:func:`kernel`: Python and
numpy, independent of ``repro``) every :data:`PERIOD_S` seconds while the
passes run, from a ``SIGALRM`` handler, and rescales each stretch of
program time between two kernel calls by how slowly the kernel ran
around it. The result is *reference seconds*: the time the program
would take on this host when one kernel call takes :data:`NOMINAL_S`
(a little under its typical time on the 2-vCPU Xeon VM the benchmark
was built on).

The kernel's own time is left out of the program's. The handler
touches no state of the program, so the program's outputs do not
change (the benchmark checks them against the goldens and across
passes in every run).
"""

from __future__ import annotations

import functools
import heapq
import signal
import statistics
import time
from array import array

#: Seconds between two kernel calls.
PERIOD_S = 0.1
#: Reference seconds one kernel call stands for.
NOMINAL_S = 0.003
#: Kernel calls run before the first stretch and after the last.
EDGE_CALLS = 5
#: Kernel calls (half before, half after) whose median is the speed
#: estimate of one stretch.
WINDOW = 8
#: Sizes of the kernel's three parts (about 1 ms each on the build host).
EVENT_IOS = 900
CHASE_STEPS = 5500
NUMPY_CALLS = 280
#: Slots of the kernel's ring (8 bytes each: 4 MiB, twice the L2
#: cache of one core of the host the benchmark was built on).
RING_SLOTS = 1 << 19
#: A step with a full period modulo any power of two (Hull-Dobell:
#: the multiplier is 1 mod 4, the increment is odd).
RING_MULTIPLIER = 1103515245
RING_INCREMENT = 12345


#: Where the next :func:`_chase` starts on the ring.
_slot = 0


@functools.cache
def _ring(size: int = RING_SLOTS) -> array:
    """One cycle through all ``size`` slots: ``ring[i]`` is the next slot.

    A full-period linear congruential step (``size`` a power of two), so
    consecutive slots land on unrelated cache lines.
    """
    mask = size - 1
    return array("l", ((RING_MULTIPLIER * slot + RING_INCREMENT) & mask
                       for slot in range(size)))


class _Job:
    __slots__ = ("name", "done", "lat")

    def __init__(self, name: str) -> None:
        self.name = name
        self.done = 0
        self.lat = 0.0


def _event_loop(ios: int) -> float:
    """A tiny closed-loop event simulation: heap, small objects, dicts."""
    jobs = [_Job(f"j{i}") for i in range(4)]
    heap: list = []
    seq = 0
    for job in jobs:
        for depth in range(8):
            seq += 1
            heapq.heappush(heap, (10.0 + depth, seq, job, 0.0))
    stats: dict[str, float] = {}
    for _ in range(ios):
        now, _, job, issued = heapq.heappop(heap)
        job.done += 1
        job.lat += now - issued
        stats[job.name] = stats.get(job.name, 0.0) + (now - issued) * 0.5
        seq += 1
        service = 8.0 + (seq * 2654435761 % 1000) / 100.0
        heapq.heappush(heap, (now + service, seq, job, now))
    return sum(stats.values())


def _chase(steps: int) -> float:
    """Dependent loads along the ring, each on a random cache line.

    Each call goes on where the last one stopped, so it never finds the
    lines of the call before it still in cache, whether or not the
    program ran in between. The ring is a plain array, so the garbage
    collector never walks it.
    """
    global _slot
    ring = _ring()
    slot = _slot
    checksum = 0
    for _ in range(steps):
        slot = ring[slot]
        checksum += slot & 7
    _slot = slot
    return float(checksum)


@functools.cache
def _matrix():
    import numpy

    return numpy.arange(512.0).reshape(64, 8) % 7.25, numpy.linspace(1.0, 2.0, 8)


def _numpy_calls(calls: int) -> float:
    """Small numpy calls, where the call overhead is most of the cost."""
    matrix, weights = _matrix()
    total = 0.0
    for _ in range(calls):
        total += float((matrix @ weights).argsort()[0])
    return total


def kernel() -> float:
    """One reference measurement: three kinds of work, about 1 ms each.

    The program's time goes to interpreter work on small objects (the
    event loop), to loads that miss the L2 cache (walks over the
    simulator's object graph and result logs) and to small numpy calls
    (the surrogate). Other tenants slow each kind by a different
    amount: on the host the benchmark was built on, an in-cache event
    loop alone slowed 1.4 to 2 times as much as the simulator in some
    periods, a cache-missing chase alone as little as 0.6 times in
    others, and a sum of the kinds tracked it best. Returns a checksum.
    """
    return _event_loop(EVENT_IOS) + _chase(CHASE_STEPS) + _numpy_calls(NUMPY_CALLS)


def timed_kernel() -> float:
    """Host seconds one :func:`kernel` call takes now."""
    start = time.perf_counter()
    kernel()
    return time.perf_counter() - start


def speed_factor(samples: list[float]) -> float:
    """Reference seconds per host second, from kernel times."""
    return NOMINAL_S / statistics.median(samples)


class SpeedProbe:
    """Samples the kernel while it is entered; rescales intervals after.

    Record ``time.perf_counter()`` at the start and end of each pass
    inside the ``with`` block; after it, :meth:`raw_seconds` and
    :meth:`ref_seconds` give the program's time in that interval, the
    kernel's left out, in host and in reference seconds.
    """

    def __init__(self) -> None:
        #: Program stretches (start, end); a kernel call follows each.
        self.stretches: list[tuple[float, float]] = []
        #: Kernel times, one per tick (between two stretches).
        self.samples: list[float] = []
        #: Kernel times before the first stretch and after the last, used
        #: only when no tick came: back to back, the kernel finds more of
        #: its ring in cache than after a stretch of the program.
        self.edge: list[float] = []
        self._resume = 0.0
        self._previous = None

    def _tick(self, signum, frame) -> None:
        start = time.perf_counter()
        self.stretches.append((self._resume, start))
        self.samples.append(timed_kernel())
        self._resume = time.perf_counter()

    def __enter__(self) -> "SpeedProbe":
        self.edge = [timed_kernel() for _ in range(EDGE_CALLS)]
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        self._resume = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc_info) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        self.stretches.append((self._resume, time.perf_counter()))
        signal.signal(signal.SIGALRM, self._previous)
        self.edge.extend(timed_kernel() for _ in range(EDGE_CALLS))

    def _window(self, index: int) -> list[float]:
        """Kernel times around stretch ``index``: WINDOW // 2 on each side."""
        # samples[index] is the call right after the stretch; the last
        # stretch has none after it.
        half = WINDOW // 2
        return self.samples[max(0, index - half):index + half] or self.edge

    def _seconds(self, start: float, end: float, rescale: bool) -> float:
        total = 0.0
        for index, (low, high) in enumerate(self.stretches):
            overlap = min(high, end) - max(low, start)
            if overlap <= 0.0:
                continue
            if rescale:
                overlap *= speed_factor(self._window(index))
            total += overlap
        return total

    def raw_seconds(self, start: float, end: float) -> float:
        """Host seconds of program time in ``[start, end]``."""
        return self._seconds(start, end, rescale=False)

    def ref_seconds(self, start: float, end: float) -> float:
        """Reference seconds of program time in ``[start, end]``."""
        return self._seconds(start, end, rescale=True)
