"""Host-speed reference for normalising the benchmark's time figures.

The benchmark shares its host's cores, and their speed drifts: the same
round, on the same inputs, takes anywhere from 0.7x to 1.4x its median
time, in stretches from under a second to minutes, and CPU time drifts
with it.  Medians over a 30 s window cannot remove drift that lasts
minutes.  So the benchmark runs a fixed *reference slice* before the
first lap of a round and after every lap (a lap is one or a few cells),
and scales each lap's wall time by how fast the host ran the slices on
either side of it:

    norm_s = wall_s * REF_NOMINAL_S / mean(slice before, slice after)

``norm_s`` is the lap's time on a host that runs the slice in
:data:`REF_NOMINAL_S`.  The slice imports nothing of the program under
test, so a change to the program moves ``norm_s`` as it moves wall time
at a fixed host speed.  Its mix follows the program's: a
pure-Python event loop over a heap of slotted packet objects (the
packet engine's kind of work) and a vectorised Lindley recursion in
numpy (the trace compiler's and fluid engine's kind).
"""

from __future__ import annotations

import functools
import heapq
import random
import time
from typing import Optional

import numpy as np

#: About the reference slice's time on the host the benchmark was
#: calibrated on (2 vCPU Intel Xeon, CPython 3, numpy).  Only a scale:
#: it makes ``norm_s`` read as seconds on that host.
REF_NOMINAL_S = 0.04

_EVENTS = 20_000
_FLUID = 150_000



@functools.lru_cache(maxsize=None)
def _inputs() -> tuple:
    """The slice's fixed inputs, built on first use, so that importing
    this module adds nothing to the benchmark's set-up time."""
    rng = random.Random(20260101)
    arrivals = []
    now = 0.0
    for _ in range(_EVENTS):
        now += rng.expovariate(1.0)
        arrivals.append((now, rng.randrange(4), rng.random() * 1.6))
    np_rng = np.random.default_rng(20260101)
    gaps = np_rng.pareto(1.9, _FLUID) + 0.2
    sizes = np_rng.exponential(1.0, _FLUID)
    return arrivals, gaps, sizes


class _Packet:
    __slots__ = ("arrival", "klass", "size")

    def __init__(self, arrival: float, klass: int, size: float) -> None:
        self.arrival = arrival
        self.klass = klass
        self.size = size


def _packet_loop(arrivals: list) -> float:
    """Non-preemptive 4-class priority queue, event by event."""
    heap: list = []
    queues: list[list[_Packet]] = [[], [], [], []]
    delays = {0: 0.0, 1: 0.0, 2: 0.0, 3: 0.0}
    free_at = 0.0
    for seq, (arrival, klass, size) in enumerate(arrivals):
        heapq.heappush(heap, (arrival, seq, _Packet(arrival, klass, size)))
        while heap and heap[0][0] <= free_at:
            packet = heapq.heappop(heap)[2]
            queues[packet.klass].append(packet)
        for queue in reversed(queues):
            if queue:
                packet = queue.pop(0)
                free_at = max(free_at, packet.arrival) + packet.size
                delays[packet.klass] += free_at - packet.arrival
                break
    return sum(delays.values())


def _fluid_lindley(gaps, sizes) -> float:
    """Waiting times of a FIFO queue by the running-minimum form of the
    Lindley recursion."""
    total = 0.0
    for _ in range(3):
        net = np.cumsum(sizes[:-1] - gaps[1:])
        waits = net - np.minimum.accumulate(np.minimum(net, 0.0))
        total += float(np.mean(np.sort(waits)[-100:]))
    return total


def reference_slice() -> float:
    """Run the fixed reference work once; return its wall time."""
    arrivals, gaps, sizes = _inputs()
    began = time.perf_counter()
    _packet_loop(arrivals)
    _fluid_lindley(gaps, sizes)
    return time.perf_counter() - began


class Clock:
    """Raw and normalised time of one round's work.

    The clock runs a reference slice when it is made and at every
    :meth:`lap`; the work between two laps is timed without the slices
    and scaled by the mean of the slices on either side of it, or, for
    work done in pool workers, by slices the workers ran.
    """

    def __init__(self, reference=reference_slice) -> None:
        self.wall_s = 0.0
        self.norm_s = 0.0
        self._reference = reference
        self._slice = reference()
        self._mark = time.perf_counter()

    def lap(self, slice_s: Optional[float] = None,
            untimed_s: float = 0.0) -> None:
        """Add the work since the last lap, less ``untimed_s`` of
        reference slices run inside it elsewhere, normalised by
        ``slice_s``: the mean slice time measured where the work ran
        (by default, the slices on either side of the lap)."""
        wall = time.perf_counter() - self._mark - untimed_s
        after = self._reference()
        if slice_s is None:
            slice_s = (self._slice + after) / 2.0
        self.wall_s += wall
        self.norm_s += wall * REF_NOMINAL_S / slice_s
        self._slice = after
        self._mark = time.perf_counter()
