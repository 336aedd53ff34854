"""How fast the machine runs Python right now, sampled while the program runs.

On a shared host the same single-threaded Python code can run twice as
fast in one minute as in the next, and the process CPU time slows down
with it, so neither wall time nor CPU time compares across runs.
``SpeedProbe`` samples the machine's speed *during* the timed region: a
wall-clock interval timer
(``SIGALRM``) interrupts the program every ``INTERVAL_S`` and times
two back-to-back passes of ``reference_work``, a fixed piece of
interpreter-bound work built from the operations the simulator spends its
time on (object attributes, dicts, sorting, heaps, float arithmetic,
BLAKE2b hashing). The first pass runs with the program's data in the
caches, the second with its own.

``scale`` is the trimmed mean of those samples over ``REFERENCE_PAIR_S``:
how many times slower than the reference speed the machine ran while the
probe was on. The trimmed mean drops the fastest and slowest fifth of the
samples, so a sample that straddles a preemption does not swing it.
Dividing a host time measured under the probe, minus the probe's own
time, by ``scale`` gives that time at the reference speed. The reference
work never calls the program under test, so a change to the program
moves the normalised time by the same factor as the raw time.
"""

from __future__ import annotations

import hashlib
import heapq
import signal
import time
from operator import attrgetter

# Two passes of reference_work on an otherwise idle 2-core x86-64
# container at its faster speed, Python 3.11. Only a unit conversion:
# every figure scaled by it shares the constant, so it cancels in any
# comparison.
REFERENCE_PAIR_S = 1.7e-3
# A pair takes 1.7-3.5 ms, so sampling every 50 ms costs the program about 5%.
INTERVAL_S = 0.05
TRIM = 0.2
REFERENCE_ITEMS = 400


class _Item:
    __slots__ = ("key", "weight", "parent")

    def __init__(self, key, weight, parent):
        self.key, self.weight, self.parent = key, weight, parent


def reference_work() -> float:
    """Fixed interpreter-bound work, about a millisecond."""
    items, index, heap = [], {}, []
    for i in range(REFERENCE_ITEMS):
        digest = hashlib.blake2b(i.to_bytes(4, "little"), digest_size=8).digest()
        item = _Item(int.from_bytes(digest, "little"), (i * 37 % 101) * 0.25,
                     items[i // 2] if items else None)
        items.append(item)
        index[item.key] = item
        heapq.heappush(heap, (item.weight, i))
    items.sort(key=attrgetter("weight"))
    total = 0.0
    for item in items:
        node = item
        while node is not None:
            total += index[node.key].weight * 0.5
            node = node.parent
    while heap:
        total += heapq.heappop(heap)[0]
    return total


class SpeedProbe:
    """Context manager: samples ``reference_work`` every ``INTERVAL_S`` of
    wall time while the body runs."""

    def __init__(self) -> None:
        self.samples: list[float] = []

    def _tick(self, signum, frame) -> None:
        start = time.perf_counter()
        reference_work()
        reference_work()
        self.samples.append(time.perf_counter() - start)

    def __enter__(self) -> "SpeedProbe":
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self.probe_s = sum(self.samples)  # host seconds the probe took inside the body
        if not self.samples:  # body shorter than one interval
            self._tick(None, None)

    @property
    def scale(self) -> float:
        """Trimmed mean sample over the reference sample."""
        ordered = sorted(self.samples)
        cut = int(len(ordered) * TRIM)
        kept = ordered[cut:len(ordered) - cut]
        return sum(kept) / len(kept) / REFERENCE_PAIR_S

    def normalise(self, host_s: float) -> float:
        """``host_s`` measured around the body, less the probe's own time,
        at the reference speed."""
        return (host_s - self.probe_s) / self.scale
