"""A lazy-deletion event heap for the discrete-event loops.

The seed simulator found the next event by scanning every engine instance on
every iteration — ``min(instance.next_event_time() for instance in ...)`` —
which makes each event cost O(instances) even though an event only ever changes
the timeline of the one instance it touches.  :class:`EventQueue` replaces the
scan with a binary heap of ``(time, key)`` entries, one per event source:

* :meth:`update` records a source's current next-event time (pushing a heap
  entry when it has one);
* :meth:`peek` returns the earliest ``(time, key)`` in O(1) amortised;
* :meth:`pop_due` drains every source whose event is due at the given time.

Stale heap entries — left behind when a source's next event time changes —
are detected lazily at the top of the heap: an entry is live only if it still
matches the source's last recorded time.  Each source therefore has at most
one *live* entry, and the heap never needs random-access deletion.  The
fleet (:class:`repro.cluster.fleet.Fleet`, which the fleet loop
:func:`repro.simulation.simulator.simulate_fleet` drives) calls
:meth:`update` after every mutation of a replica (a submit, an advance, a
scale event), which is exactly the set of points where a source's timeline
can change.
"""

from __future__ import annotations

import heapq

__all__ = ["EventQueue"]


class EventQueue:
    """Min-heap of per-source next-event times with lazy deletion.

    Keys are small integers (instance indices / replica ids); values are the
    simulated times of each source's next internal event.  Ties break on the
    key, so equal-time events fire in source-index order — the same order the
    seed implementation's linear scans produced.
    """

    def __init__(self) -> None:
        self._heap: list[tuple[float, int]] = []
        self._times: dict[int, float | None] = {}

    def __len__(self) -> int:
        return sum(1 for time in self._times.values() if time is not None)

    def update(self, key: int, time: float | None) -> None:
        """Record that ``key``'s next event is at ``time`` (``None`` = no event)."""
        self._times[key] = time
        if time is not None:
            heapq.heappush(self._heap, (time, key))

    def discard(self, key: int) -> None:
        """Forget ``key`` entirely (a retired replica)."""
        self._times.pop(key, None)

    def peek(self) -> tuple[float, int] | None:
        """Earliest live ``(time, key)``, or ``None`` when no source has an event."""
        heap = self._heap
        while heap:
            time, key = heap[0]
            if self._times.get(key) == time:
                return time, key
            heapq.heappop(heap)
        return None

    def next_time(self) -> float | None:
        """Time of the earliest live entry, or ``None``."""
        entry = self.peek()
        return None if entry is None else entry[0]

    def pop_due(self, now: float) -> list[int]:
        """Remove and return every key whose event time is ≤ ``now``.

        Popped keys have their recorded time cleared; the caller advances each
        source and then :meth:`update`\\ s it with its new next-event time.
        Keys are returned in event-time order (ties in key order).
        """
        # Kept as its own loop rather than delegating to pop_due_entries:
        # this is the fleet loop's per-event hot path, and the (time, key)
        # tuples the entries variant builds are pure overhead here.
        due: list[int] = []
        heap = self._heap
        while heap:
            time, key = heap[0]
            if self._times.get(key) != time:
                heapq.heappop(heap)
                continue
            if time > now:
                break
            heapq.heappop(heap)
            self._times[key] = None
            due.append(key)
        return due

    def pop_due_entries(self, now: float) -> list[tuple[float, int]]:
        """Like :meth:`pop_due`, but return the ``(time, key)`` pairs.

        The times let a caller holding several queues merge their due lists
        back into the single-queue global order: since keys are globally
        unique, sorting merged entries by ``(time, key)`` reproduces exactly
        what one queue holding every source would have returned.
        """
        due: list[tuple[float, int]] = []
        heap = self._heap
        while heap:
            time, key = heap[0]
            if self._times.get(key) != time:
                heapq.heappop(heap)
                continue
            if time > now:
                break
            heapq.heappop(heap)
            self._times[key] = None
            due.append((time, key))
        return due
