"""Edge-case and property tests for the lazy-deletion event heap.

Covers the cases beyond the basic queue tests: equal-time sources, sources
removed mid-heap (an autoscaler draining a replica whose stale entries still
sit in the heap), exhaustion of an emptied queue, and — via hypothesis —
equivalence of the heap against a naive linear-scan model under random event
storms, both at the data-structure level and through an emulated event loop.
"""

from __future__ import annotations

import math

from hypothesis import given, settings, strategies as st

from repro.simulation.events import EventQueue


# ---------------------------------------------------------- equal-time sources


def test_equal_times_fire_in_key_order_regardless_of_insertion_order():
    queue = EventQueue()
    for key in (5, 1, 3, 2, 4):
        queue.update(key, 2.0)
    assert queue.pop_due(2.0) == [1, 2, 3, 4, 5]


def test_popped_source_needs_update_before_firing_again():
    queue = EventQueue()
    queue.update(0, 1.0)
    assert queue.pop_due(1.0) == [0]
    # The pop cleared the recorded time: without an update the source is gone.
    assert queue.pop_due(10.0) == []
    queue.update(0, 5.0)
    assert queue.pop_due(10.0) == [0]


# ------------------------------------------------- removal mid-heap (drains)


def test_discard_with_stale_entries_mid_heap():
    """An autoscaler drain removes a source whose stale entries linger."""
    queue = EventQueue()
    queue.update(0, 1.0)
    queue.update(1, 2.0)
    queue.update(1, 1.5)   # stale (1, 2.0) entry still inside the heap
    queue.update(2, 3.0)
    queue.discard(1)       # retire the replica
    assert queue.peek() == (1.0, 0)
    assert queue.pop_due(2.5) == [0]       # key 1 never fires
    assert queue.next_time() == 3.0
    assert len(queue) == 1                 # only key 2 remains live


def test_discard_then_resurrect_key():
    """A key can be reused after discard (replica indices recycle)."""
    queue = EventQueue()
    queue.update(7, 4.0)
    queue.discard(7)
    assert queue.next_time() is None
    queue.update(7, 6.0)
    assert queue.peek() == (6.0, 7)


def test_discard_unknown_key_is_a_noop():
    queue = EventQueue()
    queue.update(0, 1.0)
    queue.discard(42)
    assert queue.peek() == (1.0, 0)


# ------------------------------------------------------------- exhaustion


def test_empty_queue_exhaustion():
    queue = EventQueue()
    assert queue.peek() is None
    assert queue.next_time() is None
    assert queue.pop_due(math.inf) == []
    assert len(queue) == 0
    # Fill, drain completely, and exhaust again.
    queue.update(0, 1.0)
    queue.update(1, 2.0)
    assert queue.pop_due(5.0) == [0, 1]
    assert queue.peek() is None
    assert queue.pop_due(math.inf) == []
    assert len(queue) == 0


def test_none_update_clears_without_discarding():
    queue = EventQueue()
    queue.update(0, 1.0)
    queue.update(0, None)
    assert queue.peek() is None
    assert len(queue) == 0
    queue.update(0, 2.0)
    assert queue.peek() == (2.0, 0)


# ----------------------------------------------------- hypothesis equivalence


class _ScanModel:
    """The seed implementation: a dict scanned linearly per query."""

    def __init__(self) -> None:
        self.times: dict[int, float | None] = {}

    def update(self, key: int, time: float | None) -> None:
        self.times[key] = time

    def discard(self, key: int) -> None:
        self.times.pop(key, None)

    def next_time(self) -> float | None:
        live = [t for t in self.times.values() if t is not None]
        return min(live) if live else None

    def pop_due(self, now: float) -> list[int]:
        due = sorted(
            (time, key) for key, time in self.times.items()
            if time is not None and time <= now
        )
        for _, key in due:
            self.times[key] = None
        return [key for _, key in due]


_ops = st.lists(
    st.one_of(
        st.tuples(st.just("update"), st.integers(0, 7),
                  st.one_of(st.none(), st.floats(0, 100, allow_nan=False))),
        st.tuples(st.just("discard"), st.integers(0, 7)),
        st.tuples(st.just("pop"), st.floats(0, 100, allow_nan=False)),
    ),
    min_size=1, max_size=80,
)


@settings(max_examples=200, deadline=None)
@given(operations=_ops)
def test_heap_matches_linear_scan_under_random_event_storms(operations):
    queue, model = EventQueue(), _ScanModel()
    for operation in operations:
        if operation[0] == "update":
            _, key, time = operation
            queue.update(key, time)
            model.update(key, time)
        elif operation[0] == "discard":
            _, key = operation
            queue.discard(key)
            model.discard(key)
        else:
            _, now = operation
            assert queue.pop_due(now) == model.pop_due(now)
        assert queue.next_time() == model.next_time()
        assert len(queue) == len([t for t in model.times.values() if t is not None])


@settings(max_examples=20, deadline=None)
@given(
    event_times=st.lists(
        st.lists(st.floats(0.001, 10.0, allow_nan=False), min_size=1, max_size=5),
        min_size=1, max_size=6,
    )
)
def test_simulation_loops_agree_under_random_storms(event_times):
    """Heap-driven and scan-driven loops fire identical event sequences.

    Each "instance" is a scripted stub that fires its pre-assigned event
    times in order; a heap-driven event merge and the linear scan it
    replaced are emulated on it and must visit the same (time, instance)
    sequence.
    """

    class _Stub:
        def __init__(self, times: list[float]) -> None:
            self.pending = sorted(times)
            self.fired: list[float] = []

        def next_event_time(self) -> float | None:
            return self.pending[0] if self.pending else None

        def advance_to(self, now: float) -> None:
            while self.pending and self.pending[0] <= now:
                self.fired.append(self.pending.pop(0))

    def drive_with_heap(stubs: list[_Stub]) -> list[tuple[float, int]]:
        queue = EventQueue()
        for index, stub in enumerate(stubs):
            queue.update(index, stub.next_event_time())
        order: list[tuple[float, int]] = []
        while queue.next_time() is not None:
            now = queue.next_time()
            for key in queue.pop_due(now):
                stubs[key].advance_to(now)
                order.append((now, key))
                queue.update(key, stubs[key].next_event_time())
        return order

    def drive_with_scan(stubs: list[_Stub]) -> list[tuple[float, int]]:
        order: list[tuple[float, int]] = []
        while True:
            times = [s.next_event_time() for s in stubs]
            live = [t for t in times if t is not None]
            if not live:
                return order
            now = min(live)
            for index, stub in enumerate(stubs):
                next_time = stub.next_event_time()
                if next_time is not None and next_time <= now:
                    stub.advance_to(now)
                    order.append((now, index))

    heap_stubs = [_Stub(times) for times in event_times]
    scan_stubs = [_Stub(times) for times in event_times]
    heap_order = drive_with_heap(heap_stubs)
    scan_order = drive_with_scan(scan_stubs)
    # Within one drain the heap visits sources in event-time order while the
    # scan visits them in index order; sources are independent, so only the
    # sorted visit multiset and each source's own fired sequence must agree.
    assert sorted(heap_order) == sorted(scan_order)
    assert [s.fired for s in heap_stubs] == [s.fired for s in scan_stubs]
    assert all(not s.pending for s in heap_stubs + scan_stubs)
