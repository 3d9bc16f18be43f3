"""Discrete-event simulation kernel.

Events are ``(time, seq)``-ordered callbacks; ``seq`` is a global
tie-breaker, so same-instant events fire in schedule order.  Runs must be
reproducible: randomness comes only from the seeded ``Kernel.rng`` and
nothing reads the wall clock.

Storage is one :mod:`heapq` of ``(time, seq, handle, fn, args)`` tuples,
the structure of the reference scheduler in ``tests/sim/test_kernel.py``
(DESIGN.md §10); ``(time, seq)`` is unique, so comparisons never reach
the payload.  Cancellation is lazy, the heap is compacted once cancelled
entries outnumber live ones, and :meth:`Kernel.pending` is O(1).
"""

from __future__ import annotations

import gc
import random
from heapq import heapify, heappop, heappush
from typing import Any, Callable

from repro.errors import SimulationError
from repro.obs.events import KERNEL_COMPACT

#: Cancelled entries below which dead weight is cheaper than a rebuild.
_COMPACT_MIN = 64


class EventHandle:
    """A scheduled event's cancellation token.

    A cancelled event stays queued and is skipped when it reaches the top
    (lazy deletion, O(1)); the owning kernel is told, to keep its counts
    and compact.  The callback lives in the kernel's entry tuple.
    """

    __slots__ = ("time", "seq", "cancelled", "_kernel")

    def __init__(self, time: float, seq: int, kernel: Kernel):
        self.time = time
        self.seq = seq
        self.cancelled = False
        self._kernel: Kernel | None = kernel  # the kernel while queued, then None

    def cancel(self) -> None:
        """Prevent the event from firing; safe to call more than once."""
        if self.cancelled:
            return
        self.cancelled = True
        kernel = self._kernel
        if kernel is not None:  # still queued
            self._kernel = None
            kernel._note_cancel()

    def __repr__(self) -> str:
        state = "cancelled" if self.cancelled else "pending"
        return f"EventHandle(t={self.time:.6f}, seq={self.seq}, {state})"


class Kernel:
    """The simulation event loop.

    Attributes:
        rng: seeded random source shared by all stochastic components
            (workload generators, loss models) for reproducible runs.
        obs: optional :class:`~repro.obs.bus.TraceBus` receiving kernel
            events (queue compactions).
        executed: total events fired so far — the numerator of
            ``sim.kernel.events_per_s`` and ``check.runner.events_per_s``
            in ``benchmarks/stack``.
    """

    def __init__(self, seed: int = 0, obs: Any = None):
        #: Current virtual time in seconds; read-only outside the kernel.
        self.now = 0.0
        self._seq = 0
        self._live = 0  # non-cancelled entries queued
        self._cancelled = 0  # cancelled entries still queued
        self.executed = 0
        self.rng = random.Random(seed)
        self.obs = obs
        self._heap: list[tuple] = []  # compacted in place: run() holds it
        self._horizon: float | None = None  # run(until=...) bound
        self._in_run = False  # inside run()'s loop (defer_args may inline)

    def schedule(self, delay: float, fn: Callable[..., Any], *args: Any) -> EventHandle:
        """Schedule ``fn(*args)`` to run ``delay`` seconds from now."""
        if not delay >= 0:  # negative or NaN
            raise SimulationError(f"cannot schedule into the past (delay={delay})")
        time = self.now + delay
        seq = self._seq
        handle = EventHandle(time, seq, self)
        heappush(self._heap, (time, seq, handle, fn, args))
        self._seq = seq + 1
        self._live += 1
        return handle

    def schedule_at(self, time: float, fn: Callable[..., Any], *args: Any) -> EventHandle:
        """Schedule ``fn(*args)`` at absolute virtual time ``time``."""
        if not time >= self.now:  # past or NaN
            raise SimulationError(f"cannot schedule at t={time} before now={self.now}")
        seq = self._seq
        handle = EventHandle(time, seq, self)
        heappush(self._heap, (time, seq, handle, fn, args))
        self._seq = seq + 1
        self._live += 1
        return handle

    def post_args(self, time: float, fn: Callable[..., Any], args: tuple) -> None:
        """Schedule ``fn(*args)`` at ``time`` without a cancellation handle.

        Same ordering and counters as :meth:`schedule_at`, no
        :class:`EventHandle`.  ``args`` is prebuilt so that a message
        carried over several hops (the network's send → arrive → deliver
        chain) packs its tuple once.
        """
        if not time >= self.now:  # past or NaN
            raise SimulationError(f"cannot schedule at t={time} before now={self.now}")
        heappush(self._heap, (time, self._seq, None, fn, args))
        self._seq += 1
        self._live += 1

    def defer_args(self, time: float, fn: Callable[..., Any], args: tuple) -> None:
        """:meth:`post_args`, executed inline when provably next.

        **This is a tail call.**  After inline execution ``now`` stays at
        ``time`` and ``fn`` has run, so the caller must do nothing
        time-dependent after it returns (:meth:`Network._arrive
        <repro.sim.network.Network._arrive>` ends on it).

        Inline, it consumes a ``seq``, advances ``now`` and counts in
        ``executed`` exactly as the queued event would.  It must be inside
        :meth:`run` (``step()`` fires one event per call), within the
        ``until`` horizon, and no live entry may precede
        ``(time, next_seq)``: ``head.time > time``.  Otherwise it is
        :meth:`post_args`.  The quiet check pops only the cancelled heads
        at or before ``time``, which the run loop would pop first anyway,
        so counts and compaction points match the queued path.
        """
        horizon = self._horizon
        if self._in_run and time >= self.now and (horizon is None or time <= horizon):
            heap = self._heap
            while heap and heap[0][0] <= time:
                handle = heap[0][2]
                if handle is None or not handle.cancelled:
                    break  # a live event precedes: queue behind it
                heappop(heap)
                self._cancelled -= 1
            else:  # quiet: nothing live at or before ``time``
                self._seq += 1
                self.now = time
                self.executed += 1
                fn(*args)
                return
        self.post_args(time, fn, args)

    def step(self) -> bool:
        """Run the next pending event.  Returns False if none remain."""
        heap = self._heap
        while heap:
            entry = heappop(heap)
            handle = entry[2]
            if handle is not None:
                if handle.cancelled:
                    self._cancelled -= 1
                    continue
                handle._kernel = None
            self._live -= 1
            self.now = entry[0]
            self.executed += 1
            entry[3](*entry[4])
            return True
        return False

    def run(self, until: float | None = None) -> None:
        """Run events in order.

        Args:
            until: if given, stop once the next event lies beyond ``until``
                and advance ``now`` to exactly ``until``; if None, run until
                no events remain.
        """
        saved_run, saved_horizon = self._in_run, self._horizon
        self._in_run = True
        self._horizon = until
        # Event tuples die by refcount; automatic collections only find
        # cycle garbage, so they wait until the caller's gc state returns.
        gc_was_enabled = gc.isenabled()
        if gc_was_enabled:
            gc.disable()
        try:
            heap = self._heap
            while heap:
                # Pop first: one heap operation per fired event.  The one
                # entry found beyond ``until`` goes back, once per call.
                entry = heappop(heap)
                handle = entry[2]
                if handle is not None and handle.cancelled:
                    self._cancelled -= 1
                    continue
                time = entry[0]
                if until is not None and time > until:
                    heappush(heap, entry)
                    break
                if handle is not None:
                    handle._kernel = None
                self._live -= 1
                self.now = time
                self.executed += 1
                entry[3](*entry[4])
        finally:
            self._in_run = saved_run
            self._horizon = saved_horizon
            if gc_was_enabled:
                gc.enable()
        if until is not None and until > self.now:
            self.now = until

    def pending(self) -> int:
        """Number of live (non-cancelled) events still queued.  O(1)."""
        return self._live

    def _size(self) -> int:
        """Total stored entries, live and cancelled (test/debug hook)."""
        return len(self._heap)

    def _note_cancel(self) -> None:
        """A queued handle was cancelled; compact when dead weight wins.

        More cancelled than live, past a floor, bounds storage at about
        twice the live count, so timer churn runs in O(live) memory.
        """
        self._live -= 1
        self._cancelled += 1
        if self._cancelled > _COMPACT_MIN and self._cancelled > self._live:
            self._compact()

    def _compact(self) -> None:
        """Drop cancelled entries, rebuilding the heap in place."""
        removed = self._cancelled
        heap = self._heap
        heap[:] = [e for e in heap if e[2] is None or not e[2].cancelled]
        heapify(heap)
        self._cancelled = 0
        obs = self.obs
        if obs is not None and obs.active:
            obs.emit(KERNEL_COMPACT, self.now, None, removed=removed, live=self._live)

    def __repr__(self) -> str:
        return f"Kernel(now={self.now:.6f}, pending={self.pending()})"
