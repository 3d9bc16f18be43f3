"""The process-local trace bus.

A :class:`TraceBus` is the spine of the observability layer: every
instrumented subsystem (kernel, network, lease table, protocol engines,
runtime nodes, oracle) emits typed events onto one bus, and consumers —
a bounded in-memory buffer, ad-hoc subscribers — observe the same
stream regardless of whether the system is running under the simulator
or the asyncio runtime.

Cost discipline: observability must be free when nobody is watching.
Emission sites guard with ``bus.active`` (a plain attribute) before
building the event payload, and the conventional way to disable tracing
entirely is to pass ``obs=None`` so the hot paths reduce to a single
``None`` check.  :data:`NULL_BUS` is a shared, permanently inactive bus
for components that prefer attribute access over ``None`` handling.
"""

from __future__ import annotations

import io
import json
from collections import Counter, deque
from typing import Callable, Iterable, TextIO

#: A subscriber receives each event dict as it is emitted.
Subscriber = Callable[[dict], None]


class TraceBus:
    """Pub/sub event stream with a bounded replay buffer.

    Attributes:
        active: master switch checked by every emission site; flip it with
            :meth:`enable`/:meth:`disable` (or assign directly).
        dropped: events discarded because the buffer was full (oldest-first
            eviction); subscribers still saw them.
    """

    __slots__ = ("active", "dropped", "_buffer", "_subscribers", "_counts")

    def __init__(self, capacity: int | None = 65536, active: bool = True):
        """Args:
            capacity: replay-buffer size; None keeps every event (tests).
            active: initial switch state.
        """
        self.active = active
        self.dropped = 0
        self._buffer: deque[dict] = deque(maxlen=capacity)
        self._subscribers: list[Subscriber] = []
        self._counts: Counter = Counter()  # per-type tally of _buffer

    # -- control ---------------------------------------------------------------

    def enable(self) -> None:
        """Start recording and dispatching events."""
        self.active = True

    def disable(self) -> None:
        """Stop recording; emission sites become near-free."""
        self.active = False

    def subscribe(self, fn: Subscriber) -> Subscriber:
        """Register ``fn`` to receive every event; returns it for unsubscribe."""
        self._subscribers.append(fn)
        return fn

    def unsubscribe(self, fn: Subscriber) -> None:
        """Remove a subscriber (no-op when not registered)."""
        if fn in self._subscribers:
            self._subscribers.remove(fn)

    # -- emission --------------------------------------------------------------

    def emit(self, type: str, ts: float, host: str | None = None, **fields) -> None:
        """Record one event.

        No-op while :attr:`active` is False — but prefer checking
        ``bus.active`` at the call site so the payload is never built.
        """
        if not self.active:
            return
        event = {"type": type, "ts": ts, "host": host}
        if fields:
            event.update(fields)
        buffer = self._buffer
        maxlen = buffer.maxlen
        counts = self._counts
        if maxlen is not None and len(buffer) == maxlen:
            self.dropped += 1
            if maxlen:  # evict manually so the per-type tally stays exact
                evicted = buffer.popleft()
                t = evicted["type"]
                counts[t] -= 1
                if not counts[t]:
                    del counts[t]
                buffer.append(event)
                counts[type] += 1
            # maxlen == 0 (NULL_BUS): nothing is ever buffered or counted
        else:
            buffer.append(event)
            counts[type] += 1
        for fn in self._subscribers:
            fn(event)

    # -- consumption -----------------------------------------------------------

    def events(self, type: str | None = None) -> list[dict]:
        """Buffered events, optionally filtered to one type."""
        if type is None:
            return list(self._buffer)
        return [e for e in self._buffer if e["type"] == type]

    def counts(self) -> Counter:
        """Buffered event count per type.  O(#types), not O(#events).

        The tally is maintained incrementally on emit and eviction; this
        returns a copy so callers may mutate the result freely.
        """
        return Counter(self._counts)

    def clear(self) -> None:
        """Drop the buffered events (subscribers are unaffected)."""
        self._buffer.clear()
        self._counts.clear()
        self.dropped = 0

    def __len__(self) -> int:
        return len(self._buffer)

    def __bool__(self) -> bool:
        """Always truthy — ``__len__`` would otherwise make an *empty* bus
        falsy, and ``obs or NULL_BUS`` at wiring sites would silently
        replace a freshly created (still empty) bus with the null one.
        Test emptiness with ``len(bus)``."""
        return True

    # -- export ----------------------------------------------------------------

    def export_jsonl(self, dest: str | TextIO) -> int:
        """Write buffered events as JSON Lines; returns the count written.

        Args:
            dest: a path or an open text file object.
        """
        if isinstance(dest, (str, bytes)):
            with open(dest, "w", encoding="utf-8") as fh:
                return self.export_jsonl(fh)
        count = 0
        for event in self._buffer:
            dest.write(json.dumps(event, sort_keys=True) + "\n")
            count += 1
        return count

    def to_jsonl(self) -> str:
        """The buffered events as one JSON Lines string."""
        out = io.StringIO()
        self.export_jsonl(out)
        return out.getvalue()

    def __repr__(self) -> str:
        state = "active" if self.active else "inactive"
        return f"TraceBus({state}, buffered={len(self._buffer)}, dropped={self.dropped})"


def read_jsonl(source: str | TextIO | Iterable[str]) -> list[dict]:
    """Load events previously written by :meth:`TraceBus.export_jsonl`.

    Args:
        source: a path, an open text file, or an iterable of JSON lines.
    """
    if isinstance(source, (str, bytes)):
        with open(source, "r", encoding="utf-8") as fh:
            return read_jsonl(fh)
    return [json.loads(line) for line in source if line.strip()]


#: Shared, permanently inactive bus: emission sites holding this instead of
#: None pay one attribute load on the disabled path.
NULL_BUS = TraceBus(capacity=0, active=False)
