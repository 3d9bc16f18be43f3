"""Resilience primitives shared by the real transports.

The paper's fault model (§5) promises that every non-Byzantine failure —
message loss, partition, crash — costs at most bounded delay, never
correctness.  The simulator proves that; this module supplies the pieces
that let the asyncio runtime keep the promise on real sockets:

* :data:`ConnState` constants and the legal transition map for the
  connection-lifecycle state machine every reconnecting transport runs
  (``connecting → up → down → backoff → connecting …``, with ``closed``
  terminal).
* :class:`BackoffPolicy` — capped exponential backoff with seeded jitter,
  so a herd of clients does not reconnect in lockstep after a server
  restart yet tests stay deterministic.
* :class:`FrameQueue` — a bounded outbound buffer with an *explicit*
  drop-oldest policy.  Transports park frames here while a connection is
  down or its peer is not reading, and flush on reconnect or resume;
  overflow evicts the oldest frame and reports it, so no frame ever
  disappears without an observable trace (the protocol tolerates the
  loss — it is equivalent to a dropped packet — but not silence).
"""

from __future__ import annotations

import random
from collections import deque
from typing import Callable

#: Connection-lifecycle states (see DESIGN.md §11).
CONNECTING = "connecting"
UP = "up"
DOWN = "down"
BACKOFF = "backoff"
CLOSED = "closed"

#: Legal state transitions; anything else is a runtime bug.
TRANSITIONS: dict[str, frozenset[str]] = {
    CONNECTING: frozenset({UP, DOWN, CLOSED}),
    UP: frozenset({DOWN, CLOSED}),
    DOWN: frozenset({BACKOFF, CONNECTING, CLOSED}),
    BACKOFF: frozenset({CONNECTING, CLOSED}),
    CLOSED: frozenset(),
}


class BackoffPolicy:
    """Capped exponential backoff with jitter.

    The delay before reconnect attempt ``n`` (0-based) is drawn uniformly
    from ``[base * (1 - jitter), base]`` where
    ``base = min(cap, initial * multiplier**n)``.  With ``jitter=0`` the
    schedule is fully deterministic; the RNG is seeded so tests can pin
    the jittered schedule too.
    """

    def __init__(
        self,
        initial: float = 0.05,
        cap: float = 2.0,
        multiplier: float = 2.0,
        jitter: float = 0.5,
        seed: int | None = None,
    ):
        if initial <= 0:
            raise ValueError(f"initial backoff must be positive: {initial}")
        if cap < initial:
            raise ValueError(f"cap {cap} below initial {initial}")
        if multiplier < 1.0:
            raise ValueError(f"multiplier must be >= 1: {multiplier}")
        if not 0.0 <= jitter <= 1.0:
            raise ValueError(f"jitter out of [0, 1]: {jitter}")
        self.initial = initial
        self.cap = cap
        self.multiplier = multiplier
        self.jitter = jitter
        self._rng = random.Random(seed)

    def delay(self, attempt: int) -> float:
        """The sleep before reconnect ``attempt`` (0-based)."""
        base = min(self.cap, self.initial * self.multiplier ** max(0, attempt))
        if not self.jitter:
            return base
        return base * (1.0 - self.jitter * self._rng.random())


class FrameQueue:
    """A bounded FIFO of encoded frames with drop-oldest overflow.

    Attributes:
        dropped: frames evicted because the queue was full.
    """

    def __init__(self, capacity: int = 64, on_drop: Callable[[str], None] | None = None):
        """Args:
            capacity: maximum buffered frames; must be positive.
            on_drop: called with the evicted frame's message kind whenever
                overflow discards the oldest entry (the observability
                hook — callers emit a ``transport.drop`` event here).
        """
        if capacity <= 0:
            raise ValueError(f"queue capacity must be positive: {capacity}")
        self.capacity = capacity
        self.dropped = 0
        self._frames: deque[tuple[bytes, str]] = deque()
        self._on_drop = on_drop

    def _evict(self) -> None:
        _, old_kind = self._frames.popleft()
        self.dropped += 1
        if self._on_drop is not None:
            self._on_drop(old_kind)

    def push(self, frame: bytes, kind: str) -> None:
        """Append a frame, evicting (and reporting) the oldest when full."""
        if len(self._frames) >= self.capacity:
            self._evict()
        self._frames.append((frame, kind))

    def drain(self) -> list[tuple[bytes, str]]:
        """Remove and return every buffered ``(frame, kind)`` in order."""
        out = list(self._frames)
        self._frames.clear()
        return out

    def requeue(self, frames: list[tuple[bytes, str]]) -> None:
        """Return drained-but-unsent frames to the head, preserving order.

        A flush drains the queue and writes until the socket pauses; what
        it could not write comes back here.  Frames pushed in between stay
        behind the requeued window, and if the combined depth exceeds
        capacity the usual drop-oldest policy applies, each evicted frame
        counted and reported exactly once.
        """
        self._frames.extendleft(reversed(frames))
        while len(self._frames) > self.capacity:
            self._evict()

    def clear(self) -> None:
        """Discard the buffered frames without reporting them dropped."""
        self._frames.clear()

    def __len__(self) -> int:
        return len(self._frames)
