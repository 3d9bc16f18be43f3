"""Named counters.

Where the :class:`~repro.obs.bus.TraceBus` answers "what happened, in
order", the :class:`Registry` answers "how many": monotonically
increasing counters, named hierarchically (``"check.scenarios"``).  The
explorer counts into one and ``python -m repro.check`` reports its
snapshot.
"""

from __future__ import annotations


class Counter:
    """A monotonically increasing named counter."""

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value = 0

    def inc(self, n: int = 1) -> None:
        """Add ``n`` (must be non-negative) to the counter."""
        if n < 0:
            raise ValueError(f"counter {self.name} cannot decrease (n={n})")
        self.value += n

    def __repr__(self) -> str:
        return f"Counter({self.name}={self.value})"


class Registry:
    """A named collection of counters."""

    def __init__(self) -> None:
        self._counters: dict[str, Counter] = {}

    def counter(self, name: str) -> Counter:
        """Fetch (creating on first use) the counter called ``name``."""
        counter = self._counters.get(name)
        if counter is None:
            counter = self._counters[name] = Counter(name)
        return counter

    def inc(self, name: str, n: int = 1) -> None:
        """Increment counter ``name`` by ``n``."""
        self.counter(name).inc(n)

    def snapshot(self) -> dict:
        """All counters as plain data: ``{"counters": {name: value}}``."""
        return {"counters": {name: c.value for name, c in sorted(self._counters.items())}}

    def __repr__(self) -> str:
        return f"Registry(counters={len(self._counters)})"
