"""The consistent-hash ring.

Placement must be a pure function of the key and the shard count:
identical on every client, on the servers, across process restarts and
across Python versions.  Python's builtin ``hash`` is salted per process
(``PYTHONHASHSEED``), so the ring hashes through :mod:`hashlib` instead —
``tests/shard/test_router.py`` pins this with a cross-process golden.

The ring is the classic construction: each shard contributes
``replicas`` virtual points, a key belongs to the first point clockwise
from its own hash.  Consistency matters for the usual reason — growing
``N`` shards to ``N+1`` moves only ``~1/(N+1)`` of the keyspace, so a
re-shard invalidates few cached placements.
"""

from __future__ import annotations

import functools
import hashlib
from bisect import bisect_right

#: Virtual points each shard contributes to the ring.  Enough that the
#: keyspace split is within a few percent of even at small shard counts.
DEFAULT_REPLICAS = 64


def stable_hash(key: str) -> int:
    """A 64-bit process-independent hash of ``key``.

    The first 8 bytes of SHA-256 — overkill cryptographically, but it is
    in the standard library, stable forever, and cheap at the call rates
    the router sees (one hash per routed operation).
    """
    return int.from_bytes(hashlib.sha256(key.encode()).digest()[:8], "big")


@functools.lru_cache(maxsize=32)
def _ring_points(n_shards: int, replicas: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The ring's sorted point hashes and their owning shards.

    A pure function of the ring's shape, so it is hashed once per process
    and shared: every client router and the store of one sharded cluster
    ask for the same ring, and each would otherwise pay
    ``n_shards * replicas`` SHA-256 digests and a sort.  Tuples, because
    every caller holds the same object.
    """
    points = sorted(
        (stable_hash(f"repro.shard/{shard}/{replica}"), shard)
        for shard in range(n_shards)
        for replica in range(replicas)
    )
    return tuple(h for h, _ in points), tuple(s for _, s in points)


class HashRing:
    """Maps string keys onto ``n_shards`` buckets, consistently."""

    def __init__(self, n_shards: int, replicas: int = DEFAULT_REPLICAS):
        if n_shards < 1:
            raise ValueError(f"need at least one shard: {n_shards}")
        if replicas < 1:
            raise ValueError(f"need at least one replica point: {replicas}")
        self.n_shards = n_shards
        self.replicas = replicas
        self._hashes, self._owners = _ring_points(n_shards, replicas)

    def shard_of(self, key: str) -> int:
        """The shard index owning ``key``."""
        index = bisect_right(self._hashes, stable_hash(key)) % len(self._hashes)
        return self._owners[index]

    def spread(self, keys: list[str]) -> list[int]:
        """Per-shard key counts for ``keys`` (diagnostics and tests)."""
        counts = [0] * self.n_shards
        for key in keys:
            counts[self.shard_of(key)] += 1
        return counts
