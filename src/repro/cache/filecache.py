"""The client's datum cache and local temporary-file store."""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Any

from repro.types import DatumId, Version


@dataclass
class CacheEntry:
    """One cached datum.

    Attributes:
        datum: what is cached.
        version: the committed version this payload corresponds to.
        payload: file contents (bytes) or directory bindings (tuple).
        valid: False after an approval-driven invalidation.
    """

    datum: DatumId
    version: Version
    payload: object
    valid: bool = True


@dataclass
class CacheStats:
    """Hit/miss accounting for experiments."""

    hits: int = 0
    misses: int = 0
    invalidations: int = 0
    evictions: int = 0
    stale_rejects: int = 0

    @property
    def lookups(self) -> int:
        """Total get() calls observed."""
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from cache."""
        return self.hits / self.lookups if self.lookups else 0.0


class FileCache:
    """Capacity-bounded cache of datums, with invalidation floors.

    The cache stores data only; *usability* of an entry additionally
    requires a valid lease, which the client engine checks against its
    :class:`~repro.lease.holder.LeaseSet`.

    **Eviction** defaults to plain LRU (the seed behaviour, byte-for-byte:
    the pinned golden digests run through this path).  Passing a
    :class:`~repro.cache.eviction.LruLfuPolicy` switches victim selection
    to hybrid score-based eviction for skewed workloads; the policy
    observes every access via ``touch`` and picks victims on overflow.

    **Version floors** are the correctness guard: when the client approves
    a write (invalidating its copy), a floor records the pending version so
    that a stale in-flight reply cannot re-admit older bytes.  Floors live
    *outside* the LRU — an early design kept them on tombstone entries,
    and the stateful property tests demonstrated that eviction could then
    silently discard a floor.  They are tiny (one int per datum ever
    invalidated) and are released when the datum is dropped.
    """

    def __init__(self, capacity: int = 4096, policy: Any = None):
        """Args:
            capacity: maximum resident entries (must be >= 1).
            policy: optional :class:`~repro.cache.eviction.LruLfuPolicy`;
                None keeps the built-in LRU victim selection.
        """
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1: {capacity}")
        self.capacity = capacity
        self.policy = policy
        self._entries: OrderedDict[DatumId, CacheEntry] = OrderedDict()
        #: datum -> minimum admissible version; never evicted.
        self._floors: dict[DatumId, Version] = {}
        #: Resident datums whose entry is invalid: what a batched extension
        #: refetches along with the lease (read it, do not mutate it).
        self.invalidated: set[DatumId] = set()
        self.stats = CacheStats()

    def get(self, datum: DatumId) -> CacheEntry | None:
        """Return a valid entry (refreshing LRU position), else None."""
        entry = self._entries.get(datum)
        if entry is None or not entry.valid:
            self.stats.misses += 1
            return None
        self._entries.move_to_end(datum)
        if self.policy is not None:
            self.policy.touch(datum)
        self.stats.hits += 1
        return entry

    def peek(self, datum: DatumId) -> CacheEntry | None:
        """Return the entry regardless of validity, without stats/LRU effects."""
        return self._entries.get(datum)

    def floor_of(self, datum: DatumId) -> Version:
        """The minimum version :meth:`put` will admit for ``datum``."""
        return self._floors.get(datum, 0)

    def put(self, datum: DatumId, version: Version, payload: object) -> bool:
        """Admit a fetched or written payload.

        Returns:
            False when refused: the version is below the datum's
            invalidation floor (a stale in-flight reply) or below the
            version already cached.
        """
        if version < self._floors.get(datum, 0):
            self.stats.stale_rejects += 1
            return False
        entry = self._entries.get(datum)
        if entry is not None and version < entry.version:
            self.stats.stale_rejects += 1
            return False
        # Admission proves the server reached `version` (its versions are
        # monotonic), so nothing older is ever admissible again.  Recording
        # that as the floor makes the guard survive eviction: without it, a
        # late in-flight reply carrying an older version could re-admit
        # stale bytes after the newer entry was evicted under capacity
        # pressure — and a still-valid lease would then serve them as
        # local hits (found by the stampede adversarial family).
        if version > self._floors.get(datum, 0):
            self._floors[datum] = version
        if entry is not None:
            entry.version = version
            entry.payload = payload
            entry.valid = True
            self.invalidated.discard(datum)
            self._entries.move_to_end(datum)
            if self.policy is not None:
                self.policy.touch(datum)
            return True
        self._entries[datum] = CacheEntry(datum, version, payload)
        if self.policy is not None:
            self.policy.touch(datum)
        self._evict(new=datum)
        return True

    def invalidate(self, datum: DatumId, min_version: Version | None = None) -> None:
        """Invalidate the cached copy (approval of a write, §2).

        Args:
            min_version: when known, the version below which payloads must
                be refused by later :meth:`put` calls.  An *explicit* value
                takes precedence over the entry-derived default — a
                write-lease acquisition, for example, invalidates copies
                while naming the still-current version, which must remain
                re-admittable once the lease ends without a commit.
                Without an entry *and* without a known version there is
                nothing to record.
        """
        entry = self._entries.get(datum)
        if entry is None and min_version is None:
            return
        floor = self._floors.get(datum, 0)
        if min_version is not None:
            floor = max(floor, min_version)
        elif entry is not None:
            floor = max(floor, entry.version + 1)
        if entry is not None:
            entry.valid = False
            self.invalidated.add(datum)
        self._floors[datum] = floor
        self.stats.invalidations += 1

    def lower_floor(self, datum: DatumId, version: Version) -> None:
        """Lower (never raise) ``datum``'s admission floor to ``version``.

        For when the write that raised the floor is proven to have aborted
        at the server: its version will never commit, so keeping the floor
        would refuse every live reply forever (a refetch livelock).  The
        proof obligation — a post-approval reply that grants a lease yet
        still carries a lower version — rests with the protocol engine.
        """
        if version < self._floors.get(datum, 0):
            self._floors[datum] = version

    def drop(self, datum: DatumId) -> None:
        """Remove an entry and its floor entirely (unlink semantics)."""
        self._entries.pop(datum, None)
        self._floors.pop(datum, None)
        self.invalidated.discard(datum)
        if self.policy is not None:
            self.policy.forget(datum)

    def clear(self) -> None:
        """Client crash: all volatile cache state is gone."""
        self._entries.clear()
        self._floors.clear()
        self.invalidated.clear()
        if self.policy is not None:
            self.policy.clear()

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, datum: DatumId) -> bool:
        return datum in self._entries

    def _evict(self, new: DatumId | None = None) -> None:
        """Evict down to capacity.

        ``new`` is the datum the triggering :meth:`put` just admitted and
        is exempt from score-based victim selection: under a frequency-
        weighted policy a cold key scores below every hot resident, so
        without the exemption the cache evicts the entry it just admitted
        — ``put`` reports success, the caller's next lookup misses, and a
        protocol engine refetches in a storm (found by the flash-crowd
        adversarial workload at capacity 2).  Plain LRU is immune: the
        newest entry is by construction the last victim.
        """
        while len(self._entries) > self.capacity:
            if self.policy is None:
                evicted, _ = self._entries.popitem(last=False)
            else:
                pool = self._entries.keys()
                if new is not None and len(self._entries) > 1:
                    pool = (d for d in pool if d != new)
                evicted = self.policy.select_victim(pool)
                del self._entries[evicted]
                self.policy.forget(evicted)
            self.invalidated.discard(evicted)
            self.stats.evictions += 1


class TempFileStore:
    """Client-local storage for temporary files.

    V handles temporary files "in a manner analogous to using a local disk"
    — they never touch the server, never need leases, and never appear in
    consistency traffic.  Keyed by path because temp files have no
    server-side file id.
    """

    def __init__(self) -> None:
        self._files: dict[str, bytes] = {}
        self.writes = 0
        self.reads = 0

    def write(self, path: str, content: bytes) -> None:
        """Store a temporary file locally (never reaches the server)."""
        self._files[path] = content
        self.writes += 1

    def read(self, path: str) -> bytes | None:
        """Fetch a temporary file, or None if absent."""
        self.reads += 1
        return self._files.get(path)

    def unlink(self, path: str) -> None:
        """Remove a temporary file (missing paths are ignored)."""
        self._files.pop(path, None)

    def clear(self) -> None:
        """Drop every temporary file (client crash)."""
        self._files.clear()

    def __len__(self) -> int:
        return len(self._files)
