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
    """Capacity-bounded cache of datums, and the one rule for what a reply
    may put in it.

    The cache stores data only; *usability* of an entry additionally
    requires a valid lease, which the client engine checks against its
    :class:`~repro.lease.holder.LeaseSet`.

    **Eviction** defaults to plain LRU (the seed behaviour).  Passing a
    :class:`~repro.cache.eviction.LruLfuPolicy` switches victim selection
    to hybrid score-based eviction for skewed workloads; the policy
    observes every access via ``touch`` and picks victims on overflow.

    **Admission.**  Granting approval for a write invalidates the local
    copy (paper §2); the guard needed beside that rule is that a reply
    which raced the approval must not re-admit the pre-write bytes under
    the lease the client still holds.  It is decided here, once, from two
    facts per datum that live outside the LRU (eviction must not forget
    them) and go only with :meth:`drop` / :meth:`clear`:

    * *admitted* — the highest version ever admitted; never lowered.
    * *awaited* — at most one write the client agreed to wait for, as
      ``(version it will commit as, stamp of the invalidation)``.  Stamps
      are the caller's non-decreasing issue order; the client engine uses
      its request-id counter, so "issued after" reads no clock.

    :meth:`put` admits a payload iff::

        version >= admitted and (
            nothing is awaited
            or version >= awaited.version
            or the reply grants a lease and answers a request
               issued at or after awaited.stamp)

    and the first admission clears the awaited record.  Why that is safe:

    1. server versions are monotonic, so anything below *admitted* is
       older than bytes this client has already seen;
    2. a write commits as exactly one version, so a payload at or above
       the awaited version contains the awaited write;
    3. the server defers reads and denies extensions while a write is
       pending on the datum, so a lease-granting reply to a request issued
       after the invalidation was computed after that write resolved —
       committed (then 2 holds too) or aborted (then the version it
       predicted will never exist, and these bytes are current).

    Clause 3 is also why a dead prediction cannot wedge reads: every
    lease-granting reply to a request issued after the last invalidation
    passes it, whatever the awaited version says.  Recording the stamp is
    part of :meth:`invalidate`, not a second act a call site could forget.
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
        #: datum -> highest version ever admitted; never evicted or lowered.
        self._admitted: dict[DatumId, Version] = {}
        #: datum -> (version, stamp) of the one awaited write; never evicted.
        self._awaited: dict[DatumId, tuple[Version, int]] = {}
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

    def put(
        self,
        datum: DatumId,
        version: Version,
        payload: object,
        lease_req: int | None = None,
    ) -> bool:
        """Offer a fetched or written payload; the class docstring's rule
        decides, and this is the only place a payload is refused.

        Args:
            lease_req: the stamp (request id) of the request this payload
                answers, when the answer also granted a lease; None for a
                reply that granted none and for bytes that answer nothing.

        Returns:
            False when refused (counted in ``stats.stale_rejects``).
        """
        awaited = self._awaited.get(datum)
        if version < self._admitted.get(datum, 0) or (
            awaited is not None
            and version < awaited[0]
            and (lease_req is None or lease_req < awaited[1])
        ):
            self.stats.stale_rejects += 1
            return False
        if awaited is not None:
            del self._awaited[datum]
        self._admitted[datum] = version
        entry = self._entries.get(datum)
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

    def invalidate(
        self, datum: DatumId, stamp: int, expected: Version | None = None
    ) -> None:
        """Invalidate the cached copy and await a write (approval, §2).

        Args:
            stamp: the caller's issue order at this instant; a request
                whose stamp is at or above it was issued after the
                invalidation.  Must not decrease between calls.
            expected: the version the awaited write will commit as, when
                the caller was told (``ApprovalRequest.new_version``).
                Defaults to the one after the highest admitted, the least
                it can be (the engine's own writes, during which it serves
                no local hit anyway).  While an earlier awaited write is
                unresolved the higher of the two versions is kept: a
                payload must contain both.
        """
        if expected is None:
            expected = self._admitted.get(datum, 0) + 1
        awaited = self._awaited.get(datum)
        if awaited is not None and awaited[0] > expected:
            expected = awaited[0]
        self._awaited[datum] = (expected, stamp)
        entry = self._entries.get(datum)
        if entry is not None:
            entry.valid = False
            self.invalidated.add(datum)
            self.stats.invalidations += 1

    def drop(self, datum: DatumId) -> None:
        """Forget a datum entirely, admission facts included (unlink)."""
        self._entries.pop(datum, None)
        self._admitted.pop(datum, None)
        self._awaited.pop(datum, None)
        self.invalidated.discard(datum)
        if self.policy is not None:
            self.policy.forget(datum)

    def clear(self) -> None:
        """Client crash: all volatile cache state is gone."""
        self._entries.clear()
        self._admitted.clear()
        self._awaited.clear()
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
