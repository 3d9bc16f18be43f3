"""Stateful property testing of the FileCache against a reference model.

The model is the two facts of the admission rule in
:class:`~repro.cache.filecache.FileCache`'s docstring — per datum the
highest version ever admitted and at most one awaited write
``(version, stamp)`` — driven through any interleaving of puts, gets,
invalidations, drops, request issue and LRU evictions.  Three properties
are checked after every rule, on the real cache:

* **liveness by construction** — a lease-granting reply stamped at or
  after the last invalidation, carrying a version no older than the
  highest admitted, is admitted whatever the awaited write predicted;
* **safety** — a reply stamped before the invalidation with a version
  below the awaited one is never admitted; the highest admitted version
  never decreases except by ``drop``; no entry is newer than it;
* the ``invalidated`` set is exactly the resident invalid entries.

(An earlier design kept the guard on tombstone entries inside the LRU;
this machine caught eviction discarding it — the facts now live outside
the LRU.  Admissions count too: the stampede adversarial family caught a
late stale reply re-admitting an older version after the newer entry was
evicted.)
"""

import copy

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.cache.filecache import FileCache
from repro.types import DatumId

DATUMS = [DatumId.file(f"f{i}") for i in range(5)]


class CacheMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.cache = FileCache(capacity=3)
        #: datum -> highest version ever admitted
        self.admitted: dict = {}
        #: datum -> (version, stamp) of the awaited write
        self.awaited: dict = {}
        #: the next request id: what an invalidation is stamped with
        self.next_req = 1
        #: datum -> the highest ``admitted`` seen since its last drop
        self.high_water: dict = {}

    @rule()
    def issue_request(self):
        self.next_req += 1

    @rule(
        datum=st.sampled_from(DATUMS),
        version=st.integers(0, 10),
        age=st.none() | st.integers(0, 6),
    )
    def put(self, datum, version, age):
        """``age`` None: no lease granted; else a lease-granting reply to
        the request issued ``age`` requests ago."""
        lease_req = None if age is None else max(0, self.next_req - 1 - age)
        awaited = self.awaited.get(datum)
        expect = version >= self.admitted.get(datum, 0) and (
            awaited is None
            or version >= awaited[0]
            or (lease_req is not None and lease_req >= awaited[1])
        )
        admitted = self.cache.put(datum, version, f"v{version}".encode(), lease_req)
        assert admitted == expect, (datum, version, lease_req, self.admitted, awaited)
        if admitted:
            self.admitted[datum] = version
            self.awaited.pop(datum, None)

    @rule(datum=st.sampled_from(DATUMS))
    def get(self, datum):
        entry = self.cache.get(datum)
        if entry is not None:
            assert entry.valid
            assert entry.version == self.admitted[datum], (
                f"served v{entry.version}, not the admitted version, for {datum}"
            )

    @rule(datum=st.sampled_from(DATUMS), expected=st.none() | st.integers(1, 12))
    def invalidate(self, datum, expected):
        self.cache.invalidate(datum, stamp=self.next_req, expected=expected)
        if expected is None:
            expected = self.admitted.get(datum, 0) + 1
        if datum in self.awaited:
            expected = max(expected, self.awaited[datum][0])
        self.awaited[datum] = (expected, self.next_req)

    @rule(datum=st.sampled_from(DATUMS))
    def drop(self, datum):
        self.cache.drop(datum)
        self.admitted.pop(datum, None)
        self.awaited.pop(datum, None)
        self.high_water.pop(datum, None)

    @invariant()
    def size_bounded(self):
        assert len(self.cache) <= 3

    @invariant()
    def facts_match_model(self):
        """Eviction must never erase an admission fact (the original bug)."""
        assert self.cache._admitted == self.admitted
        assert self.cache._awaited == self.awaited

    @invariant()
    def liveness_by_construction(self):
        """No awaited write, however dead its prediction, can wedge reads:
        the boundary case (stamped exactly at the invalidation, carrying
        exactly the highest admitted version) is admitted."""
        for datum in DATUMS:
            awaited = self.awaited.get(datum)
            stamp = awaited[1] if awaited is not None else 0
            probe = copy.deepcopy(self.cache)
            assert probe.put(datum, self.admitted.get(datum, 0), b"", lease_req=stamp)

    @invariant()
    def safety(self):
        for datum in DATUMS:
            admitted = self.admitted.get(datum, 0)
            assert admitted >= self.high_water.get(datum, 0), "admitted went down"
            self.high_water[datum] = admitted
            entry = self.cache.peek(datum)
            if entry is not None:
                assert entry.version <= admitted
            awaited = self.awaited.get(datum)
            if awaited is None:
                continue
            assert entry is None or not entry.valid
            version, stamp = awaited
            for lease_req in (None, stamp - 1):
                probe = copy.deepcopy(self.cache)
                assert not probe.put(datum, version - 1, b"", lease_req=lease_req)

    @invariant()
    def invalidated_is_the_resident_invalid_entries(self):
        """The set a batched extension refetches from is an index, kept by
        hand at every mutation (put, invalidate, drop, eviction)."""
        expect = set()
        for datum in DATUMS:
            entry = self.cache.peek(datum)
            if entry is not None and not entry.valid:
                expect.add(datum)
        assert self.cache.invalidated == expect


TestCacheMachine = CacheMachine.TestCase
TestCacheMachine.settings = settings(
    max_examples=60, stateful_step_count=40, deadline=None
)
