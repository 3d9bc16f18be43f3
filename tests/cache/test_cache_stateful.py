"""Stateful property testing of the FileCache against a reference model.

The safety property (single-copy consistency depends on it): once an
invalidation *or a successful admission* establishes a version floor,
**no payload below the floor is ever admitted or served again**, across
any interleaving of puts, gets, invalidations, drops and LRU evictions.
(An earlier design kept floors on tombstone entries inside the LRU; this
machine caught eviction discarding them — floors now live outside the
LRU.  Admissions raise the floor too: the stampede adversarial family
caught a late stale reply re-admitting an older version after the newer
entry was evicted.)
"""

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
        #: datum -> floor (versions below must never be admitted/served)
        self.floors: dict = {}

    @rule(datum=st.sampled_from(DATUMS), version=st.integers(0, 10))
    def put(self, datum, version):
        payload = f"v{version}".encode()
        before = self.cache.peek(datum)
        expect = version >= self.floors.get(datum, 0) and (
            before is None or version >= before.version
        )
        admitted = self.cache.put(datum, version, payload)
        assert admitted == expect, (datum, version, before, self.floors)
        if admitted:
            # Admission proves the server reached `version`: the floor
            # rises so eviction cannot reopen the door to older bytes.
            self.floors[datum] = max(self.floors.get(datum, 0), version)

    @rule(datum=st.sampled_from(DATUMS))
    def get(self, datum):
        entry = self.cache.get(datum)
        if entry is not None:
            assert entry.valid
            assert entry.version >= self.floors.get(datum, 0), (
                f"served v{entry.version} below floor for {datum}"
            )

    @rule(datum=st.sampled_from(DATUMS), min_version=st.integers(1, 12))
    def invalidate(self, datum, min_version):
        entry = self.cache.peek(datum)
        if entry is None and min_version is None:
            return
        # explicit min_version takes precedence over the entry default
        floor = max(self.floors.get(datum, 0), min_version)
        self.cache.invalidate(datum, min_version=min_version)
        self.floors[datum] = floor

    @rule(datum=st.sampled_from(DATUMS))
    def invalidate_plain(self, datum):
        entry = self.cache.peek(datum)
        self.cache.invalidate(datum)
        if entry is not None:
            self.floors[datum] = max(
                self.floors.get(datum, 0), entry.version + 1
            )

    @rule(datum=st.sampled_from(DATUMS))
    def drop(self, datum):
        self.cache.drop(datum)
        self.floors.pop(datum, None)

    @invariant()
    def size_bounded(self):
        assert len(self.cache) <= 3

    @invariant()
    def floors_match_model(self):
        """Eviction must never erase a floor (the original bug)."""
        for datum in DATUMS:
            assert self.cache.floor_of(datum) == self.floors.get(datum, 0)

    @invariant()
    def no_valid_entry_below_floor(self):
        for datum in DATUMS:
            entry = self.cache.peek(datum)
            if entry is not None and entry.valid:
                assert entry.version >= self.floors.get(datum, 0)

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
