"""Tests for the client datum cache."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.cache import FileCache, TempFileStore
from repro.types import DatumId

F1 = DatumId.file("f1")
F2 = DatumId.file("f2")


class TestBasics:
    def test_miss_on_empty(self):
        cache = FileCache()
        assert cache.get(F1) is None
        assert cache.stats.misses == 1

    def test_put_then_get(self):
        cache = FileCache()
        cache.put(F1, 1, b"data")
        entry = cache.get(F1)
        assert entry.version == 1
        assert entry.payload == b"data"
        assert cache.stats.hits == 1

    def test_put_updates_in_place(self):
        cache = FileCache()
        cache.put(F1, 1, b"old")
        cache.put(F1, 2, b"new")
        assert cache.get(F1).payload == b"new"
        assert len(cache) == 1

    def test_drop(self):
        cache = FileCache()
        cache.put(F1, 1, b"x")
        cache.drop(F1)
        assert F1 not in cache

    def test_clear(self):
        cache = FileCache()
        cache.put(F1, 1, b"x")
        cache.put(F2, 1, b"y")
        cache.clear()
        assert len(cache) == 0

    def test_capacity_validated(self):
        with pytest.raises(ValueError):
            FileCache(capacity=0)

    def test_hit_rate(self):
        cache = FileCache()
        cache.put(F1, 1, b"x")
        cache.get(F1)
        cache.get(F2)
        assert cache.stats.hit_rate == 0.5


class TestInvalidation:
    """The admission rule in :class:`FileCache`'s docstring, clause by
    clause.  Stamps are issue order: a reply's ``lease_req`` at or above
    an invalidation's stamp answers a request issued after it."""

    def test_invalidated_entry_misses(self):
        cache = FileCache()
        cache.put(F1, 1, b"x")
        cache.invalidate(F1, stamp=1)
        assert cache.get(F1) is None
        assert cache.stats.invalidations == 1

    def test_invalidate_unknown_is_noop(self):
        """Nothing resident, nothing ever admitted: every real version
        (they start at 1) is still admissible."""
        cache = FileCache()
        cache.invalidate(F1, stamp=1)
        assert cache.stats.invalidations == 0
        assert cache.put(F1, 1, b"first")

    def test_put_revalidates_with_newer_version(self):
        cache = FileCache()
        cache.put(F1, 1, b"old")
        cache.invalidate(F1, stamp=1)
        assert cache.put(F1, 2, b"new")
        assert cache.get(F1).payload == b"new"

    def test_stale_put_refused_after_invalidation(self):
        """A late stale fetch must not resurrect data the client agreed
        to invalidate (write-approval race): the reply answers a request
        issued before the invalidation and carries the old version."""
        cache = FileCache()
        cache.put(F1, 3, b"v3")
        cache.invalidate(F1, stamp=7)  # awaits v4
        assert not cache.put(F1, 3, b"v3-late", lease_req=6)
        assert not cache.put(F1, 3, b"v3-late")  # nor without any lease
        assert cache.get(F1) is None
        assert cache.stats.stale_rejects == 2

    def test_reply_issued_after_invalidation_is_admitted(self):
        """Liveness by construction: the awaited v4 never commits, and
        the first lease-granting reply to a request issued at or after
        the invalidation is admitted whatever it predicted."""
        cache = FileCache()
        cache.put(F1, 3, b"v3")
        cache.invalidate(F1, stamp=7)
        assert cache.put(F1, 3, b"v3-current", lease_req=7)
        assert cache.get(F1).payload == b"v3-current"

    def test_first_admission_clears_the_awaited_write(self):
        cache = FileCache()
        cache.invalidate(F1, stamp=7, expected=5)
        assert cache.put(F1, 2, b"v2", lease_req=8)
        assert cache.put(F1, 3, b"v3")  # nothing awaited: version alone decides
        cache.invalidate(F1, stamp=9, expected=8)  # a new write is awaited afresh
        assert not cache.put(F1, 7, b"v7", lease_req=8)
        assert cache.put(F1, 8, b"v8", lease_req=8)

    def test_explicit_expected_version(self):
        cache = FileCache()
        cache.put(F1, 3, b"v3")
        cache.invalidate(F1, stamp=1, expected=10)
        assert not cache.put(F1, 9, b"v9")
        assert cache.put(F1, 10, b"v10")

    def test_explicit_expected_may_name_the_current_version(self):
        """A write-lease acquisition invalidates copies while naming the
        still-current version, which stays admissible from any reply."""
        cache = FileCache()
        cache.put(F1, 3, b"v3")
        cache.invalidate(F1, stamp=9, expected=3)
        assert cache.put(F1, 3, b"v3-again", lease_req=2)

    def test_older_version_never_replaces_newer(self):
        cache = FileCache()
        cache.put(F1, 5, b"v5")
        assert not cache.put(F1, 4, b"v4")
        assert not cache.put(F1, 4, b"v4", lease_req=99)  # whoever answers
        assert cache.get(F1).version == 5

    def test_tombstone_floor_without_prior_entry(self):
        """An approval can precede the first fetch; what it awaits must
        stick although there is no entry to hang it on."""
        cache = FileCache()
        cache.invalidate(F1, stamp=4, expected=2)
        assert not cache.put(F1, 1, b"stale", lease_req=3)
        assert cache.get(F1) is None
        assert cache.put(F1, 2, b"fresh", lease_req=3)
        assert cache.get(F1).payload == b"fresh"

    def test_awaited_version_survives_repeated_invalidation(self):
        """Two writes awaited at once keep the higher version and the
        later stamp: a payload must contain both or be issued after both."""
        cache = FileCache()
        cache.put(F1, 1, b"x")
        cache.invalidate(F1, stamp=2, expected=5)
        cache.invalidate(F1, stamp=6, expected=3)  # must not lower the version
        assert not cache.put(F1, 4, b"v4")
        assert not cache.put(F1, 4, b"v4", lease_req=5)  # after the first only
        assert cache.put(F1, 4, b"v4", lease_req=6)

    def test_drop_forgets_the_admission_facts(self):
        cache = FileCache()
        cache.put(F1, 5, b"x")
        cache.invalidate(F1, stamp=1, expected=9)
        cache.drop(F1)
        assert cache.put(F1, 1, b"reborn")


class TestLru:
    def test_eviction_removes_least_recent(self):
        cache = FileCache(capacity=2)
        cache.put(F1, 1, b"1")
        cache.put(F2, 1, b"2")
        cache.get(F1)  # F1 now most recent
        cache.put(DatumId.file("f3"), 1, b"3")
        assert F1 in cache
        assert F2 not in cache
        assert cache.stats.evictions == 1

    def test_peek_does_not_touch_lru(self):
        cache = FileCache(capacity=2)
        cache.put(F1, 1, b"1")
        cache.put(F2, 1, b"2")
        cache.peek(F1)
        cache.put(DatumId.file("f3"), 1, b"3")
        assert F1 not in cache  # peek did not refresh it

    def test_admission_floor_survives_eviction(self):
        """Regression (stampede adversarial family, seed gen-0-81): a
        crash-era duplicate commit produced a late v4 WriteReply after v5
        had been admitted *and evicted* under capacity pressure.  With the
        floor raised only by invalidations, eviction reopened the door and
        the stale bytes were served as local hits under a live lease.
        The highest admitted version is kept outside the LRU."""
        cache = FileCache(capacity=2)
        assert cache.put(F1, 5, b"v5")
        cache.put(F2, 1, b"2")
        cache.put(DatumId.file("f3"), 1, b"3")  # evicts F1 (LRU-oldest)
        assert F1 not in cache
        assert not cache.put(F1, 4, b"v4")
        assert not cache.put(F1, 4, b"v4", lease_req=99)
        assert cache.stats.stale_rejects == 2
        assert cache.put(F1, 5, b"v5")  # the admitted version itself is fine

    @given(ops=st.lists(st.integers(0, 9), max_size=60))
    def test_size_never_exceeds_capacity(self, ops):
        cache = FileCache(capacity=4)
        for i in ops:
            cache.put(DatumId.file(f"f{i}"), 1, b"")
        assert len(cache) <= 4


class TestTempFileStore:
    def test_write_read_roundtrip(self):
        temp = TempFileStore()
        temp.write("/tmp/a", b"scratch")
        assert temp.read("/tmp/a") == b"scratch"

    def test_read_missing_is_none(self):
        assert TempFileStore().read("/tmp/ghost") is None

    def test_unlink(self):
        temp = TempFileStore()
        temp.write("/tmp/a", b"x")
        temp.unlink("/tmp/a")
        assert temp.read("/tmp/a") is None

    def test_counters(self):
        temp = TempFileStore()
        temp.write("/tmp/a", b"x")
        temp.read("/tmp/a")
        temp.read("/tmp/b")
        assert temp.writes == 1
        assert temp.reads == 2

    def test_clear(self):
        temp = TempFileStore()
        temp.write("/tmp/a", b"x")
        temp.clear()
        assert len(temp) == 0
