"""Tests for the client-side LeaseSet."""

from repro.lease import LeaseSet
from repro.types import DatumId

F1 = DatumId.file("f1")
F2 = DatumId.file("f2")
F3 = DatumId.file("f3")
D1 = DatumId.directory("bin")


class TestValidity:
    def test_unknown_datum_invalid(self):
        assert not LeaseSet().valid(F1, 0.0)

    def test_valid_before_expiry(self):
        leases = LeaseSet()
        leases.add(F1, expires_local=10.0)
        assert leases.valid(F1, 9.99)

    def test_invalid_at_expiry(self):
        leases = LeaseSet()
        leases.add(F1, expires_local=10.0)
        assert not leases.valid(F1, 10.0)

    def test_add_never_shortens(self):
        leases = LeaseSet()
        leases.add(F1, expires_local=100.0)
        leases.add(F1, expires_local=50.0)
        assert leases.expires_at(F1) == 100.0

    def test_expires_at_unknown_is_none(self):
        assert LeaseSet().expires_at(F1) is None

    def test_contains_and_len(self):
        leases = LeaseSet()
        leases.add(F1, 10.0)
        leases.add(F2, 10.0)
        assert F1 in leases
        assert F3 not in leases
        assert len(leases) == 2


class TestDrop:
    def test_drop_invalidates(self):
        leases = LeaseSet()
        leases.add(F1, expires_local=10.0)
        leases.drop(F1)
        assert not leases.valid(F1, 0.0)

    def test_drop_unknown_is_noop(self):
        LeaseSet().drop(F1)

    def test_clear_drops_everything(self):
        leases = LeaseSet()
        leases.add(F1, 10.0)
        leases.add(F2, 10.0, cover="bin")
        leases.clear()
        assert len(leases) == 0
        assert leases.cover_members("bin") == set()


class TestBatching:
    """What a batched extension (§3.1) asks for: ``refresh_set``."""

    def test_extension_batch_is_due_leases_not_all_held(self):
        """A fresh lease over a valid copy is not re-requested."""
        leases = LeaseSet()
        leases.add(F1, expires_local=10.0, sent_local=0.0)
        leases.add(F2, expires_local=20.0, sent_local=10.0)
        assert leases.refresh_set(now=12.0, stale=()) == [F1]  # F1 expired, F2 fresh
        assert leases.refresh_set(now=15.0, stale=()) == [F1, F2]
        assert leases.refresh_set(now=4.0, stale=()) == []

    def test_due_at_the_midpoint_exactly(self):
        leases = LeaseSet()
        leases.add(F1, expires_local=10.0, sent_local=2.0)
        assert leases.refresh_set(now=5.999, stale=()) == []
        assert leases.refresh_set(now=6.0, stale=()) == [F1]

    def test_without_a_send_time_due_only_once_expired(self):
        leases = LeaseSet()
        leases.add(F1, expires_local=10.0)
        assert leases.refresh_set(now=9.999, stale=()) == []
        assert leases.refresh_set(now=10.0, stale=()) == [F1]

    def test_lease_expiring_before_it_was_sent_is_due(self):
        """A term shorter than epsilon: expired on arrival, so due."""
        leases = LeaseSet()
        leases.add(F1, expires_local=4.9, sent_local=5.0)
        assert leases.refresh_set(now=4.9, stale=()) == [F1]

    def test_infinite_term_never_due(self):
        leases = LeaseSet()
        leases.add(F1, expires_local=float("inf"), sent_local=0.0)
        assert leases.refresh_set(now=1e18, stale=()) == []

    def test_stale_copy_rides_along_while_its_lease_is_fresh(self):
        leases = LeaseSet()
        leases.add(F1, expires_local=10.0, sent_local=0.0)
        leases.add(F2, expires_local=10.0, sent_local=0.0)
        assert leases.refresh_set(now=1.0, stale={F2}) == [F2]

    def test_stale_datum_without_a_holding_is_not_selected(self):
        leases = LeaseSet()
        leases.add(F1, expires_local=10.0, sent_local=0.0)
        assert leases.refresh_set(now=1.0, stale={F2}) == []

    def test_extension_batch_excludes_covered(self):
        leases = LeaseSet()
        leases.add(F1, expires_local=5.0)
        leases.add(F2, expires_local=5.0, cover="bin")
        leases.add(F3, expires_local=500.0, cover="bin")
        assert leases.refresh_set(now=100.0, stale={F3}) == [F1]

    def test_extension_batch_deterministic_order(self):
        """Sorted by ``str``, whatever order holdings were added in."""
        datums = [F3, D1, F1, F2]
        forward, backward = LeaseSet(), LeaseSet()
        for d in datums:
            forward.add(d, 5.0)
        for d in reversed(datums):
            backward.add(d, 5.0)
        backward.drop(F1)
        backward.add(F1, 5.0)
        want = sorted(datums, key=str)
        assert forward.refresh_set(5.0, stale=()) == want
        assert backward.refresh_set(5.0, stale=()) == want

    def test_shorter_regrant_never_moves_the_renew_point_backward(self):
        """Mirrors ``add``'s expiry rule: the longer promise stands."""
        leases = LeaseSet()
        leases.add(F1, expires_local=100.0, sent_local=0.0)  # due from 50
        leases.add(F1, expires_local=30.0, sent_local=10.0)  # would be due from 20
        assert leases.expires_at(F1) == 100.0
        assert leases.refresh_set(now=49.0, stale=()) == []
        assert leases.refresh_set(now=50.0, stale=()) == [F1]

    def test_longer_regrant_moves_the_renew_point_forward(self):
        leases = LeaseSet()
        leases.add(F1, expires_local=10.0, sent_local=0.0)
        leases.add(F1, expires_local=18.0, sent_local=8.0)
        assert leases.refresh_set(now=12.9, stale=()) == []
        assert leases.refresh_set(now=13.0, stale=()) == [F1]

    def test_expiring_before(self):
        leases = LeaseSet()
        leases.add(F1, expires_local=5.0)
        leases.add(F2, expires_local=50.0)
        assert leases.expiring_before(10.0) == [F1]

    def test_held_datums(self):
        leases = LeaseSet()
        leases.add(F1, 1.0)
        leases.add(D1, 1.0)
        assert leases.held_datums() == {F1, D1}


class TestCovers:
    def test_extend_cover_moves_expiry(self):
        leases = LeaseSet()
        leases.add(F1, expires_local=10.0, cover="bin")
        leases.add(F2, expires_local=10.0, cover="bin")
        leases.add(F3, expires_local=10.0)
        extended = leases.extend_cover("bin", expires_local=50.0)
        assert extended == 2
        assert leases.valid(F1, 40.0)
        assert leases.valid(F2, 40.0)
        assert not leases.valid(F3, 40.0)

    def test_extend_unknown_cover_extends_nothing(self):
        assert LeaseSet().extend_cover("nope", 99.0) == 0

    def test_extend_cover_never_shortens(self):
        leases = LeaseSet()
        leases.add(F1, expires_local=100.0, cover="bin")
        leases.extend_cover("bin", expires_local=20.0)
        assert leases.expires_at(F1) == 100.0

    def test_drop_removes_cover_membership(self):
        leases = LeaseSet()
        leases.add(F1, 10.0, cover="bin")
        leases.drop(F1)
        assert leases.cover_members("bin") == set()

    def test_cover_can_be_assigned_on_later_add(self):
        leases = LeaseSet()
        leases.add(F1, 10.0)
        leases.add(F1, 12.0, cover="bin")
        assert leases.cover_members("bin") == {F1}
        assert leases.refresh_set(100.0, stale={F1}) == []
