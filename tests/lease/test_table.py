"""Tests for the server-side LeaseTable."""

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import LeaseDeniedError
from repro.lease import INFINITE_TERM, LeaseTable
from repro.types import DatumId

F1 = DatumId.file("f1")
F2 = DatumId.file("f2")


class TestGrant:
    def test_grant_records_holder(self):
        table = LeaseTable()
        table.grant(F1, "c0", now=0.0, term=10.0)
        assert table.live_holders(F1, 5.0) == {"c0"}

    def test_expired_holder_not_live(self):
        table = LeaseTable()
        table.grant(F1, "c0", now=0.0, term=10.0)
        assert table.live_holders(F1, 10.0) == set()

    def test_regrant_extends(self):
        table = LeaseTable()
        table.grant(F1, "c0", now=0.0, term=10.0)
        table.grant(F1, "c0", now=8.0, term=10.0)
        assert table.live_holders(F1, 17.0) == {"c0"}

    def test_multiple_holders(self):
        table = LeaseTable()
        table.grant(F1, "c0", now=0.0, term=10.0)
        table.grant(F1, "c1", now=0.0, term=10.0)
        assert table.live_holders(F1, 1.0) == {"c0", "c1"}

    def test_grant_denied_while_write_pending(self):
        """The starvation guard (footnote 1)."""
        table = LeaseTable()
        table.grant(F1, "c0", now=0.0, term=10.0)
        table.begin_write(F1, "c1", now=1.0)
        with pytest.raises(LeaseDeniedError):
            table.grant(F1, "c2", now=2.0, term=10.0)

    def test_grant_on_other_datum_unaffected_by_pending_write(self):
        table = LeaseTable()
        table.grant(F1, "c0", now=0.0, term=10.0)
        table.begin_write(F1, "c1", now=1.0)
        table.grant(F2, "c2", now=2.0, term=10.0)  # should not raise

    def test_max_term_granted_tracks_peak(self):
        table = LeaseTable()
        table.grant(F1, "c0", now=0.0, term=10.0)
        table.grant(F2, "c1", now=0.0, term=30.0)
        table.grant(F1, "c2", now=0.0, term=5.0)
        assert table.max_term_granted == 30.0


class TestRelease:
    def test_release_removes_lease(self):
        table = LeaseTable()
        table.grant(F1, "c0", now=0.0, term=10.0)
        table.release(F1, "c0")
        assert table.live_holders(F1, 1.0) == set()
        assert table.expiry_of(F1, "c0") is None
        assert table.lease_count() == 0

    def test_release_unknown_is_noop(self):
        LeaseTable().release(F1, "ghost")

    def test_release_unblocks_pending_write(self):
        table = LeaseTable()
        table.grant(F1, "c0", now=0.0, term=100.0)
        write = table.begin_write(F1, "c1", now=1.0)
        assert not write.ready(2.0)
        table.release(F1, "c0")
        assert write.ready(2.0)


class TestWrites:
    def test_write_with_no_holders_is_immediately_ready(self):
        table = LeaseTable()
        write = table.begin_write(F1, "c0", now=0.0)
        assert write.ready(0.0)

    def test_writer_own_lease_is_implicitly_approved(self):
        table = LeaseTable()
        table.grant(F1, "c0", now=0.0, term=100.0)
        write = table.begin_write(F1, "c0", now=1.0)
        assert write.awaiting == set()
        assert write.ready(1.0)

    def test_write_awaits_other_holders(self):
        table = LeaseTable()
        table.grant(F1, "c0", now=0.0, term=100.0)
        table.grant(F1, "c1", now=0.0, term=100.0)
        write = table.begin_write(F1, "c0", now=1.0)
        assert write.awaiting == {"c1"}

    def test_expired_holders_not_awaited(self):
        table = LeaseTable()
        table.grant(F1, "c1", now=0.0, term=5.0)
        write = table.begin_write(F1, "c0", now=10.0)
        assert write.awaiting == set()

    def test_deadline_is_max_awaited_expiry(self):
        table = LeaseTable()
        table.grant(F1, "c1", now=0.0, term=5.0)
        table.grant(F1, "c2", now=0.0, term=20.0)
        write = table.begin_write(F1, "c0", now=1.0)
        assert write.deadline == 20.0

    def test_deadline_shrinks_when_late_holder_departs(self):
        """The deadline is dynamic: releasing the longest-lived awaited
        holder pulls it in to the next one (stateful-machine regression)."""
        table = LeaseTable()
        table.grant(F1, "c1", now=0.0, term=5.0)
        table.grant(F1, "c2", now=0.0, term=20.0)
        write = table.begin_write(F1, "c0", now=1.0)
        table.release(F1, "c2")
        assert write.deadline == 5.0
        assert not write.ready(4.0)
        assert write.ready(5.0)  # not 20.0

    def test_ready_after_deadline_without_approvals(self):
        """An unreachable client delays writes at most one term (§5)."""
        table = LeaseTable()
        table.grant(F1, "c1", now=0.0, term=10.0)
        write = table.begin_write(F1, "c0", now=1.0)
        assert not write.ready(9.0)
        assert write.ready(10.0)

    def test_approval_makes_ready(self):
        table = LeaseTable()
        table.grant(F1, "c1", now=0.0, term=100.0)
        write = table.begin_write(F1, "c0", now=1.0)
        got = table.approve(F1, "c1", write.write_id)
        assert got is write
        assert write.ready(2.0)

    def test_stale_approval_ignored(self):
        table = LeaseTable()
        table.grant(F1, "c1", now=0.0, term=100.0)
        write = table.begin_write(F1, "c0", now=1.0)
        assert table.approve(F1, "c1", write.write_id + 999) is None
        assert not write.ready(2.0)

    def test_approval_with_no_pending_write_ignored(self):
        table = LeaseTable()
        assert table.approve(F1, "c1", 1) is None

    def test_writes_serialize_per_datum(self):
        table = LeaseTable()
        w1 = table.begin_write(F1, "c0", now=0.0)
        w2 = table.begin_write(F1, "c1", now=0.0)
        assert table.head_write(F1) is w1
        table.finish_write(F1, w1.write_id)
        assert table.head_write(F1) is w2

    def test_finish_out_of_order_rejected(self):
        table = LeaseTable()
        table.begin_write(F1, "c0", now=0.0)
        w2 = table.begin_write(F1, "c1", now=0.0)
        with pytest.raises(LeaseDeniedError):
            table.finish_write(F1, w2.write_id)

    def test_finish_clears_pending_flag(self):
        table = LeaseTable()
        write = table.begin_write(F1, "c0", now=0.0)
        assert table.write_pending(F1)
        table.finish_write(F1, write.write_id)
        assert not table.write_pending(F1)

    def test_release_unblocks_every_queued_write(self):
        """Regression: a release must sweep the *whole* pending queue,
        not just the head.  Found by the stateful property tests — with
        two writes queued behind one holder, releasing the holder and
        committing the first write left the second still awaiting a
        departed host."""
        table = LeaseTable()
        table.grant(F1, "c1", now=0.0, term=1.0)
        w1 = table.begin_write(F1, "c0", now=0.0)
        w2 = table.begin_write(F1, "c0", now=0.0)
        assert w1.awaiting == {"c1"} and w2.awaiting == {"c1"}
        table.release(F1, "c1")
        table.finish_write(F1, w1.write_id)
        head = table.head_write(F1)
        assert head is w2
        assert head.ready(0.0)

    def test_not_before_alone_is_the_deadline(self):
        """Leases the table has no record of (an installed cover's last
        announcement): nobody is awaited, the floor is the whole wait."""
        write = LeaseTable().begin_write(F1, "c0", now=1.0, not_before=8.0)
        assert write.awaiting == set()
        assert write.deadline == 8.0
        assert not write.ready(7.9)
        assert write.ready(8.0)

    @pytest.mark.parametrize("not_before, deadline", [(4.0, 10.0), (12.0, 12.0)])
    def test_deadline_is_the_later_of_floor_and_awaited_expiry(self, not_before, deadline):
        table = LeaseTable()
        table.grant(F1, "c1", now=0.0, term=10.0)
        write = table.begin_write(F1, "c0", now=1.0, not_before=not_before)
        assert write.deadline == deadline
        assert not write.ready(deadline - 0.1)
        assert write.ready(deadline)

    def test_approval_cannot_pull_the_deadline_below_not_before(self):
        table = LeaseTable()
        table.grant(F1, "c1", now=0.0, term=10.0)
        write = table.begin_write(F1, "c0", now=1.0, not_before=6.0)
        table.approve(F1, "c1", write.write_id)
        assert write.deadline == 6.0
        assert not write.ready(5.0)
        assert write.ready(6.0)

    def test_infinite_lease_blocks_write_forever(self):
        """Why the callback scheme loses availability (§6)."""
        table = LeaseTable()
        table.grant(F1, "c1", now=0.0, term=INFINITE_TERM)
        write = table.begin_write(F1, "c0", now=1.0)
        assert math.isinf(write.deadline)
        assert not write.ready(1e15)


class TestMaintenance:
    def test_expire_sweep_reclaims(self):
        table = LeaseTable()
        table.grant(F1, "c0", now=0.0, term=5.0)
        table.grant(F2, "c1", now=0.0, term=50.0)
        assert table.expire_sweep(10.0) == 1
        assert table.lease_count() == 1

    def test_clear_drops_everything(self):
        table = LeaseTable()
        table.grant(F1, "c0", now=0.0, term=5.0)
        table.begin_write(F1, "c1", now=0.0)
        table.clear()
        assert table.lease_count() == 0
        assert not table.write_pending(F1)
        assert table.max_term_granted == 0.0

    def test_clear_returns_precrash_write_delay_bound(self):
        """Regression: a restarting server needs the pre-crash
        ``max_term_granted`` as its recovery delay (§2), so ``clear()``
        must hand it back rather than silently zero it."""
        table = LeaseTable()
        table.grant(F1, "c0", now=0.0, term=5.0)
        table.grant(F2, "c1", now=0.0, term=30.0)
        assert table.clear() == 30.0
        assert table.max_term_granted == 0.0
        assert table.clear() == 0.0  # second crash of an empty table

    def test_lease_count(self):
        table = LeaseTable()
        table.grant(F1, "c0", now=0.0, term=5.0)
        table.grant(F1, "c1", now=0.0, term=5.0)
        table.grant(F2, "c0", now=0.0, term=5.0)
        assert table.lease_count() == 3


class TestProperties:
    @given(
        grants=st.lists(
            st.tuples(
                st.sampled_from(["c0", "c1", "c2"]),
                st.floats(0, 100),
                st.floats(0, 50),
            ),
            max_size=30,
        )
    )
    def test_live_holders_only_contains_valid(self, grants):
        """Property: live_holders never reports an expired lease."""
        table = LeaseTable()
        grants = sorted(grants, key=lambda g: g[1])
        for holder, now, term in grants:
            table.grant(F1, holder, now=now, term=term)
        final = grants[-1][1] if grants else 0.0
        for t in (final, final + 10.0, final + 1000.0):
            for holder in table.live_holders(F1, t):
                assert t < table.expiry_of(F1, holder)

    @given(
        holders=st.sets(st.sampled_from(["c0", "c1", "c2", "c3"]), max_size=4),
        approve_order=st.permutations(["c0", "c1", "c2", "c3"]),
    )
    def test_write_ready_iff_all_approved_or_deadline(self, holders, approve_order):
        """Property: a write becomes ready exactly when its awaiting set drains."""
        table = LeaseTable()
        for holder in holders:
            table.grant(F1, holder, now=0.0, term=100.0)
        write = table.begin_write(F1, "writer", now=1.0)
        assert write.awaiting == holders
        for holder in approve_order:
            if write.awaiting:
                assert not write.ready(2.0)
            table.approve(F1, holder, write.write_id)
        assert write.ready(2.0)
