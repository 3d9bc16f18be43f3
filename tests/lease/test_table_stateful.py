"""Stateful property testing of the LeaseTable.

A hypothesis rule machine drives grants, releases, writes, approvals and
time against a simple reference model and checks the paper's safety
invariants after every step:

* a write is ready iff every *other* live holder approved or expired and
  its ``not_before`` floor has passed;
* no new lease is granted while a write is pending (starvation guard);
* every stored expiry is the model's expiry for that (datum, holder).
"""

import math

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, precondition, rule

from repro.errors import LeaseDeniedError
from repro.lease.table import LeaseTable
from repro.types import DatumId

DATUMS = [DatumId.file(f"file:{i}") for i in range(3)]
HOLDERS = ["c0", "c1", "c2", "c3"]


class LeaseTableMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.table = LeaseTable()
        self.now = 0.0
        #: reference model: (datum, holder) -> expiry
        self.model: dict[tuple, float] = {}
        #: datum -> list of live pending writes (mirrors table order)
        self.writes: dict = {}

    # -- actions ---------------------------------------------------------------

    @rule(dt=st.floats(0.0, 5.0))
    def advance_time(self, dt):
        self.now += dt

    @rule(datum=st.sampled_from(DATUMS), holder=st.sampled_from(HOLDERS),
          term=st.floats(0.0, 20.0))
    def grant(self, datum, holder, term):
        try:
            self.table.grant(datum, holder, self.now, term)
        except LeaseDeniedError:
            assert self.writes.get(datum), "denied without a pending write"
            return
        assert not self.writes.get(datum), "granted despite a pending write"
        old = self.model.get((datum, holder), -math.inf)
        self.model[(datum, holder)] = max(old, self.now + term)

    @rule(datum=st.sampled_from(DATUMS), holder=st.sampled_from(HOLDERS))
    def release(self, datum, holder):
        self.table.release(datum, holder)
        self.model.pop((datum, holder), None)
        for write in self.writes.get(datum, []):
            write["awaiting"].discard(holder)

    @rule(datum=st.sampled_from(DATUMS), writer=st.sampled_from(HOLDERS),
          ahead=st.one_of(st.none(), st.floats(-5.0, 30.0)))
    def begin_write(self, datum, writer, ahead):
        """``ahead`` places ``not_before``: absent, just past, or up to
        30 s out."""
        floor = -math.inf if ahead is None else self.now + ahead
        pending = self.table.begin_write(datum, writer, self.now, floor)
        expected_awaiting = {
            holder
            for (d, holder), expiry in self.model.items()
            if d == datum and holder != writer and expiry > self.now
        }
        assert pending.awaiting == expected_awaiting
        self.writes.setdefault(datum, []).append(
            {"id": pending.write_id, "awaiting": set(expected_awaiting),
             "floor": floor, "pending": pending}
        )

    @rule(datum=st.sampled_from(DATUMS), holder=st.sampled_from(HOLDERS))
    def approve(self, datum, holder):
        queue = self.writes.get(datum, [])
        head = queue[0] if queue else None
        result = self.table.approve(
            datum, holder, head["id"] if head else 999_999
        )
        if head is None:
            assert result is None
        else:
            head["awaiting"].discard(holder)

    @precondition(lambda self: any(self.writes.values()))
    @rule(datum=st.sampled_from(DATUMS))
    def finish_ready_write(self, datum):
        queue = self.writes.get(datum, [])
        if not queue:
            return
        head = queue[0]
        if head["pending"].ready(self.now):
            self.table.finish_write(datum, head["id"])
            queue.pop(0)

    # -- invariants --------------------------------------------------------------

    @invariant()
    def live_holders_match_model(self):
        for datum in DATUMS:
            expected = {
                holder
                for (d, holder), expiry in self.model.items()
                if d == datum and expiry > self.now
            }
            assert self.table.live_holders(datum, self.now) == expected

    @invariant()
    def write_ready_matches_model(self):
        """A write is ready exactly when no awaited holder still has a
        valid lease (the deadline is dynamic over the remaining awaiting
        set — a departure pulls it in) and its floor has passed (which
        nothing pulls in)."""
        for datum, queue in self.writes.items():
            if not queue:
                continue
            head = queue[0]
            outstanding = {
                holder
                for holder in head["awaiting"]
                if self.model.get((datum, holder), -math.inf) > self.now
            }
            assert head["pending"].ready(self.now) == (
                not outstanding and self.now >= head["floor"]
            )
            assert head["pending"].deadline >= head["floor"]

    @invariant()
    def stored_expiries_match_model(self):
        """Pruning may drop an expired record early, but whatever the
        table stores is exactly what the model says the lease runs to."""
        for datum, holder, expiry in self.table.iter_leases():
            assert expiry == self.model[(datum, holder)]
            assert self.table.expiry_of(datum, holder) == expiry


TestLeaseTableMachine = LeaseTableMachine.TestCase
TestLeaseTableMachine.settings = settings(
    max_examples=40, stateful_step_count=40, deadline=None
)
