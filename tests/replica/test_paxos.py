"""Unit tests for the sans-io PaxosLease acceptor/proposer pair."""

import pytest

from repro.clock.sync import safe_local_expiry
from repro.protocol.messages import PrepareRequest, ProposeRequest
from repro.replica.paxos import (
    BACKOFF,
    ELECTED,
    NONE,
    PROPOSE,
    Acceptor,
    Proposer,
    ballot_number,
)


class TestBallotNumber:
    def test_unique_across_proposers_and_rounds(self):
        n = 3
        seen = set()
        for round_ in range(10):
            for idx in range(n):
                b = ballot_number(round_, idx, n)
                assert b not in seen
                assert b > 0
                seen.add(b)

    def test_strictly_increasing_per_proposer(self):
        for idx in range(3):
            ballots = [ballot_number(r, idx, 3) for r in range(5)]
            assert ballots == sorted(ballots)
            assert len(set(ballots)) == len(ballots)


class TestAcceptor:
    def test_promise_and_reject_lower(self):
        a = Acceptor()
        assert a.on_prepare(PrepareRequest(ballot=5), now=0.0).promised
        assert not a.on_prepare(PrepareRequest(ballot=3), now=0.0).promised
        assert a.promised_ballot == 5

    def test_equal_ballot_repromises(self):
        """Retransmitted prepares are idempotent (ballots are per-proposer
        unique, so an equal ballot is the same proposer asking again)."""
        a = Acceptor()
        assert a.on_prepare(PrepareRequest(ballot=5), now=0.0).promised
        assert a.on_prepare(PrepareRequest(ballot=5), now=1.0).promised

    def test_accepted_lease_expires_on_local_clock(self):
        a = Acceptor()
        a.on_prepare(PrepareRequest(ballot=5), now=0.0)
        reply = a.on_propose(ProposeRequest(ballot=5, holder="r1", term=2.0), now=0.0)
        assert reply.accepted
        assert a.accepted_remaining(1.0) == pytest.approx(1.0)
        assert a.accepted_remaining(2.0) == 0.0
        assert a.accepted_holder is None  # forgotten, diskless
        # ...but the sticky history bit survives expiry.
        assert a.ever_accepted

    def test_propose_below_promise_rejected(self):
        a = Acceptor()
        a.on_prepare(PrepareRequest(ballot=9), now=0.0)
        reply = a.on_propose(ProposeRequest(ballot=4, holder="r0", term=2.0), now=0.0)
        assert not reply.accepted
        assert not a.ever_accepted

    def test_prepare_reports_remaining_validity_as_duration(self):
        a = Acceptor()
        a.on_prepare(PrepareRequest(ballot=1), now=0.0)
        a.on_propose(ProposeRequest(ballot=1, holder="r0", term=4.0), now=0.0)
        reply = a.on_prepare(PrepareRequest(ballot=7), now=1.5)
        assert reply.promised
        assert reply.accepted_holder == "r0"
        assert reply.accepted_expires_in == pytest.approx(2.5)


def make_proposer(index=0, n=3, term=2.0, **kw):
    return Proposer(f"r{index}", index, n, term, **kw)


class TestProposer:
    def test_clean_room_round_elects(self):
        p = make_proposer()
        prepare = p.start_round(now=0.0)
        a0, a1 = Acceptor(), Acceptor()
        out = p.on_prepare_reply("r0", a0.on_prepare(prepare, 0.0), 0.0)
        assert out.kind == NONE
        out = p.on_prepare_reply("r1", a1.on_prepare(prepare, 0.0), 0.0)
        assert out.kind == PROPOSE
        propose = out.message
        assert propose.holder == "r0" and propose.term == 2.0
        out = p.on_propose_reply("r0", a0.on_propose(propose, 0.0), 0.0)
        assert out.kind == NONE
        out = p.on_propose_reply("r1", a1.on_propose(propose, 0.0), 0.0)
        assert out.kind == ELECTED
        assert out.virgin  # nobody had ever accepted anything
        assert p.holds_lease(0.1)

    def test_validity_anchored_at_round_start_and_shrunk(self):
        p = make_proposer(term=2.0, epsilon=0.1, drift_bound=0.05)
        prepare = p.start_round(now=10.0)
        a0, a1 = Acceptor(), Acceptor()
        p.on_prepare_reply("r0", a0.on_prepare(prepare, 10.0), 10.2)
        out = p.on_prepare_reply("r1", a1.on_prepare(prepare, 10.2), 10.4)
        propose = out.message
        out = p.on_propose_reply("r0", a0.on_propose(propose, 10.4), 10.6)
        out = p.on_propose_reply("r1", a1.on_propose(propose, 10.6), 10.8)
        assert out.kind == ELECTED
        # Anchor is the round *start* (10.0), not the accept-majority time.
        assert out.expiry == pytest.approx(
            safe_local_expiry(10.0, 2.0, 0.1, 0.05)
        )

    def test_live_foreign_lease_forces_backoff(self):
        """The intersection argument: never compete with an unexpired
        holder reported by any counted promise."""
        p = make_proposer(index=1)
        holder_acceptor = Acceptor()
        holder_acceptor.on_prepare(PrepareRequest(ballot=1), 0.0)
        holder_acceptor.on_propose(
            ProposeRequest(ballot=1, holder="r0", term=5.0), 0.0
        )
        prepare = p.start_round(now=1.0)
        fresh = Acceptor()
        out = p.on_prepare_reply("a", fresh.on_prepare(prepare, 1.0), 1.0)
        assert out.kind == NONE
        out = p.on_prepare_reply("b", holder_acceptor.on_prepare(prepare, 1.0), 1.0)
        assert out.kind == BACKOFF
        assert out.retry_after == pytest.approx(4.0)
        assert p.phase == "idle"

    def test_non_virgin_when_any_promise_reports_history(self):
        """An expired-but-remembered lease kills the cold-start fast path."""
        p = make_proposer()
        veteran = Acceptor()
        veteran.on_prepare(PrepareRequest(ballot=1), 0.0)
        veteran.on_propose(ProposeRequest(ballot=1, holder="r9", term=0.5), 0.0)
        prepare = p.start_round(now=10.0)  # old lease long expired
        fresh = Acceptor()
        out = p.on_prepare_reply("a", fresh.on_prepare(prepare, 10.0), 10.0)
        out = p.on_prepare_reply("b", veteran.on_prepare(prepare, 10.0), 10.0)
        assert out.kind == PROPOSE  # expired lease: no backoff...
        propose = out.message
        a0, a1 = Acceptor(), Acceptor()
        p.on_propose_reply("a", a0.on_propose(propose, 10.0), 10.0)
        out2 = p.on_propose_reply("b", a1.on_propose(propose, 10.0), 10.0)
        assert out2.kind == ELECTED
        assert not out2.virgin  # ...but the history forbids skipping the wait

    def test_refused_promise_aborts_the_round(self):
        p = make_proposer()
        prepare = p.start_round(now=0.0)
        rival = Acceptor()
        rival.on_prepare(PrepareRequest(ballot=prepare.ballot + 10), 0.0)
        out = p.on_prepare_reply("a", rival.on_prepare(prepare, 0.0), 0.0)
        assert out.kind == BACKOFF
        assert p.phase == "idle"

    def test_stale_and_duplicate_replies_ignored(self):
        p = make_proposer()
        prepare1 = p.start_round(now=0.0)
        a = Acceptor()
        stale = a.on_prepare(prepare1, 0.0)
        p.abort_round()
        prepare2 = p.start_round(now=1.0)
        assert p.on_prepare_reply("a", stale, 1.0).kind == NONE  # old ballot
        reply = a.on_prepare(prepare2, 1.0)
        out = p.on_prepare_reply("a", reply, 1.0)
        assert out.kind == NONE
        # The same acceptor's duplicate promise does not count twice.
        out = p.on_prepare_reply("a", reply, 1.0)
        assert out.kind == NONE

    def test_in_flight_names_the_request_and_who_answered(self):
        p = make_proposer()
        prepare = p.start_round(now=0.0)
        a0, a1 = Acceptor(), Acceptor()
        p.on_prepare_reply("r0", a0.on_prepare(prepare, 0.0), 0.0)
        assert p.in_flight() == (prepare, {"r0"})
        propose = p.on_prepare_reply("r1", a1.on_prepare(prepare, 0.0), 0.0).message
        p.on_propose_reply("r0", a0.on_propose(propose, 0.0), 0.0)
        assert p.in_flight() == (propose, {"r0"})
        # A re-sent proposal is re-accepted, from the later receive.
        a1.on_propose(propose, 0.0)
        assert a1.on_propose(propose, 0.3).accepted
        assert a1.accepted_expiry == 0.3 + propose.term

    def test_bad_index_rejected(self):
        with pytest.raises(ValueError):
            Proposer("r9", 9, 3, 2.0)

    def test_majority_is_strict(self):
        assert make_proposer(n=3).majority == 2
        assert make_proposer(n=5).majority == 3
        assert Proposer("r0", 0, 1, 2.0).majority == 1
