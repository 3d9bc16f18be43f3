"""Unit tests for :class:`~repro.replica.engine.ReplicaEngine`.

Covers the follower/waiting/master state machine, the handoff wait, the
depose-on-expiry rule, and — the ISSUE 10 satellite-1 sweep — the §5
clock-fault discipline: the ``handoff`` and ``master:check`` timers must
re-arm for the remainder when a backward clock step makes them fire
early, never serve early or depose a still-valid master.
"""

import pytest

from repro.clock.sync import safe_waitout
from repro.lease.policy import FixedTermPolicy
from repro.protocol.effects import CancelTimer, Send, SetTimer
from repro.protocol.messages import (
    ApprovalReply,
    NotMaster,
    PrepareRequest,
    ProposeRequest,
    ReadRequest,
    WriteRequest,
)
from repro.replica.engine import (
    FOLLOWER,
    MASTER,
    WAITING,
    ReplicaConfig,
    ReplicaEngine,
    restart_join_delay,
)
from repro.storage.store import FileStore

MASTER_TERM = 2.0
FILE_TERM = 4.0
EPS = 0.1


def solo_config(**kw) -> ReplicaConfig:
    return ReplicaConfig(
        hosts=("r0",),
        index=0,
        master_term=MASTER_TERM,
        max_file_term=FILE_TERM,
        epsilon=EPS,
        drift_bound=0.0,
        **kw,
    )


def make_engine(config=None, now=0.0, history=False) -> ReplicaEngine:
    store = FileStore()
    store.create_file("/doc", b"v1")
    engine = ReplicaEngine(
        "r0", store, FixedTermPolicy(FILE_TERM), config or solo_config(), now=now
    )
    if history:
        # A remembered past accept: elections are then non-virgin and the
        # full handoff wait applies.
        engine.acceptor.ever_accepted = True
    return engine


def timer_keys(effects):
    return [e.key for e in effects if isinstance(e, SetTimer)]


def elect(engine: ReplicaEngine, now: float):
    """Fire the election tick; a solo group elects instantly."""
    return engine.handle_timer("paxos:tick", now)


def keep_lease(engine: ReplicaEngine, until: float) -> None:
    """Stand in for the periodic renewals the election tick performs: the
    handoff wait always exceeds one master term, so a WAITING engine
    renews its lease along the way.  Unit tests that cross the wait
    extend validity directly instead of replaying every tick."""
    engine.proposer.lease_expiry = max(engine.proposer.lease_expiry, until)


class TestElection:
    def test_cold_start_is_virgin_and_serves_immediately(self):
        engine = make_engine()
        elect(engine, now=1.0)
        assert engine.state == MASTER
        assert engine.inner is not None
        assert engine.epoch == 1

    def test_history_forces_the_handoff_wait(self):
        engine = make_engine(history=True)
        effects = elect(engine, now=1.0)
        assert engine.state == WAITING
        assert engine.inner is None
        wait = safe_waitout(MASTER_TERM + FILE_TERM, EPS, 0.0)
        assert engine._serve_at == pytest.approx(1.0 + wait)
        assert "handoff" in timer_keys(effects)

    def test_handoff_fires_and_serves(self):
        engine = make_engine(history=True)
        elect(engine, now=1.0)
        serve_at = engine._serve_at
        keep_lease(engine, serve_at + MASTER_TERM)
        engine.handle_timer("handoff", serve_at)
        assert engine.state == MASTER

    def test_restart_join_delay_covers_master_and_file_terms(self):
        config = solo_config(round_timeout=0.5)
        expected = safe_waitout(MASTER_TERM + FILE_TERM, EPS, 0.0) + 0.5
        assert restart_join_delay(config) == pytest.approx(expected)


class TestClockStepRearm:
    """Satellite 1: backward clock steps must re-arm, not misfire."""

    def test_handoff_firing_early_rearms_for_the_remainder(self):
        """A backward step while ``handoff`` is armed makes it fire with
        ``now < serve_at``; serving then would break the §17 invariant."""
        engine = make_engine(history=True)
        elect(engine, now=10.0)
        serve_at = engine._serve_at
        keep_lease(engine, serve_at + MASTER_TERM)
        early = serve_at - 3.0  # the clock stepped back 3s
        effects = engine.handle_timer("handoff", early)
        assert engine.state == WAITING  # did NOT serve early
        rearmed = [e for e in effects if isinstance(e, SetTimer) and e.key == "handoff"]
        assert len(rearmed) == 1
        assert rearmed[0].delay == pytest.approx(serve_at - early)
        # The eventual on-time firing serves.
        engine.handle_timer("handoff", serve_at + 0.001)
        assert engine.state == MASTER

    def test_master_check_firing_early_rearms_not_deposes(self):
        engine = make_engine()
        elect(engine, now=1.0)
        expiry = engine.proposer.lease_expiry
        early = expiry - 1.0
        effects = engine.handle_timer("master:check", early)
        assert engine.state == MASTER  # still valid: no depose
        rearmed = [
            e for e in effects if isinstance(e, SetTimer) and e.key == "master:check"
        ]
        assert len(rearmed) == 1
        assert rearmed[0].delay == pytest.approx(expiry - early)

    def test_master_check_at_expiry_deposes(self):
        engine = make_engine()
        elect(engine, now=1.0)
        engine.handle_timer("master:check", engine.proposer.lease_expiry + 0.001)
        assert engine.state == FOLLOWER
        assert engine.inner is None

    def test_expiry_check_precedes_every_entry_point(self):
        """A partitioned ex-master must depose before processing anything."""
        engine = make_engine()
        elect(engine, now=1.0)
        datum = engine.store.file_datum("/doc")
        late = engine.proposer.lease_expiry + 0.5
        effects = engine.handle_message(
            ReadRequest(req_id=1, datum=datum), "c0", late
        )
        assert engine.state == FOLLOWER
        # The request was handled as a follower: redirected, not served.
        sends = [e for e in effects if isinstance(e, Send)]
        assert any(isinstance(e.message, NotMaster) for e in sends)


class TestTimersEndWithTheirWait:
    def test_resolved_round_cancels_its_timer(self):
        effects = elect(make_engine(), now=1.0)  # a solo round resolves at once
        round_effects = [
            e for e in effects if getattr(e, "key", None) == "paxos:round"
        ]
        assert round_effects == [
            SetTimer("paxos:round", solo_config().round_timeout),
            CancelTimer("paxos:round"),
        ]

    def test_depose_cancels_round_handoff_and_check(self):
        engine = make_engine(history=True)
        elect(engine, now=1.0)
        assert engine.state == WAITING
        effects = engine.handle_timer("master:check", engine.proposer.lease_expiry)
        assert engine.state == FOLLOWER
        for key in ("paxos:round", "handoff", "master:check"):
            assert CancelTimer(key) in effects


def group(n=3):
    """``n`` replicas over one store; r0's stagger puts its tick first."""
    hosts = tuple(f"r{i}" for i in range(n))
    store = FileStore()
    store.create_file("/doc", b"v1")
    return {
        host: ReplicaEngine(
            host,
            store,
            FixedTermPolicy(FILE_TERM),
            ReplicaConfig(
                hosts=hosts, index=i, master_term=MASTER_TERM,
                max_file_term=FILE_TERM, epsilon=EPS,
            ),
        )
        for i, host in enumerate(hosts)
    }


def deliver(engines, src, effects, now, drop=lambda send: False):
    """Deliver ``src``'s sends and every reply they provoke, all at
    ``now``, except the sends ``drop`` loses."""
    pending = [(src, e) for e in effects if isinstance(e, Send)]
    while pending:
        sender, send = pending.pop(0)
        if drop(send):
            continue
        replies = engines[send.dst].handle_message(send.message, sender, now)
        pending.extend((send.dst, e) for e in replies if isinstance(e, Send))


def sends(effects):
    return [e for e in effects if isinstance(e, Send)]


class TestRenewalResend:
    """A renewal round re-sends its request to unanswered peers at every
    tick, so losing one Paxos leg does not cost the master lease."""

    def test_lost_legs_are_resent_until_the_lease_is_renewed(self):
        engines = group()
        r0 = engines["r0"]
        deliver(engines, "r0", r0.handle_timer("paxos:tick", 0.0), 0.0)
        assert r0.state == MASTER
        expiry = r0.proposer.lease_expiry
        # Renewal starts inside the last half term; every prepare is lost.
        t = expiry - 0.9
        prepare = sends(r0.handle_timer("paxos:tick", t))[0].message
        assert isinstance(prepare, PrepareRequest)
        # The next tick re-sends it to both silent peers, not a new ballot.
        t += 0.25
        resent = sends(r0.handle_timer("paxos:tick", t))
        assert resent == [Send("r1", prepare), Send("r2", prepare)]
        # r1 promises; every proposal and accept is lost.
        deliver(
            engines, "r0", resent, t,
            drop=lambda send: isinstance(send.message, ProposeRequest)
            or send.dst == "r2",
        )
        assert r0.proposer.phase == "proposing"
        t += 0.25
        proposals = sends(r0.handle_timer("paxos:tick", t))
        assert [send.dst for send in proposals] == ["r1", "r2"]
        assert all(isinstance(send.message, ProposeRequest) for send in proposals)
        deliver(engines, "r0", proposals, t, drop=lambda send: send.dst == "r2")
        assert r0.state == MASTER
        assert r0.proposer.lease_expiry > expiry
        assert r0.master_valid(expiry + 0.5)

    def test_answered_peers_are_not_resent_to(self):
        engines = group(n=5)  # a majority is 3: r0 and r1 are not enough
        r0 = engines["r0"]
        prepare = sends(r0.handle_timer("paxos:tick", 0.0))[0].message
        deliver(engines, "r0", [Send("r1", prepare)], 0.0)
        assert r0.proposer.phase == "preparing"
        resent = sends(r0.handle_timer("paxos:tick", 0.25))
        assert resent == [Send(peer, prepare) for peer in ("r2", "r3", "r4")]


class TestClientTraffic:
    def test_follower_redirects_with_hint(self):
        engine = make_engine()
        datum = engine.store.file_datum("/doc")
        engine._believed_master = "r2"
        engine._belief_expiry = 100.0
        effects = engine.handle_message(ReadRequest(req_id=7, datum=datum), "c0", 1.0)
        sends = [e for e in effects if isinstance(e, Send)]
        assert len(sends) == 1
        assert isinstance(sends[0].message, NotMaster)
        assert sends[0].message.master == "r2"
        assert sends[0].message.req_id == 7

    def test_expired_belief_redirects_blank(self):
        engine = make_engine()
        datum = engine.store.file_datum("/doc")
        engine._believed_master = "r2"
        engine._belief_expiry = 0.5
        effects = engine.handle_message(ReadRequest(req_id=7, datum=datum), "c0", 1.0)
        sends = [e for e in effects if isinstance(e, Send)]
        assert sends[0].message.master == ""

    def test_waiting_queues_and_replays_at_serve(self):
        engine = make_engine(history=True)
        elect(engine, now=1.0)
        assert engine.state == WAITING
        datum = engine.store.file_datum("/doc")
        assert engine.handle_message(ReadRequest(req_id=1, datum=datum), "c0", 2.0) == []
        assert engine.status(2.0)["queued"] == 1
        keep_lease(engine, engine._serve_at + MASTER_TERM)
        effects = engine.handle_timer("handoff", engine._serve_at)
        assert engine.state == MASTER
        # The queued read was replayed into the fresh inner engine.
        sends = [e for e in effects if isinstance(e, Send) and e.dst == "c0"]
        assert sends, "queued request must be answered at serve time"

    def test_waiting_queue_is_bounded_drop_oldest(self):
        engine = make_engine(solo_config(queue_limit=2), history=True)
        elect(engine, now=1.0)
        datum = engine.store.file_datum("/doc")
        for req_id in (1, 2, 3):
            engine.handle_message(ReadRequest(req_id=req_id, datum=datum), "c0", 2.0)
        status = engine.status(2.0)
        assert status["queued"] == 2
        assert status["queue_dropped"] == 1
        assert [m.req_id for m, _src in engine._queue] == [2, 3]


class TestInnerTimers:
    def test_deposed_epochs_timers_are_noops(self):
        engine = make_engine()
        elect(engine, now=1.0)
        assert engine.epoch == 1
        engine.handle_timer("master:check", engine.proposer.lease_expiry + 1.0)
        assert engine.state == FOLLOWER
        # A timer from the dead epoch fires harmlessly.
        assert engine.handle_timer("inner:1:sweep", 100.0) == []

    def test_inner_cancel_removes_the_wrapped_timer(self):
        """A cancel from the inner server names the same epoch-prefixed key
        its ``SetTimer`` did, so a write approved early takes its timer
        with it."""
        engine = make_engine()
        elect(engine, now=1.0)
        datum = engine.store.file_datum("/doc")
        engine.handle_message(ReadRequest(req_id=1, datum=datum), "c0", 1.0)
        effects = engine.handle_message(
            WriteRequest(2, datum, b"v2", write_seq=1), "c1", 1.1
        )
        (key,) = [k for k in timer_keys(effects) if ":write:" in k]
        assert key.startswith("inner:1:write:")
        write_id = int(key.rsplit(":", 1)[1])
        effects = engine.handle_message(ApprovalReply(datum, write_id), "c0", 1.2)
        assert CancelTimer(key) in effects

    def test_unknown_timer_raises(self):
        engine = make_engine()
        with pytest.raises(Exception):
            engine.handle_timer("bogus", 1.0)
