"""Sans-io unit tests for the write-back engines (no network)."""

import random

import pytest

from repro.ext.writeback import (
    WriteBackClientConfig,
    WriteBackClientEngine,
    WriteBackServerEngine,
)
from repro.lease.policy import FixedTermPolicy
from repro.obs.bus import TraceBus
from repro.obs.events import LOCAL_HIT
from repro.protocol.client import ClientEngine
from repro.protocol.effects import Broadcast, CancelTimer, Complete, Send, SetTimer
from repro.protocol.messages import (
    ApprovalReply,
    ApprovalRequest,
    BatchRequest,
    ExtendGrant,
    ExtendReply,
    ExtendRequest,
    FlushRequest,
    ReadReply,
    ReadRequest,
    RecallReply,
    RecallRequest,
    RelinquishRequest,
    WriteLeaseReply,
    WriteLeaseRequest,
    WriteReply,
    WriteRequest,
)
from repro.storage.store import FileStore
from repro.types import DatumId


def make_server(term=10.0):
    store = FileStore()
    store.create_file("/f", b"v1")
    engine = WriteBackServerEngine("server", store, FixedTermPolicy(term))
    return engine, store, store.file_datum("/f")


def sends(effects, msg_type):
    return [e for e in effects if isinstance(e, Send) and isinstance(e.message, msg_type)]


def recalls(effects):
    """The recalls among ``effects``: a recall gate asks its one awaited
    holder, the owner, with a one-destination broadcast."""
    return [
        e for e in effects if isinstance(e, Broadcast) and isinstance(e.message, RecallRequest)
    ]


class TestServerEngine:
    def test_grant_when_unshared(self):
        engine, store, datum = make_server()
        effects = engine.handle_message(
            WriteLeaseRequest(1, datum), "c0", now=0.0
        )
        (reply,) = sends(effects, WriteLeaseReply)
        assert reply.message.error is None
        assert reply.message.payload == b"v1"
        assert engine.write_lease_owner(datum) == "c0"

    def test_recall_on_foreign_read(self):
        engine, store, datum = make_server()
        engine.handle_message(WriteLeaseRequest(1, datum), "c0", now=0.0)
        effects = engine.handle_message(ReadRequest(2, datum), "c1", now=1.0)
        # the recall is a write gate: it asks the owner alone, under its
        # write id, and arms its write:<id> timer for the owner's expiry
        (recall,) = recalls(effects)
        assert recall.dsts == ("c0",)
        assert recall.message == RecallRequest(datum, 2)  # the acquisition was 1
        assert SetTimer("write:2", 9.0) in effects
        assert engine.table.write_pending(datum)  # the read waits behind it
        assert not sends(effects, ReadReply)

    def test_recall_reply_commits_dirty_and_flushes_readers(self):
        engine, store, datum = make_server()
        engine.handle_message(WriteLeaseRequest(1, datum), "c0", now=0.0)
        effects = engine.handle_message(ReadRequest(2, datum), "c1", now=1.0)
        (recall,) = recalls(effects)
        effects = engine.handle_message(
            RecallReply(datum, recall.message.recall_id, dirty=b"buffered"), "c0", now=1.1
        )
        assert store.file_at("/f").content == b"buffered"
        assert engine.write_lease_owner(datum) is None
        assert CancelTimer("write:2") in effects  # the timer ends with the wait
        (read_reply,) = sends(effects, ReadReply)
        assert read_reply.dst == "c1" and read_reply.message.version == 2

    def test_stale_recall_reply_ignored(self):
        engine, store, datum = make_server()
        engine.handle_message(WriteLeaseRequest(1, datum), "c0", now=0.0)
        engine.handle_message(ReadRequest(2, datum), "c1", now=1.0)
        assert engine.handle_message(RecallReply(datum, 999, dirty=b"x"), "c0", 1.1) == []
        assert store.file_at("/f").version == 1

    def test_recall_reply_from_non_owner_ignored(self):
        engine, store, datum = make_server()
        engine.handle_message(WriteLeaseRequest(1, datum), "c0", now=0.0)
        effects = engine.handle_message(ReadRequest(2, datum), "c1", now=1.0)
        (recall,) = recalls(effects)
        assert (
            engine.handle_message(
                RecallReply(datum, recall.message.recall_id, dirty=b"x"), "evil", 1.1
            )
            == []
        )
        assert engine.write_lease_owner(datum) == "c0"

    def test_flush_requires_ownership(self):
        engine, store, datum = make_server()
        effects = engine.handle_message(
            FlushRequest(1, datum, b"dirty", write_seq=1), "c0", now=0.0
        )
        (reply,) = sends(effects, WriteReply)
        assert reply.message.error == "write lease lost"

    def test_flush_dedup(self):
        engine, store, datum = make_server()
        engine.handle_message(WriteLeaseRequest(1, datum), "c0", now=0.0)
        engine.handle_message(FlushRequest(2, datum, b"d", write_seq=7), "c0", now=1.0)
        effects = engine.handle_message(
            FlushRequest(3, datum, b"d", write_seq=7), "c0", now=2.0
        )
        (reply,) = sends(effects, WriteReply)
        assert reply.message.version == 2  # replayed, not recommitted
        assert store.file_at("/f").version == 2

    def test_owner_read_served_not_deferred(self):
        engine, store, datum = make_server()
        engine.handle_message(WriteLeaseRequest(1, datum), "c0", now=0.0)
        effects = engine.handle_message(ReadRequest(2, datum), "c0", now=1.0)
        read_replies = [
            e for e in effects if isinstance(e, Send) and e.message.__class__.__name__ == "ReadReply"
        ]
        assert len(read_replies) == 1

    def test_recall_deadline_drops_dirty(self):
        engine, store, datum = make_server()
        engine.handle_message(WriteLeaseRequest(1, datum), "c0", now=0.0)
        effects = engine.handle_message(ReadRequest(2, datum), "c1", now=1.0)
        (timer,) = [e for e in effects if isinstance(e, SetTimer)]
        assert (timer.key, timer.delay) == ("write:2", 9.0)
        effects = engine.handle_timer(timer.key, now=1.0 + timer.delay)
        assert engine.write_lease_owner(datum) is None
        assert store.file_at("/f").version == 1  # nothing committed
        (read_reply,) = sends(effects, ReadReply)
        assert read_reply.dst == "c1" and read_reply.message.version == 1


class SettableTerm:
    """A policy whose term the test changes between requests."""

    reads_stats = False

    def __init__(self, seconds):
        self.seconds = seconds

    def term(self, datum, client, now, stats=None, file_class=None):
        return self.seconds

    def longest_term(self):
        return self.seconds


def renew_by_request(engine, datum, now):
    (reply,) = sends(engine.handle_message(WriteLeaseRequest(9, datum), "c0", now), WriteLeaseReply)
    assert reply.message.error is None


RENEWALS = [
    pytest.param(renew_by_request, id="write-lease-request"),
]


class TestRenewal:
    """The owner's write lease is renewed by re-requesting it, through
    ``LeaseTable.grant`` and so under its starvation guard.  A flush
    renews nothing: the server would not tell the client, so a longer
    stored expiry would only make everyone else wait longer."""

    @pytest.mark.parametrize("renew", RENEWALS)
    def test_renewal_extends_the_stored_expiry(self, renew):
        engine, _, datum = make_server(term=10.0)
        engine.handle_message(WriteLeaseRequest(1, datum), "c0", now=0.0)
        assert engine.table.expiry_of(datum, "c0") == 10.0
        renew(engine, datum, 4.0)
        assert engine.table.expiry_of(datum, "c0") == 14.0
        assert engine.table.live_holders(datum, 12.0) == {"c0"}

    @pytest.mark.parametrize("renew", RENEWALS)
    def test_a_longer_renewal_raises_the_crash_bound(self, renew):
        """§2's crash rule: the restarted server must wait out the
        longest lease it may have granted, renewals included."""
        store = FileStore()
        store.create_file("/f", b"v1")
        datum = store.file_datum("/f")
        policy = SettableTerm(10.0)
        engine = WriteBackServerEngine("server", store, policy)
        engine.handle_message(WriteLeaseRequest(1, datum), "c0", now=0.0)
        policy.seconds = 50.0
        renew(engine, datum, 1.0)
        assert engine.table.expiry_of(datum, "c0") == 51.0
        assert engine.crash() >= 50.0

    def test_a_flush_leaves_the_stored_expiry(self):
        engine, store, datum = make_server(term=10.0)
        engine.handle_message(WriteLeaseRequest(1, datum), "c0", now=0.0)
        flush = FlushRequest(9, datum, b"flushed", write_seq=1)
        (reply,) = sends(engine.handle_message(flush, "c0", now=4.0), WriteReply)
        assert reply.message.version == 2 and store.file_at("/f").content == b"flushed"
        assert engine.table.expiry_of(datum, "c0") == 10.0

    def test_renewal_refused_while_a_recall_waits(self):
        """Once a gate waits on the datum the owner may not renew, so the
        recall's deadline stands; the owner's flushes still commit."""
        engine, store, datum = make_server(term=10.0)
        engine.handle_message(WriteLeaseRequest(1, datum), "c0", now=0.0)
        (recall,) = recalls(engine.handle_message(ReadRequest(2, datum), "c1", now=1.0))
        effects = engine.handle_message(WriteLeaseRequest(3, datum), "c0", now=2.0)
        (reply,) = sends(effects, WriteLeaseReply)
        assert reply.message.error == "lease being recalled"
        assert engine.table.expiry_of(datum, "c0") == 10.0
        flush = FlushRequest(4, datum, b"flushed", write_seq=1)
        (flushed,) = sends(engine.handle_message(flush, "c0", now=3.0), WriteReply)
        assert flushed.message.version == 2
        assert engine.table.expiry_of(datum, "c0") == 10.0
        effects = engine.handle_timer(f"write:{recall.message.recall_id}", now=10.0)
        (answer,) = sends(effects, ReadReply)
        assert answer.dst == "c1" and answer.message.payload == b"flushed"


class TestForeignRequests:
    """Every request from anyone but the owner waits behind the recall —
    whether it arrives alone, inside a batch or replayed from the deferred
    queue — and nothing commits until the owner surrenders or its lease
    runs out."""

    def owned(self):
        engine, store, datum = make_server(term=10.0)
        store.create_file("/g", b"g1")
        engine.handle_message(WriteLeaseRequest(1, datum), "c0", now=0.0)
        return engine, store, datum, store.file_datum("/g")

    def test_batched_foreign_write_commits_after_the_surrender(self):
        engine, store, datum, other = self.owned()
        batch = BatchRequest(
            1, (WriteRequest(2, datum, b"b-write", write_seq=1), ReadRequest(3, other))
        )
        effects = engine.handle_message(batch, "c1", now=1.0)
        (recall,) = recalls(effects)
        assert recall.dsts == ("c0",)
        assert not sends(effects, WriteReply)
        assert store.file_at("/f").version == 1  # the owner still holds its lease
        surrender = RecallReply(datum, recall.message.recall_id, dirty=b"a-dirty")
        effects = engine.handle_message(surrender, "c0", now=1.1)
        (reply,) = sends(effects, WriteReply)
        assert reply.dst == "c1" and reply.message.version == 3
        assert store.file_at("/f").content == b"b-write"
        # the owner's late flush is refused, not committed over it
        flush = FlushRequest(9, datum, b"a-dirty", write_seq=1)
        (refused,) = sends(engine.handle_message(flush, "c0", now=1.2), WriteReply)
        assert refused.message.error == "write lease lost"
        assert store.file_at("/f").content == b"b-write"

    def test_foreign_write_waits_out_a_silent_owner(self):
        engine, store, datum, _ = self.owned()
        effects = engine.handle_message(
            WriteRequest(2, datum, b"b-write", write_seq=1), "c1", now=1.0
        )
        assert not [e for e in effects if isinstance(e, Broadcast)
                    and isinstance(e.message, ApprovalRequest)]
        (recall,) = recalls(effects)
        key = f"write:{recall.message.recall_id}"
        assert SetTimer(key, 9.0) in effects
        assert not sends(engine.handle_timer(key, now=5.0), WriteReply)  # early
        (reply,) = sends(engine.handle_timer(key, now=10.0), WriteReply)
        assert reply.message.version == 2 and engine.write_lease_owner(datum) is None

    def test_later_requests_wait_behind_the_one_recall(self):
        engine, store, datum, _ = self.owned()
        first = engine.handle_message(ReadRequest(2, datum), "c1", now=1.0)
        assert len(recalls(first)) == 1
        assert engine.handle_message(ExtendRequest(3, ((datum, 1),)), "c2", now=1.1) == [
            Send("c2", ExtendReply(3, (), (datum,)))
        ]
        assert engine.handle_message(WriteLeaseRequest(4, datum), "c3", now=1.2) == []

    def test_the_recall_asks_the_owner_alone(self):
        """A reader that approved the acquisition keeps its lease record
        until it runs out; it has nothing to surrender, so the recall
        neither asks nor waits for it."""
        engine, store, datum = make_server(term=10.0)
        engine.handle_message(ReadRequest(1, datum), "c5", now=0.0)
        engine.handle_message(WriteLeaseRequest(2, datum), "c0", now=1.0)
        effects = engine.handle_message(ApprovalReply(datum, 1), "c5", now=1.1)
        assert sends(effects, WriteLeaseReply)
        assert engine.table.live_holders(datum, 2.0) == {"c0", "c5"}
        effects = engine.handle_message(ReadRequest(3, datum), "c1", now=2.0)
        (recall,) = recalls(effects)
        assert recall.dsts == ("c0",)
        assert SetTimer(f"write:{recall.message.recall_id}", 9.1) in effects
        effects = engine.handle_message(
            RecallReply(datum, recall.message.recall_id, dirty=None), "c0", now=2.1
        )
        (answer,) = sends(effects, ReadReply)
        assert answer.dst == "c1" and answer.message.version == 1

    def test_owner_extend_of_its_owned_datum_is_denied(self):
        engine, _, datum, _ = self.owned()
        effects = engine.handle_message(ExtendRequest(2, ((datum, 1),)), "c0", now=1.0)
        assert effects == [Send("c0", ExtendReply(2, (), (datum,)))]
        assert engine.table.expiry_of(datum, "c0") == 10.0


class TestNonFileDatums:
    """A write lease and a flush are refused on a directory, as a write is:
    a namespace op would never recall it."""

    def test_write_lease_on_a_directory_is_refused(self):
        engine, store, _ = make_server()
        directory = DatumId.directory(store.namespace.parent_dir_id("/f"))
        (reply,) = sends(
            engine.handle_message(WriteLeaseRequest(1, directory), "c0", now=0.0),
            WriteLeaseReply,
        )
        assert reply.message.error == "not a file datum"
        assert engine.write_lease_owner(directory) is None

    def test_flush_on_a_directory_is_refused(self):
        engine, store, _ = make_server()
        directory = DatumId.directory(store.namespace.parent_dir_id("/f"))
        flush = FlushRequest(1, directory, b"x", write_seq=1)
        (reply,) = sends(engine.handle_message(flush, "c0", now=0.0), WriteReply)
        assert reply.message.error == "not a file datum"



class TestAcquisitionGate:
    """Acquiring a write lease over read leases is the server's one write
    gate with a grant for an ending (``repro.protocol.server._Gate``):
    its timer follows its deadline like any write's.  At the parent the
    gate had its own timer handler with no re-arm, so a timer fired early
    (backward clock step) or a relinquish left the datum ``write_pending``
    for good."""

    def gated(self, *reader_times):
        """Readers c0, c1, ... lease at the given times; c9 asks at t=5."""
        engine, store, datum = make_server(term=10.0)
        for i, t in enumerate(reader_times):
            engine.handle_message(ReadRequest(1, datum), f"c{i}", now=t)
        effects = engine.handle_message(WriteLeaseRequest(2, datum), "c9", now=5.0)
        (timer,) = [e for e in effects if isinstance(e, SetTimer)]
        return engine, datum, effects, timer

    def test_gate_asks_readers_and_announces_the_current_version(self):
        engine, datum, effects, timer = self.gated(0.0)
        (ask,) = [e for e in effects if isinstance(e, Broadcast)]
        assert ask.dsts == ("c0",)
        assert ask.message == ApprovalRequest(datum, 1, 1)  # nothing is committed
        assert (timer.key, timer.delay) == ("write:1", 5.0)

    def test_timer_fired_early_is_rearmed_for_the_remainder(self):
        engine, datum, _, timer = self.gated(0.0)
        assert engine.handle_timer(timer.key, now=7.0) == [SetTimer(timer.key, 3.0)]

    def test_silent_reader_delays_the_grant_one_term(self):
        engine, datum, _, timer = self.gated(0.0)
        assert engine.handle_message(ReadRequest(3, datum), "c2", now=6.0) == []
        (timer,) = engine.handle_timer(timer.key, now=7.0)  # early: re-armed
        effects = engine.handle_timer(timer.key, now=7.0 + timer.delay)
        (reply,) = sends(effects, WriteLeaseReply)
        assert reply.dst == "c9" and reply.message.error is None
        assert engine.write_lease_owner(datum) == "c9"
        # the third party's read went behind the gate; replayed at the
        # grant, it recalls the new owner at once (no retransmission)
        (recall,) = recalls(effects)
        assert recall.dsts == ("c9",)
        assert engine.table.write_pending(datum)
        effects = engine.handle_message(
            RecallReply(datum, recall.message.recall_id, dirty=b"v2"), "c9", now=10.1
        )
        (answer,) = sends(effects, ReadReply)
        assert answer.dst == "c2" and answer.message.version == 2

    def test_relinquish_by_the_longest_holder_shortens_the_wait(self):
        engine, datum, _, timer = self.gated(0.0, 4.0)  # leases to 10 and 14
        assert timer.delay == 9.0
        effects = engine.handle_message(RelinquishRequest((datum,)), "c1", now=5.5)
        assert effects == [SetTimer(timer.key, 4.5)]
        assert sends(engine.handle_timer(timer.key, now=10.0), WriteLeaseReply)

    def test_early_approvals_leave_no_armed_timer(self):
        """The gate's timer ends with its wait: once every reader has
        approved, the grant cancels ``write:<id>`` instead of leaving it
        armed until the old deadline a term away."""
        engine, datum, effects, timer = self.gated(0.0, 4.0)
        armed = {timer.key}
        for holder, now in (("c0", 5.1), ("c1", 5.2)):
            effects = engine.handle_message(ApprovalReply(datum, 1), holder, now=now)
            for effect in effects:
                if isinstance(effect, SetTimer):
                    armed.add(effect.key)
                elif isinstance(effect, CancelTimer):
                    armed.discard(effect.key)
        assert sends(effects, WriteLeaseReply)
        assert not [key for key in armed if key.startswith("write:")]

    def test_write_queued_behind_the_gate_runs_first(self):
        engine, store, datum = make_server(term=10.0)
        engine.handle_message(ReadRequest(1, datum), "c0", now=0.0)
        engine.handle_message(WriteLeaseRequest(2, datum), "c9", now=5.0)
        assert engine.handle_message(
            WriteRequest(3, datum, b"v2", write_seq=1), "c1", now=5.1
        ) == []
        effects = engine.handle_message(ApprovalReply(datum, 1), "c0", now=5.2)
        assert not sends(effects, WriteLeaseReply)  # re-deferred behind the write
        effects = engine.handle_message(ApprovalReply(datum, 2), "c0", now=5.3)
        assert sends(effects, WriteReply)[0].message.version == 2
        # ... and retried once the datum drains: c0's lease is still live
        (ask,) = [e for e in effects if isinstance(e, Broadcast)]
        effects = engine.handle_message(
            ApprovalReply(datum, ask.message.write_id), "c0", now=5.4
        )
        (reply,) = sends(effects, WriteLeaseReply)
        assert reply.message.version == 2


class TestClientEngine:
    def make_client(self, **kwargs):
        config = WriteBackClientConfig(epsilon=0.0, **kwargs)
        return WriteBackClientEngine("c0", "server", config=config)

    def grant(self, client, datum, now=0.0, term=10.0):
        op_id, effects = client.acquire_write(datum, now)
        (send,) = [e for e in effects if isinstance(e, Send)]
        reply = WriteLeaseReply(
            send.message.req_id, datum, version=1, payload=b"v1", term=term
        )
        client.handle_message(reply, "server", now)
        return op_id

    def test_acquire_records_lease(self):
        from repro.types import DatumId

        datum = DatumId.file("f")
        client = self.make_client()
        self.grant(client, datum)
        assert client.holds_write_lease(datum, 5.0)
        assert not client.holds_write_lease(datum, 15.0)

    def test_local_write_buffers_and_completes_instantly(self):
        from repro.types import DatumId

        datum = DatumId.file("f")
        client = self.make_client()
        self.grant(client, datum)
        op_id, effects = client.local_write(datum, b"draft", now=1.0)
        assert isinstance(effects[0], Complete) and effects[0].ok
        assert client.dirty_datums() == {datum}

    def test_recall_surrenders_dirty(self):
        from repro.types import DatumId

        datum = DatumId.file("f")
        client = self.make_client()
        self.grant(client, datum)
        client.local_write(datum, b"draft", now=1.0)
        effects = client.handle_message(RecallRequest(datum, 5), "server", 2.0)
        (send,) = [e for e in effects if isinstance(e, Send)]
        assert send.message.dirty == b"draft"
        assert not client.holds_write_lease(datum, 2.1)
        assert not client.dirty_datums()

    def test_leadership_mode_ignores_recall(self):
        from repro.types import DatumId

        datum = DatumId.file("f")
        client = self.make_client(surrender_on_recall=False)
        self.grant(client, datum)
        client.local_write(datum, b"draft", now=1.0)
        assert client.handle_message(RecallRequest(datum, 5), "server", 2.0) == []
        assert client.holds_write_lease(datum, 2.1)
        assert client.dirty_datums() == {datum}

    def test_background_flush_timer(self):
        from repro.types import DatumId

        datum = DatumId.file("f")
        client = self.make_client(flush_margin=8.0)
        self.grant(client, datum, term=10.0)
        client.local_write(datum, b"draft", now=1.0)
        effects = client.handle_timer("wbflush", now=3.0)  # expiry-3 < margin
        flushes = [e for e in effects if isinstance(e, Send)]
        assert flushes and isinstance(flushes[0].message, FlushRequest)


class TestLocalHits:
    """Every read served locally is one counter tick, one ``read.local_hit``
    event and one LRU touch, whichever lease made it a hit.  (The owned-
    datum hits used to ``peek``: counted, but invisible to the trace and
    to the LRU, so a hot file under a write lease was the eviction victim.)"""

    DATUMS = [DatumId.file(f"f{i}") for i in range(5)]

    def answer(self, client, effects, now, versions):
        """Play the server for every request among ``effects`` (and for
        whatever its replies make the client send next)."""
        requests = [e.message for e in effects if isinstance(e, Send)]
        while requests:
            msg = requests.pop(0)
            if isinstance(msg, (WriteRequest, FlushRequest)):
                versions[msg.datum] = versions.get(msg.datum, 1) + 1
                reply = WriteReply(msg.req_id, msg.datum, version=versions[msg.datum])
            elif isinstance(msg, WriteLeaseRequest):
                reply = WriteLeaseReply(
                    msg.req_id, msg.datum, version=versions.get(msg.datum, 1),
                    payload=b"served", term=40.0,
                )
            elif isinstance(msg, ExtendRequest):
                reply = ExtendReply(msg.req_id, grants=tuple(
                    ExtendGrant(d, 40.0, versions.get(d, 1), payload=b"served", changed=True)
                    for d, _ in msg.items
                ))
            else:
                assert isinstance(msg, ReadRequest)
                reply = ReadReply(
                    msg.req_id, msg.datum, version=versions.get(msg.datum, 1),
                    payload=b"served", term=40.0,
                )
            more = client.handle_message(reply, "server", now)
            requests.extend(e.message for e in more if isinstance(e, Send))

    @pytest.mark.parametrize("engine_cls", [ClientEngine, WriteBackClientEngine])
    def test_every_local_hit_is_one_event(self, engine_cls):
        rng = random.Random(24)
        bus = TraceBus(capacity=None)
        client = engine_cls(
            "c0", "server", obs=bus,
            config=WriteBackClientConfig(epsilon=0.0, cache_capacity=3),
        )
        write_back = engine_cls is WriteBackClientEngine
        versions: dict = {}
        touched = 0  # hits that found the entry resident (not the dirty-bytes fallback)
        for step in range(600):
            now = step * 0.25  # leases (40 s) expire and are renewed along the way
            datum = rng.choice(self.DATUMS)
            if rng.random() < 0.8:
                entry = client.cache.peek(datum)
                _, effects = client.read(datum, now)
                hit = len(effects) == 1 and isinstance(effects[0], Complete)
                touched += hit and entry is not None and entry.valid
            elif not write_back:
                _, effects = client.write(datum, b"through", now)
            elif client.holds_write_lease(datum, now):
                _, effects = client.local_write(datum, b"dirty%d" % step, now)
            else:
                _, effects = client.acquire_write(datum, now)
            self.answer(client, effects, now, versions)
        assert client.metrics.local_hits > 100
        assert len(bus.events(LOCAL_HIT)) == client.metrics.local_hits
        assert client.cache.stats.hits == touched
        # Only an owner has the fallback, and the sequence reaches it.
        assert (client.metrics.local_hits > touched) == write_back

    def test_a_hot_owned_file_is_not_the_eviction_victim(self):
        hot, cold, colder = self.DATUMS[:3]
        client = WriteBackClientEngine(
            "c0", "server", config=WriteBackClientConfig(epsilon=0.0, cache_capacity=2)
        )
        versions: dict = {}
        self.answer(client, client.acquire_write(hot, 0.0)[1], 0.0, versions)
        client.local_write(hot, b"draft", 1.0)
        self.answer(client, client.read(cold, 2.0)[1], 2.0, versions)
        for now in (3.0, 4.0, 5.0):  # read again and again: the most recent entry
            _, (done,) = client.read(hot, now)
            assert done == Complete(done.op_id, True, (1, b"draft"))
        self.answer(client, client.read(colder, 6.0)[1], 6.0, versions)
        assert hot in client.cache and colder in client.cache and cold not in client.cache
        assert client.cache.stats.hits == 3 == client.metrics.local_hits

    def test_evicted_but_dirty_bytes_are_a_counted_visible_hit(self):
        owned, *others = self.DATUMS[:3]
        bus = TraceBus(capacity=None)
        client = WriteBackClientEngine(
            "c0", "server", obs=bus,
            config=WriteBackClientConfig(epsilon=0.0, cache_capacity=2),
        )
        versions: dict = {}
        self.answer(client, client.acquire_write(owned, 0.0)[1], 0.0, versions)
        client.local_write(owned, b"draft", 1.0)
        for now, other in enumerate(others, start=2):
            self.answer(client, client.read(other, float(now))[1], float(now), versions)
        assert owned not in client.cache  # the LRU took the copy, not the bytes
        op_id, effects = client.read(owned, 5.0)
        assert effects == [Complete(op_id, True, (0, b"draft"))]
        assert client.metrics.local_hits == 1 == len(bus.events(LOCAL_HIT))
        assert client.cache.stats.misses == 1 and not client._ops
