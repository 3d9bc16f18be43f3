"""Robustness fuzzing of the sans-io engines.

Feeds randomized (but type-correct) message and timer sequences into the
server and client engines.  The engines must never raise unexpectedly,
must only emit well-formed effects, and the server's lease table must
keep its invariants.  A production server faces misbehaving or ancient
clients; "errors should never pass silently" but garbage must not crash
the process either.
"""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ReproError
from repro.lease.policy import FixedTermPolicy
from repro.protocol.client import ClientConfig, ClientEngine
from repro.protocol.effects import Broadcast, CancelTimer, Complete, Send, SetTimer
from repro.protocol.messages import (
    ApprovalReply,
    ApprovalRequest,
    ExtendGrant,
    ExtendReply,
    ExtendRequest,
    InstalledAnnounce,
    ReadReply,
    ReadRequest,
    WriteReply,
    WriteRequest,
)
from repro.protocol.server import ServerEngine
from repro.storage.store import FileStore
from repro.types import DatumId

DATUMS = st.builds(
    DatumId.file, st.sampled_from(["file:1", "file:2", "file:999"])
)
CLIENTS = st.sampled_from(["c0", "c1", "c2", "evil"])
REQ_IDS = st.integers(0, 50)
VERSIONS = st.integers(0, 10)
TERMS = st.one_of(st.floats(0, 60), st.just(math.inf))


def server_messages():
    return st.one_of(
        st.builds(ReadRequest, REQ_IDS, DATUMS, st.one_of(st.none(), VERSIONS)),
        st.builds(
            ExtendRequest,
            REQ_IDS,
            st.lists(st.tuples(DATUMS, VERSIONS), max_size=3).map(tuple),
        ),
        st.builds(
            WriteRequest, REQ_IDS, DATUMS, st.binary(max_size=8), st.integers(0, 20)
        ),
        st.builds(ApprovalReply, DATUMS, st.integers(0, 20)),
    )


def client_messages():
    grant = st.builds(
        ExtendGrant,
        DATUMS,
        TERMS,
        VERSIONS,
        st.one_of(st.none(), st.binary(max_size=8)),
        st.booleans(),
    )
    return st.one_of(
        st.builds(
            ReadReply,
            REQ_IDS,
            DATUMS,
            VERSIONS,
            st.one_of(st.none(), st.binary(max_size=8)),
            TERMS,
            st.one_of(st.none(), st.just("cover:x")),
            st.one_of(st.none(), st.just("boom")),
        ),
        st.builds(ExtendReply, REQ_IDS, st.lists(grant, max_size=3).map(tuple),
                  st.lists(DATUMS, max_size=2).map(tuple)),
        st.builds(WriteReply, REQ_IDS, DATUMS, VERSIONS,
                  st.one_of(st.none(), st.just("fail"))),
        st.builds(ApprovalRequest, DATUMS, st.integers(0, 20), VERSIONS),
        st.builds(InstalledAnnounce, st.lists(st.just("cover:x"), max_size=2).map(tuple),
                  st.floats(0, 60), st.integers(0, 5)),
    )


def well_formed(effects):
    for effect in effects:
        assert isinstance(effect, (Send, Broadcast, SetTimer, CancelTimer, Complete)), effect
        if isinstance(effect, SetTimer):
            assert effect.delay >= 0 or math.isinf(effect.delay)


class TestServerFuzz:
    @settings(max_examples=60, deadline=None)
    @given(
        steps=st.lists(
            st.tuples(server_messages(), CLIENTS, st.floats(0, 5)), max_size=30
        )
    )
    def test_random_message_storm(self, steps):
        """Any sequence of type-correct messages: no unexpected exceptions,
        well-formed effects, coherent lease table."""
        store = FileStore()
        store.create_file("/a", b"a")  # file:1
        store.create_file("/b", b"b")  # file:2
        engine = ServerEngine("server", store, FixedTermPolicy(10.0))
        now = 0.0
        for msg, src, advance in steps:
            now += advance
            well_formed(engine.handle_message(msg, src, now))
        # table invariants: every live holder's lease really is valid
        for datum in (DatumId.file("file:1"), DatumId.file("file:2")):
            for holder in engine.table.live_holders(datum, now):
                assert now < engine.table.expiry_of(datum, holder)

    @settings(max_examples=30, deadline=None)
    @given(
        steps=st.lists(
            st.tuples(server_messages(), CLIENTS, st.floats(0, 5)), max_size=20
        ),
        timer_picks=st.lists(st.integers(0, 100), max_size=10),
    )
    def test_timer_replay_storm(self, steps, timer_picks):
        """Firing armed timers in arbitrary order must stay safe."""
        store = FileStore()
        store.create_file("/a", b"a")
        store.create_file("/b", b"b")
        engine = ServerEngine("server", store, FixedTermPolicy(5.0))
        now = 0.0
        armed = []
        for msg, src, advance in steps:
            now += advance
            for effect in engine.handle_message(msg, src, now):
                if isinstance(effect, SetTimer):
                    armed.append(effect.key)
        for pick in timer_picks:
            if not armed:
                break
            key = armed[pick % len(armed)]
            now += 1.0
            well_formed(engine.handle_timer(key, now))

    def test_unknown_timer_raises_cleanly(self):
        store = FileStore()
        engine = ServerEngine("server", store, FixedTermPolicy(1.0))
        try:
            engine.handle_timer("bogus-timer", 0.0)
        except ReproError:
            pass
        else:
            raise AssertionError("expected ReproError")


class TestClientFuzz:
    @settings(max_examples=60, deadline=None)
    @given(
        ops=st.lists(
            st.one_of(
                st.tuples(st.just("read"), DATUMS),
                st.tuples(st.just("write"), DATUMS),
            ),
            max_size=6,
        ),
        replies=st.lists(st.tuples(client_messages(), st.floats(0, 5)), max_size=30),
    )
    def test_random_reply_storm(self, ops, replies):
        """A hostile or confused server: stale req_ids, errors, infinite
        terms, bogus covers — the client must absorb it all."""
        client = ClientEngine("c0", "server", config=ClientConfig(epsilon=0.0))
        now = 0.0
        for kind, datum in ops:
            if kind == "read":
                client.read(datum, now)
            else:
                client.write(datum, b"x", now)
        for msg, advance in replies:
            now += advance
            well_formed(client.handle_message(msg, "server", now))
        # invariant: no operation both completed and still pending
        assert client.outstanding_requests() >= 0

    @settings(max_examples=40, deadline=None)
    @given(
        replies=st.lists(st.tuples(client_messages(), st.floats(0, 5)), max_size=20),
        timeouts=st.lists(st.integers(1, 30), max_size=8),
    )
    def test_timeouts_and_replies_interleaved(self, replies, timeouts):
        client = ClientEngine(
            "c0", "server", config=ClientConfig(epsilon=0.0, max_retries=2)
        )
        now = 0.0
        client.read(DatumId.file("file:1"), now)
        client.write(DatumId.file("file:2"), b"x", now)
        events = [("msg", m, dt) for m, dt in replies] + [
            ("timer", f"rpc:{i}", 1.0) for i in timeouts
        ]
        for kind, payload, dt in events:
            now += dt
            if kind == "msg":
                well_formed(client.handle_message(payload, "server", now))
            else:
                well_formed(client.handle_timer(payload, now))

    @settings(max_examples=30, deadline=None)
    @given(data=st.data())
    def test_lease_validity_is_never_in_the_past_of_grant(self, data):
        """Whatever the server replies, a recorded holding never claims
        validity before the request was sent."""
        client = ClientEngine("c0", "server", config=ClientConfig(epsilon=0.5))
        datum = DatumId.file("file:1")
        now = data.draw(st.floats(0, 100))
        op_id, effects = client.read(datum, now)
        req_id = next(e.message.req_id for e in effects if isinstance(e, Send))
        term = data.draw(st.floats(0, 120))
        reply = ReadReply(req_id, datum, version=1, payload=b"x", term=term)
        client.handle_message(reply, "server", now + 0.1)
        expiry = client.leases.expires_at(datum)
        if expiry is not None:
            assert expiry <= now + term  # epsilon-conservative
