"""Unit tests for the client engine, driven sans-io."""

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, precondition, rule

from repro.protocol.client import ClientConfig, ClientEngine
from repro.protocol.effects import Complete, Send, SetTimer
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
from repro.types import DatumId

F1 = DatumId.file("f1")
F2 = DatumId.file("f2")


def make_client(**overrides):
    defaults = dict(epsilon=0.0, drift_bound=0.0)
    defaults.update(overrides)
    return ClientEngine("c0", "server", config=ClientConfig(**defaults))


def only(effects, cls):
    found = [e for e in effects if isinstance(e, cls)]
    assert len(found) == 1, f"expected one {cls.__name__}, got {found}"
    return found[0]


def fetch(client, datum=F1, version=1, payload=b"v1", term=10.0, now=0.0):
    """Drive the client through one full read RPC."""
    op_id, effects = client.read(datum, now)
    send = only(effects, Send)
    reply = ReadReply(
        send.message.req_id, datum, version=version, payload=payload, term=term
    )
    effects = client.handle_message(reply, "server", now)
    return op_id, effects


def sends(effects):
    return [e for e in effects if isinstance(e, Send)]


def reread(client, now, datum=F1, version=1, payload=b"v1", term=10.0):
    """Read ``datum`` again and answer whichever fetch request the miss
    sent (read or extend) with ``version``/``payload``; returns the
    effects of handling that answer."""
    _, effects = client.read(datum, now)
    request = only(effects, Send).message
    if isinstance(request, ExtendRequest):
        grant = ExtendGrant(datum, term, version, payload=payload, changed=True)
        reply = ExtendReply(request.req_id, grants=(grant,))
    else:
        reply = ReadReply(request.req_id, datum, version=version, payload=payload, term=term)
    return client.handle_message(reply, "server", now + 0.003)


class TestReadPath:
    def test_first_read_sends_read_request(self):
        client = make_client()
        op_id, effects = client.read(F1, now=0.0)
        send = only(effects, Send)
        assert isinstance(send.message, ReadRequest)
        assert send.dst == "server"
        assert only(effects, SetTimer).key == f"rpc:{send.message.req_id}"

    def test_read_reply_completes_and_caches(self):
        client = make_client()
        op_id, effects = fetch(client)
        complete = only(effects, Complete)
        assert complete.op_id == op_id
        assert complete.value == (1, b"v1")
        assert client.leases.valid(F1, 5.0)

    def test_cached_read_completes_locally(self):
        client = make_client()
        fetch(client)
        op_id, effects = client.read(F1, now=5.0)
        complete = only(effects, Complete)
        assert complete.value == (1, b"v1")
        assert not [e for e in effects if isinstance(e, Send)]
        assert client.metrics.local_hits == 1

    def test_expired_lease_triggers_batched_extension(self):
        client = make_client()
        fetch(client, F1)
        fetch(client, F2, payload=b"v2")
        op_id, effects = client.read(F1, now=20.0)  # both leases expired
        send = only(effects, Send)
        assert isinstance(send.message, ExtendRequest)
        covered = {item[0] for item in send.message.items}
        assert covered == {F1, F2}  # §3.1: extend together everything due

    def test_extension_grant_completes_from_cache(self):
        client = make_client()
        fetch(client, F1)
        op_id, effects = client.read(F1, now=20.0)
        send = only(effects, Send)
        reply = ExtendReply(
            send.message.req_id, grants=(ExtendGrant(F1, 10.0, 1),)
        )
        effects = client.handle_message(reply, "server", now=20.001)
        complete = only(effects, Complete)
        assert complete.value == (1, b"v1")
        assert client.leases.valid(F1, 25.0)

    def test_extension_with_changed_payload_updates_cache(self):
        client = make_client()
        fetch(client, F1)
        op_id, effects = client.read(F1, now=20.0)
        send = only(effects, Send)
        reply = ExtendReply(
            send.message.req_id,
            grants=(ExtendGrant(F1, 10.0, 3, payload=b"v3", changed=True),),
        )
        effects = client.handle_message(reply, "server", now=20.001)
        complete = only(effects, Complete)
        assert complete.value == (3, b"v3")

    def test_denied_extension_falls_back_to_read(self):
        client = make_client()
        fetch(client, F1)
        op_id, effects = client.read(F1, now=20.0)
        send = only(effects, Send)
        reply = ExtendReply(send.message.req_id, denied=(F1,))
        effects = client.handle_message(reply, "server", now=20.001)
        follow_up = only(effects, Send)
        assert isinstance(follow_up.message, ReadRequest)
        assert not client.leases.valid(F1, 20.1)
        # the deferred read eventually answers
        reply = ReadReply(follow_up.message.req_id, F1, version=5, payload=b"v5", term=10.0)
        effects = client.handle_message(reply, "server", now=21.0)
        assert only(effects, Complete).value == (5, b"v5")

    def test_concurrent_reads_coalesce_into_one_request(self):
        client = make_client()
        op1, e1 = client.read(F1, now=0.0)
        op2, e2 = client.read(F1, now=0.0)
        assert [e for e in e1 if isinstance(e, Send)]
        assert e2 == []  # rides on the first request
        send = only(e1, Send)
        reply = ReadReply(send.message.req_id, F1, version=1, payload=b"v1", term=10.0)
        effects = client.handle_message(reply, "server", now=0.01)
        completes = [e for e in effects if isinstance(e, Complete)]
        assert {c.op_id for c in completes} == {op1, op2}

    def test_zero_term_reply_gives_no_lease(self):
        client = make_client()
        fetch(client, term=0.0)
        assert not client.leases.valid(F1, 0.01)
        # next read goes remote again (check-on-use)
        op_id, effects = client.read(F1, now=0.02)
        send = only(effects, Send)
        assert isinstance(send.message, ReadRequest)
        assert send.message.cached_version == 1

    def test_unchanged_reply_completes_from_cached_payload(self):
        client = make_client()
        fetch(client)
        client.relinquish(F1)  # copy kept, lease gone: revalidate by version
        op_id, effects = client.read(F1, now=20.0)
        send = only(effects, Send)
        assert isinstance(send.message, ReadRequest)
        reply = ReadReply(send.message.req_id, F1, version=1, payload=None, term=10.0)
        effects = client.handle_message(reply, "server", now=20.001)
        assert only(effects, Complete).value == (1, b"v1")

    def test_error_reply_fails_op(self):
        client = make_client()
        op_id, effects = client.read(F1, now=0.0)
        send = only(effects, Send)
        reply = ReadReply(send.message.req_id, F1, error="no such datum")
        effects = client.handle_message(reply, "server", now=0.01)
        complete = only(effects, Complete)
        assert not complete.ok
        assert complete.error == "no such datum"

    def test_duplicate_reply_ignored(self):
        client = make_client()
        op_id, effects = client.read(F1, now=0.0)
        send = only(effects, Send)
        reply = ReadReply(send.message.req_id, F1, version=1, payload=b"v1", term=10.0)
        client.handle_message(reply, "server", now=0.01)
        assert client.handle_message(reply, "server", now=0.02) == []


class TestRefreshSet:
    """An ExtendRequest carries the triggering datum plus what the cache
    lacks — due leases and invalidated copies — not every holding."""

    HELD = [DatumId.file(f"g{i:03d}") for i in range(200)]

    def client_holding_200(self, **overrides):
        client = make_client(**overrides)
        for datum in self.HELD:
            fetch(client, datum, term=10.0, now=0.0)
        return client

    def extend_items(self, effects):
        message = only(effects, Send).message
        assert isinstance(message, ExtendRequest)
        return list(message.items)

    def test_one_invalidated_copy_costs_one_item(self):
        client = self.client_holding_200()
        stale = self.HELD[17]
        client.handle_message(ApprovalRequest(stale, 7, 2), "server", now=1.0)
        _, effects = client.read(stale, now=2.0)
        assert self.extend_items(effects) == [(stale, 0)]

    def test_every_invalidated_copy_rides_along(self):
        client = self.client_holding_200()
        stale = [self.HELD[150], self.HELD[3], self.HELD[42]]
        for write_id, datum in enumerate(stale):
            client.handle_message(ApprovalRequest(datum, write_id, 2), "server", now=1.0)
        _, effects = client.read(stale[0], now=2.0)
        assert self.extend_items(effects) == [(d, 0) for d in sorted(stale, key=str)]

    def test_after_half_a_term_every_lease_is_due(self):
        client = self.client_holding_200()
        stale = self.HELD[17]
        client.handle_message(ApprovalRequest(stale, 7, 2), "server", now=1.0)
        _, effects = client.read(stale, now=5.0)
        items = self.extend_items(effects)
        assert [d for d, _ in items] == sorted(self.HELD, key=str)
        assert [v for d, v in items if d != stale] == [1] * 199
        assert (stale, 0) in items

    def test_renewed_leases_are_fresh_again(self):
        """The reply to a full batch moves every renew point: the next
        invalidation-driven miss is back to one item."""
        client = self.client_holding_200()
        _, effects = client.read(self.HELD[0], now=10.0)  # all expired
        message = only(effects, Send).message
        assert len(message.items) == 200
        grants = tuple(ExtendGrant(d, 10.0, 1) for d, _ in message.items)
        client.handle_message(ExtendReply(message.req_id, grants=grants), "server", 10.01)
        client.handle_message(ApprovalRequest(self.HELD[5], 7, 2), "server", now=11.0)
        _, effects = client.read(self.HELD[5], now=12.0)
        assert self.extend_items(effects) == [(self.HELD[5], 0)]

    def test_own_write_makes_the_datum_an_item(self):
        client = self.client_holding_200()
        datum = self.HELD[9]
        client.write(datum, b"mine", now=1.0)
        _, effects = client.read(datum, now=1.5)  # lease valid, write unresolved
        assert self.extend_items(effects) == [(datum, 0)]

    def test_triggering_datum_is_an_item_even_when_it_lacks_nothing(self):
        """Own write in flight over a copy a concurrent read fetched:
        lease fresh, copy valid, yet the read must reach the server."""
        client = self.client_holding_200()
        client.write(F1, b"mine", now=1.0)
        fetch(client, F1, version=1, payload=b"v1", now=1.0)
        assert client.cache.peek(F1).valid and client.leases.valid(F1, 2.0)
        _, effects = client.read(F1, now=2.0)
        assert self.extend_items(effects) == [(F1, 1)]

    @pytest.mark.parametrize("read_at,others", [(2.0, "fresh"), (5.0, "due")])
    def test_evicted_copy_absent_while_fresh_present_when_due(self, read_at, others):
        client = make_client(cache_capacity=2)
        a, b, c = (DatumId.file(name) for name in "abc")
        for datum in (a, b, c):
            fetch(client, datum, term=10.0, now=0.0)
        assert a not in client.cache and a in client.leases  # LRU victim
        client.handle_message(ApprovalRequest(b, 7, 2), "server", now=1.0)
        _, effects = client.read(b, now=read_at)
        want = [(b, 0)] if others == "fresh" else [(a, 0), (b, 0), (c, 1)]
        assert self.extend_items(effects) == want

    def test_anticipation_sends_the_due_set(self):
        client = self.client_holding_200(anticipatory=True, anticipate_margin=2.0)
        short = [DatumId.file(f"s{i}") for i in range(3)]
        for datum in short:
            fetch(client, datum, term=4.0, now=0.0)
        effects = client.handle_timer("anticipate", now=3.0)  # s* expire at 4
        assert self.extend_items(effects) == [(d, 1) for d in short]


class TestLeaseExpiryBounds:
    def test_expiry_anchored_at_send_time_minus_epsilon(self):
        client = make_client(epsilon=0.1)
        op_id, effects = client.read(F1, now=100.0)
        send = only(effects, Send)
        reply = ReadReply(send.message.req_id, F1, version=1, payload=b"x", term=10.0)
        client.handle_message(reply, "server", now=100.5)
        assert client.leases.expires_at(F1) == pytest.approx(109.9)  # 100 + 10 - 0.1

    def test_drift_bound_shrinks_term(self):
        client = make_client(drift_bound=0.01)
        op_id, effects = client.read(F1, now=0.0)
        send = only(effects, Send)
        reply = ReadReply(send.message.req_id, F1, version=1, payload=b"x", term=100.0)
        client.handle_message(reply, "server", now=0.5)
        assert client.leases.expires_at(F1) == pytest.approx(99.0)


class TestWritePath:
    def test_write_sends_request_with_seq(self):
        client = make_client()
        op_id, effects = client.write(F1, b"data", now=0.0)
        send = only(effects, Send)
        assert isinstance(send.message, WriteRequest)
        assert send.message.write_seq == 1

    def test_write_seqs_increase(self):
        client = make_client()
        _, e1 = client.write(F1, b"a", now=0.0)
        _, e2 = client.write(F1, b"b", now=0.0)
        assert only(e2, Send).message.write_seq == only(e1, Send).message.write_seq + 1

    def test_write_reply_completes_and_caches_content(self):
        client = make_client()
        op_id, effects = client.write(F1, b"data", now=0.0)
        send = only(effects, Send)
        reply = WriteReply(send.message.req_id, F1, version=4)
        effects = client.handle_message(reply, "server", now=0.01)
        assert only(effects, Complete).value == 4
        assert client.cache.peek(F1).payload == b"data"
        assert client.cache.peek(F1).version == 4

    def test_read_does_not_coalesce_onto_write(self):
        client = make_client()
        client.write(F1, b"data", now=0.0)
        op_id, effects = client.read(F1, now=0.0)
        send = only(effects, Send)
        assert isinstance(send.message, ReadRequest)


class TestApprovals:
    def test_approval_invalidates_and_replies(self):
        client = make_client()
        fetch(client)
        effects = client.handle_message(ApprovalRequest(F1, 7, 2), "server", now=1.0)
        send = only(effects, Send)
        assert isinstance(send.message, ApprovalReply)
        assert send.message.write_id == 7
        assert client.cache.get(F1) is None  # invalidated
        assert client.leases.valid(F1, 1.5)  # lease kept

    def test_stale_fetch_after_approval_is_refused_and_refetched(self):
        client = make_client()
        # A read is in flight; an approval for version 2 lands first.
        op_id, effects = client.read(F1, now=0.0)
        send = only(effects, Send)
        client.handle_message(ApprovalRequest(F1, 7, 2), "server", now=0.001)
        stale = ReadReply(send.message.req_id, F1, version=1, payload=b"old", term=10.0)
        effects = client.handle_message(stale, "server", now=0.002)
        follow_up = only(effects, Send)
        assert isinstance(follow_up.message, ReadRequest)
        assert not [e for e in effects if isinstance(e, Complete)]
        fresh = ReadReply(follow_up.message.req_id, F1, version=2, payload=b"new", term=10.0)
        effects = client.handle_message(fresh, "server", now=0.01)
        assert only(effects, Complete).value == (2, b"new")

    def test_stale_extend_grant_after_approval_is_refused_and_refetched(self):
        """The same race on the extend path: the grant was computed before
        the approval round, so its v1 bytes must not come back."""
        client = make_client()
        fetch(client, term=1.0)
        _, effects = client.read(F1, now=5.0)  # lease expired: an extension
        extend = only(effects, Send).message
        client.handle_message(ApprovalRequest(F1, 7, 2), "server", now=5.001)
        grant = ExtendGrant(F1, 10.0, 1, payload=b"old", changed=True)
        effects = client.handle_message(
            ExtendReply(extend.req_id, grants=(grant,)), "server", now=5.002
        )
        assert isinstance(only(effects, Send).message, ReadRequest)
        assert not [e for e in effects if isinstance(e, Complete)]
        assert client.cache.get(F1) is None

    def test_aborted_approved_write_releases_the_floor(self):
        """Regression: an approval makes the cache await the write's
        future version; if the server then aborts that write (writer
        partitioned / deadline), the version never commits and every
        fresh reply used to be refused as stale — an infinite refetch
        loop (seed gen-0-67).  A lease-granting reply to a request issued
        after the approval reflects the datum after the write resolved,
        so it is admitted on arrival: one request, no follow-up."""
        client = make_client()
        fetch(client)  # v1 cached, lease held
        client.handle_message(ApprovalRequest(F1, 7, 2), "server", now=1.0)
        # The write aborts server-side; a later read still finds v1.
        effects = reread(client, now=2.0)
        assert only(effects, Complete).value == (1, b"v1")
        assert not sends(effects)
        assert client.cache.get(F1).payload == b"v1"
        # Nothing is awaited any more: the next read is a plain local hit.
        _, effects = client.read(F1, now=3.0)
        assert only(effects, Complete).value == (1, b"v1")
        assert not sends(effects)

    def test_unfulfilled_write_submit_floor_releases(self):
        """Regression (stampede adversarial family, seed gen-0-31): the
        submit-time invalidate of ``write()`` anticipates our own commit;
        when the write failed to advance the server (crash-era
        retry/dedup confusion), reads used to refetch-livelock behind
        that prophecy because this invalidation site forgot to record
        when it happened.  Recording is now part of ``invalidate``."""
        client = make_client()
        fetch(client)  # v1 cached, lease held
        op_id, effects = client.write(F1, b"mine", now=1.0)
        only(effects, Send)  # the WriteRequest — swallow it (never commits)
        # A later read: the server still serves v1 and grants a lease, so
        # no write is pending — the read completes on that first reply.
        effects = reread(client, now=2.0)
        assert only(effects, Complete).value == (1, b"v1")
        assert not sends(effects)

    def test_leaseless_reply_does_not_release_the_floor(self):
        """A reply that grants no lease passes only on its version, so
        below the awaited version the client refetches — and keeps
        waiting: the next lease-less reply is refused the same way."""
        client = make_client()
        fetch(client)
        client.handle_message(ApprovalRequest(F1, 7, 2), "server", now=1.0)
        _, effects = client.read(F1, now=2.0)
        extend = only(effects, Send).message
        effects = client.handle_message(
            ExtendReply(extend.req_id, denied=(F1,)), "server", now=2.003
        )
        for _ in range(2):
            follow_up = only(effects, Send)
            assert isinstance(follow_up.message, ReadRequest)
            assert not [e for e in effects if isinstance(e, Complete)]
            reply = ReadReply(
                follow_up.message.req_id, F1, version=1, payload=b"v1", term=0.0
            )
            effects = client.handle_message(reply, "server", now=2.01)
        assert isinstance(only(effects, Send).message, ReadRequest)
        assert client.cache.get(F1) is None

    def test_reply_path_parity_behind_a_dead_prediction(self):
        """The same history — fetch, approve a write predicted as v2, the
        write aborts, re-read answered at v1 with a lease — ends in the
        same cache state with zero follow-up requests whether the answer
        is a ``ReadReply`` or an ``ExtendReply`` grant.  (The extend path
        used to refuse, refetch with a ``ReadRequest``, refuse again and
        only then accept.)"""
        outcomes = []
        for via_read in (True, False):
            client = make_client()
            fetch(client)
            client.handle_message(ApprovalRequest(F1, 7, 2), "server", now=1.0)
            if via_read:
                client.leases.drop(F1)  # no holding: the miss sends a ReadRequest
            effects = reread(client, now=2.0)
            assert client.metrics.extend_requests == (0 if via_read else 1)
            assert not sends(effects)
            entry = client.cache.get(F1)
            outcomes.append(
                (
                    only(effects, Complete).value,
                    (entry.version, entry.payload),
                    client.leases.expires_at(F1),
                    client.outstanding_requests(),
                )
            )
        assert outcomes[0] == outcomes[1] == ((1, b"v1"), (1, b"v1"), 12.0, 0)

    def test_admission_reads_no_clock(self):
        """Approve at local 100, then the client's clock steps back to 50:
        a read issued after the approval still completes on its first
        reply.  "Issued after" is request-id order, not a clock
        comparison — the clock-based proof re-fetched once per round trip
        until the clock re-passed the approval time."""
        client = make_client()
        fetch(client, now=99.0)
        client.handle_message(ApprovalRequest(F1, 7, 2), "server", now=100.0)
        client.leases.drop(F1)  # a ReadRequest: the path that had the proof
        effects = reread(client, now=50.0)  # the write aborted: still v1
        assert only(effects, Complete).value == (1, b"v1")
        assert not sends(effects)


class TestAnnouncements:
    def test_announce_extends_covered_leases(self):
        client = make_client(announce_delay_bound=0.0)
        op_id, effects = client.read(F1, now=0.0)
        send = only(effects, Send)
        reply = ReadReply(
            send.message.req_id, F1, version=1, payload=b"x", term=5.0, cover="bin"
        )
        client.handle_message(reply, "server", now=0.01)
        client.handle_message(InstalledAnnounce(("bin",), 10.0), "server", now=4.0)
        assert client.leases.valid(F1, 13.0)

    def test_announce_subtracts_delivery_bound(self):
        client = make_client(announce_delay_bound=0.5)
        op_id, effects = client.read(F1, now=0.0)
        send = only(effects, Send)
        reply = ReadReply(
            send.message.req_id, F1, version=1, payload=b"x", term=5.0, cover="bin"
        )
        client.handle_message(reply, "server", now=0.01)
        client.handle_message(InstalledAnnounce(("bin",), 10.0), "server", now=4.0)
        assert client.leases.expires_at(F1) == pytest.approx(13.5)

    def test_covered_datums_excluded_from_extension_batches(self):
        client = make_client()
        op_id, effects = client.read(F1, now=0.0)
        send = only(effects, Send)
        reply = ReadReply(
            send.message.req_id, F1, version=1, payload=b"x", term=5.0, cover="bin"
        )
        client.handle_message(reply, "server", now=0.01)
        fetch(client, F2, payload=b"y")
        op_id, effects = client.read(F2, now=20.0)
        send = only(effects, Send)
        assert isinstance(send.message, ExtendRequest)
        covered = {item[0] for item in send.message.items}
        assert F1 not in covered


class TestRetransmission:
    def test_timeout_resends_same_message(self):
        client = make_client()
        op_id, effects = client.read(F1, now=0.0)
        original = only(effects, Send).message
        effects = client.handle_timer(f"rpc:{original.req_id}", now=2.0)
        resend = only(effects, Send)
        assert resend.message is original
        assert client.metrics.retransmissions == 1

    def test_retries_exhaust_into_failure(self):
        client = make_client(max_retries=2)
        op_id, effects = client.read(F1, now=0.0)
        req_id = only(effects, Send).message.req_id
        client.handle_timer(f"rpc:{req_id}", now=2.0)
        client.handle_timer(f"rpc:{req_id}", now=4.0)
        effects = client.handle_timer(f"rpc:{req_id}", now=6.0)
        complete = only(effects, Complete)
        assert not complete.ok
        assert client.metrics.failures == 1

    def test_timeout_of_closed_request_is_noop(self):
        client = make_client()
        fetch(client)
        assert client.handle_timer("rpc:1", now=5.0) == []


class TestAnticipatory:
    def test_anticipate_timer_armed_at_startup(self):
        client = make_client(anticipatory=True)
        effects = client.startup_effects(0.0)
        assert only(effects, SetTimer).key == "anticipate"

    def test_anticipate_renews_expiring_leases(self):
        client = make_client(anticipatory=True, anticipate_margin=5.0)
        fetch(client, term=10.0)
        effects = client.handle_timer("anticipate", now=7.0)  # expires at 10
        sends = [e for e in effects if isinstance(e, Send)]
        assert len(sends) == 1
        assert isinstance(sends[0].message, ExtendRequest)

    def test_anticipate_idles_with_fresh_leases(self):
        client = make_client(anticipatory=True, anticipate_margin=2.0)
        fetch(client, term=100.0)
        effects = client.handle_timer("anticipate", now=1.0)
        assert not [e for e in effects if isinstance(e, Send)]
        assert only(effects, SetTimer).key == "anticipate"


class TestTempFiles:
    def test_temp_files_never_touch_server(self):
        client = make_client()
        client.write_temp("/tmp/scratch", b"intermediate")
        assert client.read_temp("/tmp/scratch") == b"intermediate"
        assert client.outstanding_requests() == 0

    def test_relinquish_drops_holding(self):
        client = make_client()
        fetch(client)
        client.relinquish(F1)
        assert not client.leases.valid(F1, 0.1)


class TestOwnWriteRaces:
    """Regressions found by ``repro.check`` sweeps: races between a
    client's own in-flight writes and its cache under message loss."""

    def test_stale_write_reply_does_not_revalidate_superseded_bytes(self):
        """A retransmitted older write can be answered (via server dedup)
        *after* a newer own write committed; caching its bytes would let
        a valid lease serve them as stale local hits."""
        client = make_client()
        fetch(client)
        _, e1 = client.write(F1, b"A", now=1.0)
        _, e2 = client.write(F1, b"B", now=1.1)
        req_a = only(e1, Send).message
        req_b = only(e2, Send).message

        # The dedup answer for A lands while B is still outstanding.
        client.handle_message(WriteReply(req_a.req_id, F1, version=2), "server", 2.0)
        entry = client.cache.peek(F1)
        assert entry is None or not entry.valid

        # B's reply carries the bytes that are actually current.
        client.handle_message(WriteReply(req_b.req_id, F1, version=3), "server", 2.1)
        entry = client.cache.peek(F1)
        assert entry.valid and entry.version == 3 and entry.payload == b"B"

    def test_superseded_reply_floor_releases_when_newer_write_dies(self):
        """Regression (herd adversarial family, seed gen-0-40): the
        superseded-reply branch raises the floor to the *newer* write's
        future version, but never recorded the raise — if that write then
        died at the server, nothing could prove the prediction dead and
        every refetch was refused as stale forever."""
        client = make_client()
        fetch(client)
        _, e1 = client.write(F1, b"A", now=1.0)
        _, e2 = client.write(F1, b"B", now=1.1)
        req_a = only(e1, Send).message
        only(e2, Send)  # B's request — lost, never commits
        client.handle_message(WriteReply(req_a.req_id, F1, version=2), "server", 2.0)
        entry = client.cache.peek(F1)
        assert entry is None or not entry.valid  # A's bytes were not cached
        # B died at the server; a later lease-granting read still carries
        # v2 — v3 will never commit, and the read completes on that reply.
        effects = reread(client, now=3.0, version=2, payload=b"A")
        assert only(effects, Complete).value == (2, b"A")
        assert not sends(effects)

    def test_write_reply_overtaken_by_an_approval_is_not_cached(self):
        """Our write committed as v2, then another client's write began
        and its approval request overtook our WriteReply on the wire: the
        op completes, but the bytes are already awaiting replacement and
        must not be served under the lease we kept."""
        client = make_client()
        fetch(client)
        _, effects = client.write(F1, b"mine", now=1.0)
        write_req = only(effects, Send).message
        client.handle_message(ApprovalRequest(F1, 9, 3), "server", now=1.5)
        effects = client.handle_message(
            WriteReply(write_req.req_id, F1, version=2), "server", now=1.6
        )
        assert only(effects, Complete).value == 2
        assert client.cache.get(F1) is None
        _, effects = client.read(F1, now=2.0)
        assert sends(effects) and not [e for e in effects if isinstance(e, Complete)]

    def test_local_hits_suspended_while_own_write_unresolved(self):
        """The server exempts the writer from approval callbacks, trusting
        the WriteReply to update its cache — so while that reply may be
        lost, a valid-lease copy of the datum cannot be served locally."""
        client = make_client()
        _, effects = client.write(F1, b"mine", now=0.0)
        write_req = only(effects, Send).message

        # A concurrent read refetches the pre-write data mid-write...
        fetch(client, version=1, payload=b"v1", now=1.0)
        assert client.cache.peek(F1).valid

        # ...but further reads must go to the server, not hit locally:
        # our write may already have committed with the reply in flight.
        _, effects = client.read(F1, now=2.0)
        assert not [e for e in effects if isinstance(e, Complete)]
        only(effects, Send)
        assert client.metrics.local_hits == 0

        # Once the write resolves, local hits resume with its bytes.
        client.handle_message(WriteReply(write_req.req_id, F1, version=2), "server", 3.0)
        _, effects = client.read(F1, now=3.5)
        assert only(effects, Complete).value == (2, b"mine")
        assert client.metrics.local_hits == 1


class HitDecisionMachine(RuleBasedStateMachine):
    """``read`` finishes on the spot iff the three facts a hit rests on hold.

    Over any interleaving of reads, writes, approvals, (possibly late or
    lost) replies and clock steps: a read returns a lone ``Complete``
    exactly when, just before the call, the lease is valid, no own write
    on the datum is unresolved and the entry is resident and valid — the
    conjunction the runtime's no-Future shortcut trusts — and ``_ops``
    holds exactly the operations that have not had their ``Complete`` yet.
    """

    DATUMS = [DatumId.file(f"f{i}") for i in range(3)]

    def __init__(self):
        super().__init__()
        self.client = make_client(cache_capacity=2)  # three datums: one is always evicted
        self.now = 0.0
        self.version = dict.fromkeys(self.DATUMS, 1)  # the server's
        self.unanswered: list = []
        self.waiting: set[int] = set()

    def ran(self, op_id, effects):
        if op_id is not None:
            self.waiting.add(op_id)
        for effect in effects:
            if isinstance(effect, Complete):
                self.waiting.remove(effect.op_id)  # completes once, and only if waited for
            elif isinstance(effect, Send) and not isinstance(effect.message, ApprovalReply):
                self.unanswered.append(effect.message)

    @rule(step=st.sampled_from([0.0, 0.5, 3.0, 11.0]))
    def clock_step(self, step):
        self.now += step

    @rule(datum=st.sampled_from(DATUMS))
    def read(self, datum):
        client = self.client
        entry = client.cache.peek(datum)
        servable = (
            client.leases.valid(datum, self.now)
            and datum not in client._own_writes
            and entry is not None
            and entry.valid
        )
        op_id, effects = client.read(datum, self.now)
        on_the_spot = len(effects) == 1 and isinstance(effects[0], Complete)
        assert on_the_spot == servable
        if on_the_spot:
            assert effects[0] == Complete(op_id, True, (entry.version, entry.payload))
        else:
            assert not [e for e in effects if isinstance(e, Complete)]
        self.ran(op_id, effects)

    @rule(datum=st.sampled_from(DATUMS))
    def write(self, datum):
        self.ran(*self.client.write(datum, b"w%d" % len(self.waiting), self.now))

    @rule(datum=st.sampled_from(DATUMS))
    def approval(self, datum):
        """Another client's write commits with our approval."""
        self.version[datum] += 1
        request = ApprovalRequest(datum, self.version[datum], self.version[datum])
        self.ran(None, self.client.handle_message(request, "server", self.now))

    @precondition(lambda self: self.unanswered)
    @rule(pick=st.integers(0, 63), lost=st.booleans(), term=st.sampled_from([0.0, 10.0]))
    def reply(self, pick, lost, term):
        """Answer any outstanding request — out of order, or never."""
        msg = self.unanswered.pop(pick % len(self.unanswered))
        if lost:
            return

        def grant(datum):
            return self.version[datum], b"v%d" % self.version[datum]

        if isinstance(msg, WriteRequest):
            self.version[msg.datum] += 1
            reply = WriteReply(msg.req_id, msg.datum, version=self.version[msg.datum])
        elif isinstance(msg, ExtendRequest):
            reply = ExtendReply(msg.req_id, grants=tuple(
                ExtendGrant(d, term, grant(d)[0], payload=grant(d)[1], changed=True)
                for d, _ in msg.items
            ))
        else:
            version, payload = grant(msg.datum)
            reply = ReadReply(msg.req_id, msg.datum, version=version, payload=payload, term=term)
        self.ran(None, self.client.handle_message(reply, "server", self.now))

    @invariant()
    def ops_are_exactly_the_unfinished(self):
        assert set(self.client._ops) == self.waiting


TestHitDecision = HitDecisionMachine.TestCase
TestHitDecision.settings = settings(max_examples=60, stateful_step_count=40, deadline=None)
