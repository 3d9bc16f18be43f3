"""The request pipeline: batching engine paths, CAS writes, interop.

Covers the client-side :class:`BatchPipeline`, the engine's flush-timer
dance, the server's batch unpacking, the CAS-versioned write paths on
both ends, and mixed-version interop — a pipelined client must work
against a peer that answers op-by-op, and an unbatched client against a
batch-capable server.
"""

import pytest

from repro.lease.policy import FixedTermPolicy
from repro.protocol.client import ClientConfig, ClientEngine
from repro.protocol.effects import Complete, Send, SetTimer
from repro.protocol.messages import (
    ApprovalReply,
    BatchReply,
    BatchRequest,
    ReadReply,
    ReadRequest,
    WriteReply,
    WriteRequest,
)
from repro.protocol.pipeline import FLUSH_TIMER, BatchPipeline
from repro.protocol.server import ServerConfig, ServerEngine
from repro.storage.store import FileStore
from repro.types import DatumId

F1 = DatumId.file("f1")


def make_client(**overrides):
    defaults = dict(epsilon=0.0, drift_bound=0.0, batching=True)
    defaults.update(overrides)
    return ClientEngine("c0", "server", config=ClientConfig(**defaults))


def make_server(files=("/f",), term=10.0):
    store = FileStore()
    for path in files:
        store.create_file(path, b"v1")
    engine = ServerEngine(
        "server", store, FixedTermPolicy(term), config=ServerConfig()
    )
    return engine, store


def sends(effects, msg_type=None):
    out = [e for e in effects if isinstance(e, Send)]
    if msg_type is not None:
        out = [e for e in out if isinstance(e.message, msg_type)]
    return out


class TestBatchPipeline:
    def test_wants_only_client_requests(self):
        assert BatchPipeline.wants(ReadRequest(1, F1))
        assert BatchPipeline.wants(ApprovalReply(F1, 1))
        assert not BatchPipeline.wants(ReadReply(1, F1, version=1))
        assert not BatchPipeline.wants(BatchRequest(1, ()))

    def test_first_add_arms_the_flush(self):
        pipe = BatchPipeline(iter(range(100)).__next__)
        assert pipe.add(ReadRequest(1, F1)) is True
        assert pipe.add(ReadRequest(2, F1)) is False
        assert len(pipe) == 2

    def test_flush_chunks_at_max_batch(self):
        pipe = BatchPipeline(iter(range(100)).__next__, max_batch=2)
        for i in range(5):
            pipe.add(ReadRequest(i, F1))
        out = pipe.flush()
        assert [type(m).__name__ for m in out] == [
            "BatchRequest", "BatchRequest", "ReadRequest"
        ]
        assert len(out[0].ops) == 2 and len(out[1].ops) == 2
        assert len(pipe) == 0

    def test_singleton_flush_unwraps(self):
        """One buffered op ships bare: batching must add no overhead (and
        no wire-format change) to a lone request."""
        pipe = BatchPipeline(iter(range(100)).__next__)
        pipe.add(ReadRequest(7, F1))
        (msg,) = pipe.flush()
        assert msg == ReadRequest(7, F1)

    def test_invalid_max_batch_rejected(self):
        with pytest.raises(ValueError):
            BatchPipeline(iter(range(100)).__next__, max_batch=0)


class TestClientBatching:
    def test_same_instant_ops_coalesce_into_one_frame(self):
        server, store = make_server(("/a", "/b"))
        da, db = store.file_datum("/a"), store.file_datum("/b")
        client = make_client()

        op_a, ea = client.read(da, now=0.0)
        op_b, eb = client.read(db, now=0.0)
        # Nothing on the wire yet: the first op armed the flush timer.
        assert sends(ea) == [] and sends(eb) == []
        assert any(
            isinstance(e, SetTimer) and e.key == FLUSH_TIMER for e in ea
        )

        effects = client.handle_timer(FLUSH_TIMER, 0.0)
        (send,) = sends(effects)
        batch = send.message
        assert isinstance(batch, BatchRequest)
        assert [type(op).__name__ for op in batch.ops] == [
            "ReadRequest", "ReadRequest"
        ]

        reply_effects = server.handle_message(batch, "c0", now=0.0)
        (reply_send,) = sends(reply_effects, BatchReply)
        assert reply_send.dst == "c0"
        assert len(reply_send.message.replies) == 2

        completes = [
            e
            for e in client.handle_message(reply_send.message, "server", 0.1)
            if isinstance(e, Complete)
        ]
        assert {c.op_id for c in completes} == {op_a, op_b}
        assert all(c.ok for c in completes)
        assert client.pipeline_stats() == (1, 2)

    def test_batching_off_is_send_per_op(self):
        client = make_client(batching=False)
        _, effects = client.read(F1, now=0.0)
        (send,) = sends(effects)
        assert isinstance(send.message, ReadRequest)
        assert client.pipeline_stats() == (0, 0)

    def test_retransmission_flows_through_the_pipeline(self):
        client = make_client()
        client.read(F1, now=0.0)
        flushed = client.handle_timer(FLUSH_TIMER, 0.0)
        (first,) = sends(flushed)
        req_id = first.message.req_id
        # The rpc timer fires with no reply: the op re-enters the pipeline.
        retry = client.handle_timer(f"rpc:{req_id}", 2.5)
        assert sends(retry) == []
        assert any(
            isinstance(e, SetTimer) and e.key == FLUSH_TIMER for e in retry
        )
        (again,) = sends(client.handle_timer(FLUSH_TIMER, 2.5))
        assert again.message == first.message

    def test_nested_batch_in_reply_is_skipped(self):
        client = make_client()
        hostile = BatchReply(1, (BatchReply(2, ()),))
        assert client.handle_message(hostile, "server", 0.0) == []


class TestInterop:
    def test_pipelined_client_accepts_op_by_op_replies(self):
        """An old (unbatched) server answers each inner op individually;
        the client must not care — inner ops carry their own req_ids."""
        server, store = make_server()
        datum = store.file_datum("/f")
        client = make_client()
        op_id, _ = client.read(datum, now=0.0)
        (send,) = sends(client.handle_timer(FLUSH_TIMER, 0.0))
        # Simulate the old server: unwrap the batch by hand, feed the ops
        # one at a time, return the replies unbatched.
        inner_ops = (
            send.message.ops
            if isinstance(send.message, BatchRequest)
            else [send.message]
        )
        completes = []
        for op in inner_ops:
            for reply in sends(server.handle_message(op, "c0", 0.0)):
                completes += [
                    e
                    for e in client.handle_message(reply.message, "server", 0.1)
                    if isinstance(e, Complete)
                ]
        (done,) = completes
        assert done.op_id == op_id and done.ok

    def test_unbatched_client_against_batch_capable_server(self):
        server, store = make_server()
        datum = store.file_datum("/f")
        client = make_client(batching=False)
        op_id, effects = client.read(datum, now=0.0)
        (send,) = sends(effects)
        assert isinstance(send.message, ReadRequest)  # legacy wire shape
        (reply,) = sends(server.handle_message(send.message, "c0", 0.0))
        assert isinstance(reply.message, ReadReply)  # not wrapped
        (done,) = [
            e
            for e in client.handle_message(reply.message, "server", 0.1)
            if isinstance(e, Complete)
        ]
        assert done.op_id == op_id and done.ok


class TestServerCas:
    def test_stale_cas_rejected_at_admission(self):
        server, store = make_server()
        datum = store.file_datum("/f")
        effects = server.handle_message(
            WriteRequest(1, datum, b"v2", write_seq=1, cas=99), "c0", 0.0
        )
        (send,) = sends(effects, WriteReply)
        assert send.message.error.startswith("cas mismatch")
        assert send.message.version == 1
        assert store.read_datum(datum)[1] == b"v1"

    def test_matching_cas_commits(self):
        server, store = make_server()
        datum = store.file_datum("/f")
        effects = server.handle_message(
            WriteRequest(1, datum, b"v2", write_seq=1, cas=1), "c0", 0.0
        )
        (send,) = sends(effects, WriteReply)
        assert send.message.error is None
        assert send.message.version == 2

    def test_cas_checked_again_at_queue_head(self):
        """Two writers race with the same CAS token: the first commits,
        the second must be rejected when it reaches the head of the
        write queue — its predicate was invalidated while it waited."""
        server, store = make_server()
        datum = store.file_datum("/f")
        # A leaseholder forces both writes through the approval path.
        server.handle_message(ReadRequest(1, datum), "reader", now=0.0)
        assert server.handle_message(
            WriteRequest(2, datum, b"w1", write_seq=1, cas=1), "c1", 0.1
        ) is not None
        server.handle_message(
            WriteRequest(3, datum, b"w2", write_seq=1, cas=1), "c2", 0.2
        )
        effects = server.handle_message(ApprovalReply(datum, 1), "reader", 0.3)
        replies = sends(effects, WriteReply)
        by_writer = {s.dst: s.message for s in replies}
        assert by_writer["c1"].error is None
        assert by_writer["c1"].version == 2
        assert by_writer["c2"].error.startswith("cas mismatch")
        assert store.read_datum(datum)[1] == b"w1"

    def test_cas_rejection_answer_is_replayed_for_retransmits(self):
        server, store = make_server()
        datum = store.file_datum("/f")
        request = WriteRequest(1, datum, b"v2", write_seq=1, cas=99)
        (first,) = sends(server.handle_message(request, "c0", 0.0), WriteReply)
        (again,) = sends(server.handle_message(request, "c0", 1.0), WriteReply)
        assert again.message == first.message


class TestClientCas:
    def test_cas_conflict_fails_op_and_counts(self):
        server, store = make_server()
        datum = store.file_datum("/f")
        client = make_client(batching=False)
        op_id, effects = client.write(datum, b"v2", now=0.0, cas=99)
        (send,) = sends(effects)
        assert send.message.cas == 99
        (reply,) = sends(server.handle_message(send.message, "c0", 0.0))
        (done,) = [
            e
            for e in client.handle_message(reply.message, "server", 0.1)
            if isinstance(e, Complete)
        ]
        assert done.op_id == op_id
        assert not done.ok
        assert "cas mismatch" in done.error
        assert client.metrics.cas_conflicts == 1

    def test_cas_write_through_the_pipeline(self):
        server, store = make_server()
        datum = store.file_datum("/f")
        client = make_client()
        op_id, _ = client.write(datum, b"v2", now=0.0, cas=1)
        (send,) = sends(client.handle_timer(FLUSH_TIMER, 0.0))
        replies = sends(server.handle_message(send.message, "c0", 0.0))
        (done,) = [
            e
            for e in client.handle_message(replies[0].message, "server", 0.1)
            if isinstance(e, Complete)
        ]
        assert done.op_id == op_id and done.ok
        assert done.value == 2  # the committed version


class TestExtensionBatchOrder:
    """Regression: the extension batch is a *sorted set*, independent of
    the op history that produced the lease state (the old code appended
    the triggering datum after an O(n) membership scan, so equivalent
    states could emit differently-ordered requests)."""

    def drive(self, paths, acquire_order, trigger):
        """Acquire leases over ``paths`` in the given order, expire them,
        read ``trigger``, and return the ExtendRequest's datum order."""
        server, store = make_server(paths)
        datums = {p: store.file_datum(p) for p in paths}
        client = make_client(batching=False)
        for path in acquire_order:
            _, effects = client.read(datums[path], now=0.0)
            (send,) = sends(effects)
            (reply,) = sends(server.handle_message(send.message, "c0", 0.0))
            client.handle_message(reply.message, "server", 0.0)
        # Leases (term 10.0) are expired at t=20; the read triggers a
        # batched extension of everything held.
        _, effects = client.read(datums[trigger], now=20.0)
        (send,) = sends(effects)
        return [d for d, _ in send.message.items]

    def test_order_is_history_independent(self):
        paths = ("/a", "/b", "/c")
        orders = [
            ("/a", "/b", "/c"),
            ("/c", "/b", "/a"),
            ("/b", "/c", "/a"),
        ]
        batches = [
            self.drive(paths, order, trigger)
            for order in orders
            for trigger in paths
        ]
        assert all(b == batches[0] for b in batches)
        assert batches[0] == sorted(batches[0], key=str)

    def test_uncovered_trigger_merges_into_sorted_position(self):
        """A datum held under a cover lease is absent from the extension
        batch; when it triggers one anyway it must merge in sorted order,
        not dangle at the end."""
        server, store = make_server(("/a", "/m", "/z"))
        da, dm, dz = (store.file_datum(p) for p in ("/a", "/m", "/z"))
        client = make_client(batching=False)
        for d in (da, dm, dz):
            _, effects = client.read(d, now=0.0)
            (send,) = sends(effects)
            (reply,) = sends(server.handle_message(send.message, "c0", 0.0))
            client.handle_message(reply.message, "server", 0.0)
        # Put /m under a cover lease: the refresh set now excludes it,
        # but by t=20 the cover has expired so the read still triggers an
        # extension with /m as the (batch-absent) trigger datum.
        client.leases.add(dm, expires_local=15.0, cover="cover:/m")
        _, effects = client.read(dm, now=20.0)
        (send,) = sends(effects)
        datums = [d for d, _ in send.message.items]
        assert datums == sorted(datums, key=str)
        assert dm in datums
