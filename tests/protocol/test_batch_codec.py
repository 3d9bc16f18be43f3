"""Batch-frame codec: round trips, the pinned write frame, hostile frames.

The pipeline's ``BatchRequest``/``BatchReply`` are the only messages
that nest other messages, so they get their own robustness sweep:
malformed, truncated and oversized frames in both directions, plus the
pinned v2 frame of a write (``cas`` always travels, as ``null`` when
unset) and the rule that a v1 frame is simply a malformed one.
"""

import asyncio
import json
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ProtocolError, RuntimeTransportError
from repro.protocol.codec import decode_message, encode_message
from repro.protocol.messages import (
    BatchReply,
    BatchRequest,
    ExtendRequest,
    NamespaceRequest,
    ReadReply,
    ReadRequest,
    RelinquishRequest,
    WriteReply,
    WriteRequest,
)
from repro.runtime.tcp import (
    _RECV_BUFFER,
    MAX_FRAME,
    TcpClientTransport,
    TcpServerTransport,
    _Connection,
    _frame,
)
from repro.types import DatumId

F = DatumId.file("file:1")
D = DatumId.directory("dir:/bin")

BATCH_SAMPLES = [
    BatchRequest(1, (ReadRequest(10, F),)),
    BatchRequest(
        2,
        (
            ReadRequest(11, F, cached_version=3),
            WriteRequest(12, F, b"\x00bin\xff", write_seq=4),
            WriteRequest(13, F, b"x", write_seq=5, cas=7),
            ExtendRequest(14, ((F, 1), (D, 2))),
            NamespaceRequest(15, "rename", ("/a", "/b"), write_seq=6),
            RelinquishRequest((F,)),
        ),
    ),
    BatchReply(1, (ReadReply(10, F, version=1, payload=b"v", term=5.0),)),
    BatchReply(
        2,
        (
            ReadReply(11, F, version=3, payload=None, term=5.0),
            WriteReply(12, F, version=4),
            WriteReply(13, F, version=4, error="cas mismatch: expected 7, datum at 4"),
        ),
    ),
]


class TestRoundTrip:
    @pytest.mark.parametrize("msg", BATCH_SAMPLES, ids=lambda m: f"{type(m).__name__}-{m.batch_id}")
    def test_roundtrip_equals(self, msg):
        assert decode_message(encode_message(msg)) == msg

    @pytest.mark.parametrize("msg", BATCH_SAMPLES, ids=lambda m: f"{type(m).__name__}-{m.batch_id}")
    def test_roundtrip_survives_json(self, msg):
        wire = json.loads(json.dumps(encode_message(msg)))
        assert decode_message(wire) == msg


class TestWireCompatibility:
    """There is one wire format; these are its bytes for a write."""

    #: The exact v2 frame of an unconditional write: ``cas`` is ``null``.
    PLAIN_WRITE = ["WriteRequest", 5, "file:file:1", "Y29udGVudA==", 9, None]

    #: The same write as format v1 spelled it.
    V1_WRITE = {
        "type": "WriteRequest",
        "req_id": 5,
        "datum": {"__datum__": ["file", "file:1"]},
        "content": {"__bytes__": "Y29udGVudA=="},
        "write_seq": 9,
    }

    def test_write_without_cas_carries_null(self):
        msg = WriteRequest(5, F, b"content", write_seq=9)
        assert encode_message(msg) == self.PLAIN_WRITE
        assert decode_message(self.PLAIN_WRITE) == msg

    def test_v1_write_frame_is_malformed(self):
        with pytest.raises(ProtocolError):
            decode_message(self.V1_WRITE)

    def test_cas_write_carries_the_guard(self):
        wire = encode_message(WriteRequest(5, F, b"content", write_seq=9, cas=3))
        assert wire == self.PLAIN_WRITE[:-1] + [3]
        assert decode_message(wire).cas == 3


class TestHostileFrames:
    def test_nested_batch_request_rejected(self):
        wire = encode_message(BatchRequest(1, (ReadRequest(2, F),)))
        with pytest.raises(ProtocolError):
            decode_message(["BatchRequest", 9, [wire]])

    def test_nested_batch_reply_rejected(self):
        wire = encode_message(BatchReply(1, ()))
        with pytest.raises(ProtocolError):
            decode_message(["BatchReply", 9, [wire]])

    def test_nested_batch_rejected_at_encode(self):
        inner = BatchRequest(1, (ReadRequest(2, F),))
        with pytest.raises(ProtocolError):
            encode_message(BatchRequest(9, (inner,)))

    def test_non_message_batch_member_rejected(self):
        with pytest.raises(ProtocolError):
            decode_message(["BatchRequest", 1, [42, "x"]])

    def test_deeply_nested_msg_tags_do_not_blow_the_stack(self):
        """A hostile frame nesting batch arrays thousands deep must come
        back as ProtocolError, never RecursionError: a member's tag is
        checked before anything recurses into it."""
        wire = encode_message(ReadRequest(1, F))
        for _ in range(5000):
            wire = ["BatchRequest", 1, [wire]]
        with pytest.raises(ProtocolError):
            decode_message(wire)

    def test_deeply_nested_untyped_payload_does_not_blow_the_stack(self):
        payload = []
        for _ in range(5000):
            payload = [payload]
        with pytest.raises(ProtocolError):
            decode_message(["ReadReply", 1, "file:f", 1, payload, 0.0, None, None])

    @settings(max_examples=100, deadline=None)
    @given(
        ops=st.lists(
            st.one_of(
                st.integers(),
                st.text(max_size=8),
                st.dictionaries(st.text(max_size=6), st.integers(), max_size=3),
                st.lists(st.one_of(st.integers(), st.text(max_size=12)), max_size=4),
            ),
            max_size=4,
        )
    )
    def test_garbage_members_never_leak_raw_exceptions(self, ops):
        try:
            msg = decode_message(["BatchRequest", 1, ops])
        except ProtocolError:
            return
        # An empty ops list is the only garbage-free outcome.
        assert msg == BatchRequest(1, ())


class _Wire:
    """The least a ``_Connection`` needs of its owner and of its socket."""

    name = "me"

    def __init__(self):
        self.messages = []
        self.drops = []
        self.down = []
        self.closed = False
        self._handler = lambda message, src: self.messages.append(message)

    def _emit(self, etype, **fields):
        self.drops.append(fields)

    def _connection_made(self, conn):
        self.conn = conn

    def _connection_lost(self, conn, reason):
        self.down.append(reason)

    def get_write_buffer_size(self):
        return 0

    def is_closing(self):
        return self.closed

    def close(self):
        self.closed = True


def feed(conn: _Connection, chunk: bytes) -> None:
    """Put ``chunk`` into ``conn`` as the socket transport does: into the
    view ``get_buffer`` offers, as many reads as that takes, with the view
    still held while ``buffer_updated`` runs."""
    while chunk:
        view = conn.get_buffer(-1)
        assert len(view) > 0
        n = min(len(view), len(chunk))
        view[:n] = chunk[:n]
        conn.buffer_updated(n)
        chunk = chunk[n:]


def connect() -> _Wire:
    wire = _Wire()
    _Connection(wire, peer="peer").connection_made(wire)
    return wire


def receive(*chunks: bytes) -> _Wire:
    """Feed ``chunks`` to a connection as successive ``recv`` results, then
    EOF.  An empty ``recv`` is EOF, so an empty chunk feeds nothing."""
    wire = connect()
    for chunk in chunks:
        feed(wire.conn, chunk)
    wire.conn.connection_lost(None)
    return wire


def framed(msg) -> bytes:
    return _frame(encode_message(msg))


def padding(size: int) -> tuple[ReadRequest, bytes]:
    """A read request whose frame is exactly ``size`` bytes long."""
    short = framed(ReadRequest(1, DatumId.file("")))
    msg = ReadRequest(1, DatumId.file("p" * (size - len(short))))
    frame = framed(msg)
    assert len(frame) == size
    return msg, frame


#: A frame three initial buffers long.
BIG = WriteRequest(2, F, b"a" * (3 * _RECV_BUFFER), write_seq=1)


MALFORMED = {"dst": "me", "kind": "?", "reason": "malformed"}


class TestFraming:
    def test_batch_survives_length_prefixed_framing(self):
        msg = BATCH_SAMPLES[1]
        assert receive(framed(msg)).messages == [msg]

    @settings(max_examples=200, deadline=None)
    @given(
        msgs=st.lists(st.sampled_from(BATCH_SAMPLES + [BIG]), max_size=6),
        data=st.data(),
    )
    def test_any_chunking_delivers_exactly_the_messages_in_order(self, msgs, data):
        """One ``recv`` may carry several frames and one frame may span
        several: cuts fall anywhere, mid-header included, and may repeat.
        ``BIG`` does not fit the initial buffer; whatever the cuts, the
        buffer is back at its initial size once drained, and the next read
        is offered all of it."""
        stream = b"".join(framed(m) for m in msgs)
        cuts = sorted(data.draw(st.lists(st.integers(0, len(stream)), max_size=24)))
        chunks = [stream[a:b] for a, b in zip([0] + cuts, cuts + [len(stream)])]
        wire = receive(*chunks)
        assert wire.messages == msgs
        assert not wire.drops and wire.down == ["eof"]
        assert len(wire.conn.get_buffer(-1)) == len(wire.conn._buf) == _RECV_BUFFER

    @pytest.mark.parametrize("in_first", range(5))
    def test_a_larger_frame_grows_the_buffer_to_fit_exactly_then_shrinks(self, in_first):
        """``in_first`` bytes of the large frame's header fill the initial
        buffer to its edge; the buffer grows to exactly header + body and
        is swapped back once that frame has been parsed."""
        before, pad = padding(_RECV_BUFFER - in_first)
        big = framed(BIG)
        after = BATCH_SAMPLES[0]
        wire = connect()
        feed(wire.conn, pad + big[:-1])
        assert len(wire.conn._buf) == len(big)
        feed(wire.conn, big[-1:] + framed(after))
        assert wire.messages == [before, BIG, after]
        assert len(wire.conn.get_buffer(-1)) == len(wire.conn._buf) == _RECV_BUFFER
        assert not wire.drops and not wire.closed

    def test_truncated_frame_reads_as_eof(self):
        """A truncated tail delivers nothing and is no protocol violation."""
        whole = framed(BATCH_SAMPLES[0])
        for cut in (len(whole) // 2, 2):  # mid-body, mid-header
            wire = receive(framed(BATCH_SAMPLES[2]), whole[:cut])
            assert wire.messages == [BATCH_SAMPLES[2]]
            assert not wire.drops and wire.down == ["eof"]

    @staticmethod
    def rejected(garbage: bytes) -> None:
        """Every frame before the garbage is delivered, none after it, and
        the connection is hung up with one observable drop."""
        before, after = BATCH_SAMPLES[0], BATCH_SAMPLES[3]
        wire = receive(framed(before) + garbage + framed(after), framed(after))
        assert wire.messages == [before]
        assert wire.drops == [MALFORMED]
        assert wire.closed and wire.down == ["malformed"]

    def test_garbage_body_rejected(self):
        body = b"\xff{not json"
        self.rejected(struct.pack(">I", len(body)) + body)

    def test_body_nested_past_the_json_parser_limit_rejected(self):
        """json.loads raises RecursionError, not ValueError, on this; it
        must surface as a malformed frame, not an unhandled exception."""
        body = b"[" * 100_000 + b"]" * 100_000
        self.rejected(struct.pack(">I", len(body)) + body)

    def test_oversized_length_prefix_rejected(self):
        self.rejected(struct.pack(">I", MAX_FRAME + 1) + b"x")

    def test_ill_typed_message_drops_the_connection_naming_its_class(self):
        wire = receive(
            framed(BATCH_SAMPLES[0])
            + _frame(["ReadRequest", "x", 5, [1]])
            + framed(BATCH_SAMPLES[1])
        )
        assert wire.messages == [BATCH_SAMPLES[0]]
        assert wire.drops == [dict(MALFORMED, kind="ReadRequest")]
        assert wire.closed and wire.down == ["malformed"]

    def test_ill_typed_message_larger_than_the_buffer_names_its_class(self):
        wire = receive(
            framed(BATCH_SAMPLES[0])
            + _frame(["WriteRequest", "x" * (2 * _RECV_BUFFER), 5, [1]])
            + framed(BATCH_SAMPLES[1])
        )
        assert wire.messages == [BATCH_SAMPLES[0]]
        assert wire.drops == [dict(MALFORMED, kind="WriteRequest")]
        assert wire.closed and wire.down == ["malformed"]

    def test_oversized_length_prefix_across_the_buffer_edge_rejected(self):
        """Its first two bytes end a full buffer: the claim is refused as
        soon as it is whole, and no buffer is grown for it."""
        before, pad = padding(_RECV_BUFFER - 2)
        wire = receive(pad + struct.pack(">I", MAX_FRAME + 1) + b"x" * 64)
        assert wire.messages == [before]
        assert wire.drops == [MALFORMED]
        assert wire.closed and wire.down == ["malformed"]
        assert len(wire.conn._buf) == _RECV_BUFFER

    def test_a_one_mib_frame_over_a_real_socket(self):
        """Through loopback TCP, then back to the initial buffer."""
        big = WriteRequest(3, F, bytes(range(256)) * 4096, write_seq=1)
        after = BATCH_SAMPLES[0]

        async def scenario():
            listener = TcpServerTransport()
            await listener.start()
            got = asyncio.Queue()
            listener.set_handler(lambda message, src: got.put_nowait(message))
            link = TcpClientTransport("c0", reconnect=False)
            await link.connect(port=listener.port)
            await link.send("server", big)
            await link.send("server", after)
            assert await asyncio.wait_for(got.get(), 10) == big
            assert await asyncio.wait_for(got.get(), 10) == after
            assert len(listener._conns["c0"]._buf) == _RECV_BUFFER
            await link.close()
            await listener.close()

        assert len(framed(big)) > 1024 * 1024
        asyncio.run(scenario())

    def test_oversized_outbound_batch_rejected(self):
        huge = BatchRequest(
            1, (WriteRequest(2, F, b"a" * (MAX_FRAME + 1), write_seq=1),)
        )
        with pytest.raises(RuntimeTransportError):
            _frame(encode_message(huge))
