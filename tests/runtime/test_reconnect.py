"""Reconnection and frame-fuzz tests for the TCP transport.

A killed or restarted server must cost a connected client bounded delay,
never a wedged operation (the §5 fault model on real sockets): the client
transport walks ``down → backoff → connecting → up``, parks outbound
frames in its bounded queue, and flushes them after the hello of the new
connection.  Malformed, oversized and truncated frames — from either
side — drop the offending connection cleanly and observably instead of
killing the read loop.  A peer that stops reading costs at most one full
queue of held frames, every other one a counted drop, and never holds up
``close()``.
"""

import asyncio
import contextlib
import socket
import struct

import pytest

from repro.errors import RuntimeTransportError
from repro.lease.policy import FixedTermPolicy
from repro.obs.bus import TraceBus
from repro.obs.events import CONN_DOWN, CONN_RETRY, CONN_UP, TRANSPORT_DROP
from repro.protocol.client import ClientConfig
from repro.protocol.messages import ReadRequest, WriteRequest
from repro.protocol.server import ServerConfig
from repro.runtime import LeaseClientNode, LeaseServerNode
from repro.runtime import resilience
from repro.runtime.resilience import BackoffPolicy
from repro.runtime.tcp import MAX_FRAME, TcpClientTransport, TcpServerTransport, _frame
from repro.storage.store import FileStore
from repro.types import DatumId

FAST_BACKOFF = dict(initial=0.02, cap=0.1, jitter=0.0)


def run(coro):
    return asyncio.run(coro)


async def start_server(store, bus, port=0, term=1.0, recovery_delay=0.0):
    transport = TcpServerTransport(obs=bus)
    await transport.start(port=port)
    server = LeaseServerNode(
        transport,
        store,
        FixedTermPolicy(term),
        config=ServerConfig(
            epsilon=0.01, announce_period=0.2, sweep_period=5.0,
            recovery_delay=recovery_delay,
        ),
        obs=bus,
    )
    return server


async def make_client(name, port, bus, **transport_kwargs):
    transport_kwargs.setdefault("backoff", BackoffPolicy(**FAST_BACKOFF))
    transport = TcpClientTransport(name, obs=bus, **transport_kwargs)
    await transport.connect(port=port)
    client = LeaseClientNode(
        transport,
        "server",
        config=ClientConfig(
            epsilon=0.01, rpc_timeout=0.2, write_timeout=0.5, max_retries=60
        ),
        obs=bus,
    )
    return transport, client


async def open_raw(port, hello=None):
    """A raw socket speaking (possibly broken) wire format at the server."""
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    if hello is not None:
        writer.write(_frame({"hello": hello}))
        await writer.drain()
    return reader, writer


async def close_raw(writer):
    writer.close()
    try:
        await writer.wait_closed()
    except (ConnectionError, OSError):
        pass


class TestReconnect:
    def test_client_survives_server_restart(self):
        async def scenario():
            bus = TraceBus(capacity=None)
            store = FileStore()
            store.create_file("/doc", b"v1")
            datum = store.file_datum("/doc")
            server = await start_server(store, bus)
            port = server.transport.port
            transport, client = await make_client("c0", port, bus)

            assert await client.read(datum) == (1, b"v1")
            await server.close()
            server = await start_server(store, bus, port=port)
            await transport.wait_up(timeout=5.0)
            assert transport.connects >= 2
            assert await asyncio.wait_for(client.read(datum), 5.0) == (1, b"v1")

            retries = bus.events(CONN_RETRY)
            assert retries and all(e["delay"] <= 0.1 for e in retries)
            assert any(e["reason"] in ("eof", "reset") for e in bus.events(CONN_DOWN))
            client_ups = [e for e in bus.events(CONN_UP) if e["host"] == "c0"]
            assert len(client_ups) >= 2  # original connection + reconnect
            await client.close()
            await server.close()

        run(scenario())

    def test_operation_issued_while_down_completes_after_restart(self):
        async def scenario():
            bus = TraceBus(capacity=None)
            store = FileStore()
            store.create_file("/doc", b"v1")
            datum = store.file_datum("/doc")
            server = await start_server(store, bus, term=0.3)
            port = server.transport.port
            transport, client = await make_client("c0", port, bus)

            await client.read(datum)
            await server.close()
            # Issued while the link is down: the request frame parks in the
            # client's queue and flushes after the reconnect hello.
            pending = asyncio.get_running_loop().create_task(
                client.write(datum, b"v2")
            )
            await asyncio.sleep(0.1)
            assert not pending.done()
            server = await start_server(
                store, bus, port=port, term=0.3, recovery_delay=0.3
            )
            assert await asyncio.wait_for(pending, 10.0) == 2
            assert await client.read(datum) == (2, b"v2")
            await client.close()
            await server.close()

        run(scenario())

    def test_no_reconnect_mode_stays_down(self):
        async def scenario():
            bus = TraceBus(capacity=None)
            store = FileStore()
            store.create_file("/doc", b"v1")
            server = await start_server(store, bus)
            port = server.transport.port
            transport, client = await make_client(
                "c0", port, bus, reconnect=False
            )
            await client.read(store.file_datum("/doc"))
            await server.close()
            await asyncio.sleep(0.2)
            assert transport.state == resilience.DOWN
            assert not bus.events(CONN_RETRY)
            await client.close()

        run(scenario())

    def test_first_connect_failure_raises(self):
        async def scenario():
            transport = TcpClientTransport("c0")
            with pytest.raises(OSError):
                await transport.connect(port=1)  # nothing listens there
            assert transport.state == resilience.DOWN
            await transport.close()
            assert transport.state == resilience.CLOSED

        run(scenario())

    def test_send_after_close_is_an_observable_drop(self):
        async def scenario():
            bus = TraceBus(capacity=None)
            store = FileStore()
            server = await start_server(store, bus)
            transport = TcpClientTransport("c0", obs=bus)
            await transport.connect(port=server.transport.port)
            await transport.close()
            await transport.send("server", ReadRequest(1, DatumId.file("f")))
            drops = bus.events(TRANSPORT_DROP)
            assert any(e["reason"] == "closed" for e in drops)
            await server.close()

        run(scenario())

    def test_client_queue_overflow_drops_oldest_observably(self):
        async def scenario():
            bus = TraceBus(capacity=None)
            store = FileStore()
            server = await start_server(store, bus)
            port = server.transport.port
            transport = TcpClientTransport(
                "c0", queue_capacity=2, obs=bus,
                backoff=BackoffPolicy(initial=5.0, cap=5.0, jitter=0.0),
            )
            await transport.connect(port=port)
            await server.close()
            await asyncio.sleep(0.05)  # let the supervisor notice the EOF
            for i in range(4):
                await transport.send("server", ReadRequest(i, DatumId.file("f")))
            overflow = [
                e for e in bus.events(TRANSPORT_DROP)
                if e["reason"] == "queue_overflow"
            ]
            assert len(overflow) == 2
            assert all(e["kind"] == "lease/read" for e in overflow)
            await transport.close()

        run(scenario())

    def test_server_queues_frames_for_disconnected_peer(self):
        async def scenario():
            bus = TraceBus(capacity=None)
            store = FileStore()
            server = await start_server(store, bus)
            transport = server.transport
            # Never-connected peer: frames park in a bounded queue.
            for i in range(70):
                await transport.send("ghost", ReadRequest(i, DatumId.file("f")))
            overflow = [
                e for e in bus.events(TRANSPORT_DROP)
                if e["reason"] == "queue_overflow" and e["dst"] == "ghost"
            ]
            assert len(overflow) == 70 - 64  # default capacity
            await server.close()

        run(scenario())

    def test_reconnecting_client_displaces_stale_connection(self):
        async def scenario():
            bus = TraceBus(capacity=None)
            store = FileStore()
            server = await start_server(store, bus)
            port = server.transport.port
            reader1, writer1 = await open_raw(port, hello="dup")
            await asyncio.sleep(0.05)
            assert "dup" in server.transport.connected_peers()
            reader2, writer2 = await open_raw(port, hello="dup")
            await asyncio.sleep(0.05)
            # The second hello displaced the first connection: its writer
            # was closed server-side (EOF on our end), not leaked.
            assert await reader1.read() == b""
            assert any(
                e["reason"] == "replaced" and e["peer"] == "dup"
                for e in bus.events(CONN_DOWN)
            )
            assert "dup" in server.transport.connected_peers()
            await close_raw(writer2)
            await close_raw(writer1)
            await server.close()

        run(scenario())


@contextlib.asynccontextmanager
async def deaf_peer(side, bus, queue_capacity=8):
    """A ``side`` transport connected to a peer that never reads a byte.

    Yields ``(transport, dst, queue)``: sends to ``dst`` pile up in the
    socket buffers, then in ``queue()``.
    """
    if side == "client":
        # Never accepted: the kernel completes the handshake on its own.
        peer = socket.socket()
        peer.bind(("127.0.0.1", 0))
        peer.listen(1)
        transport = TcpClientTransport("c0", queue_capacity=queue_capacity, obs=bus)
        await transport.connect(port=peer.getsockname()[1])
        dst, queue = "server", lambda: transport._queue
    else:
        transport = TcpServerTransport(queue_capacity=queue_capacity, obs=bus)
        await transport.start()
        peer = socket.create_connection(("127.0.0.1", transport.port))
        peer.sendall(_frame({"hello": "deaf"}))
        while "deaf" not in transport.connected_peers():
            await asyncio.sleep(0.01)
        dst, queue = "deaf", lambda: transport._pending.get("deaf", ())
    try:
        yield transport, dst, queue
    finally:
        peer.close()


BIG_WRITE = WriteRequest(1, DatumId.file("f"), b"x" * 60_000, write_seq=1)


@pytest.mark.parametrize("side", ["client", "server"])
class TestPeerThatStopsReading:
    def test_held_frames_are_bounded_and_every_other_one_is_a_counted_drop(self, side):
        async def scenario():
            bus = TraceBus(capacity=None)
            async with deaf_peer(side, bus) as (transport, dst, queue):
                conn = transport._conns[dst]
                written = 0
                socket_write = conn.transport.write

                def counting_write(data):
                    nonlocal written
                    written += 1
                    socket_write(data)

                conn.transport.write = counting_write
                tasks = len(asyncio.all_tasks())
                sends = 400

                async def send_all():
                    for _ in range(sends):
                        await transport.send(dst, BIG_WRITE)
                        await asyncio.sleep(0)  # let the socket take what it can

                await asyncio.wait_for(send_all(), 10.0)
                assert len(asyncio.all_tasks()) == tasks  # no send waits in a Task
                overflow = [
                    e for e in bus.events(TRANSPORT_DROP) if e["reason"] == "queue_overflow"
                ]
                assert len(queue()) == 8
                assert overflow and all(e["kind"] == "lease/write" for e in overflow)
                assert written + len(queue()) + len(overflow) == sends
                await transport.close()

        run(scenario())

    def test_close_returns_and_reports_the_unsent_buffer(self, side):
        async def scenario():
            bus = TraceBus(capacity=None)
            async with deaf_peer(side, bus) as (transport, dst, queue):
                sends = [
                    asyncio.ensure_future(transport.send(dst, BIG_WRITE)) for _ in range(100)
                ]
                await asyncio.sleep(0.1)
                parked = len(queue())
                await asyncio.wait_for(transport.close(), 2.0)
                closed = [
                    e["kind"] for e in bus.events(TRANSPORT_DROP) if e["reason"] == "closed"
                ]
                # Every parked frame by kind, and the socket's write buffer
                # (bytes, no longer frames) as one more.
                assert sorted(closed) == ["?"] + ["lease/write"] * parked
                for send in sends:
                    send.cancel()

        run(scenario())


class TestFrameFuzz:
    def test_malformed_json_drops_connection_server_survives(self):
        async def scenario():
            bus = TraceBus(capacity=None)
            store = FileStore()
            store.create_file("/doc", b"v1")
            server = await start_server(store, bus)
            port = server.transport.port
            reader, writer = await open_raw(port, hello="evil")
            garbage = b"\x00not json {"
            writer.write(struct.pack(">I", len(garbage)) + garbage)
            await writer.drain()
            assert await reader.read() == b""  # dropped us
            drops = bus.events(TRANSPORT_DROP)
            assert any(e["reason"] == "malformed" for e in drops)
            assert any(
                e["reason"] == "malformed" and e["peer"] == "evil"
                for e in bus.events(CONN_DOWN)
            )
            # an honest client is still served
            _, client = await make_client("c0", port, bus)
            assert await client.read(store.file_datum("/doc")) == (1, b"v1")
            await close_raw(writer)
            await client.close()
            await server.close()

        run(scenario())

    def test_oversized_frame_drops_connection(self):
        async def scenario():
            bus = TraceBus(capacity=None)
            store = FileStore()
            store.create_file("/doc", b"v1")
            server = await start_server(store, bus)
            port = server.transport.port
            reader, writer = await open_raw(port, hello="evil")
            writer.write(struct.pack(">I", MAX_FRAME + 1))
            await writer.drain()
            assert await reader.read() == b""
            assert any(
                e["reason"] == "malformed" for e in bus.events(TRANSPORT_DROP)
            )
            await close_raw(writer)
            await server.close()

        run(scenario())

    def test_truncated_frame_reads_as_eof(self):
        async def scenario():
            bus = TraceBus(capacity=None)
            store = FileStore()
            server = await start_server(store, bus)
            port = server.transport.port
            reader, writer = await open_raw(port, hello="partial")
            writer.write(struct.pack(">I", 1000) + b'{"half')
            await writer.drain()
            await close_raw(writer)
            await asyncio.sleep(0.05)
            assert any(
                e["reason"] == "eof" and e["peer"] == "partial"
                for e in bus.events(CONN_DOWN)
            )
            assert "partial" not in server.transport.connected_peers()
            await server.close()

        run(scenario())

    def test_valid_json_invalid_message_drops_connection(self):
        """Valid JSON, not a valid message: the drop event names the class
        the frame claimed to be, or ``?`` when it claimed none we know."""

        async def scenario():
            bus = TraceBus(capacity=None)
            store = FileStore()
            server = await start_server(store, bus)
            port = server.transport.port
            frames = {
                "ReadRequest": ["ReadRequest", "x", 5, [1]],  # ill-typed fields
                "?": ["lease/nonsense", 1],  # unknown tag
            }
            for frame in frames.values():
                reader, writer = await open_raw(port, hello="evil")
                writer.write(_frame(frame))
                await writer.drain()
                assert await reader.read() == b""
                await close_raw(writer)
            kinds = [
                e["kind"] for e in bus.events(TRANSPORT_DROP) if e["reason"] == "malformed"
            ]
            assert kinds == list(frames)
            await server.close()

        run(scenario())

    def test_ill_typed_reply_drops_connection_and_client_recovers(self):
        """Regression: a well-formed JSON frame with ill-typed fields used
        to decode, raise inside the engine and kill the client's
        supervisor — transport ``UP``, nobody reading, no reconnect ever."""

        async def scenario():
            bus = TraceBus(capacity=None)
            store = FileStore()
            store.create_file("/doc", b"v1")
            datum = store.file_datum("/doc")
            sent = asyncio.Event()

            async def hostile(reader, writer):
                try:
                    header = await reader.readexactly(4)
                    await reader.readexactly(struct.unpack(">I", header)[0])  # the hello
                    writer.write(_frame(["ReadReply", "x", 5, 1, None, 0.0, None, None]))
                    await writer.drain()
                    sent.set()
                    await reader.read()  # until the client hangs up
                finally:
                    await close_raw(writer)

            hostile_server = await asyncio.start_server(hostile, "127.0.0.1", 0)
            port = hostile_server.sockets[0].getsockname()[1]
            transport, client = await make_client("c0", port, bus)
            await asyncio.wait_for(sent.wait(), 5.0)
            hostile_server.close()
            await hostile_server.wait_closed()
            # From here the same address serves normally.
            server = await start_server(store, bus, port=port)

            assert await asyncio.wait_for(client.read(datum), 5.0) == (1, b"v1")
            assert transport.connects >= 2
            drops = [e for e in bus.events(TRANSPORT_DROP) if e["host"] == "c0"]
            assert [(e["reason"], e["kind"]) for e in drops] == [("malformed", "ReadReply")]
            assert any(
                e["reason"] == "malformed" and e["host"] == "c0"
                for e in bus.events(CONN_DOWN)
            )
            await client.close()
            await server.close()

        run(scenario())

    def test_client_drops_malformed_server_frame_and_reconnects(self):
        async def scenario():
            bus = TraceBus(capacity=None)
            hellos = 0

            async def hostile(reader, writer):
                nonlocal hellos
                hellos += 1
                try:
                    await reader.readexactly(4)  # swallow the hello header...
                    garbage = b"}{broken"
                    writer.write(struct.pack(">I", len(garbage)) + garbage)
                    await writer.drain()
                    await reader.read()  # wait for the client to hang up
                finally:
                    await close_raw(writer)

            hostile_server = await asyncio.start_server(hostile, "127.0.0.1", 0)
            port = hostile_server.sockets[0].getsockname()[1]
            transport = TcpClientTransport(
                "c0", obs=bus, backoff=BackoffPolicy(**FAST_BACKOFF)
            )
            await transport.connect(port=port)
            await asyncio.sleep(0.3)
            assert any(
                e["reason"] == "malformed" for e in bus.events(TRANSPORT_DROP)
            )
            assert any(
                e["reason"] == "malformed" for e in bus.events(CONN_DOWN)
            )
            assert hellos >= 2  # it kept retrying under backoff
            await transport.close()
            await asyncio.sleep(0.05)  # let the hostile handlers see EOF
            hostile_server.close()
            await hostile_server.wait_closed()

        run(scenario())

    def test_frame_larger_than_max_refused_at_send(self):
        with pytest.raises(RuntimeTransportError, match="frame too large"):
            _frame({"pad": "x" * (MAX_FRAME + 1)})
