"""TCP transport: length-prefixed JSON frames, resilient to real failures.

Topology: the server node listens; each client opens one connection and
introduces itself with a hello frame.  The server transport multiplexes
replies (and callbacks/announcements) back over the per-client connection.
Frames are ``4-byte big-endian length + UTF-8 JSON`` bodies produced by
:mod:`repro.protocol.codec`.

Resilience model (DESIGN.md §11): the client runs a connection-lifecycle
state machine (``connecting → up → down → backoff → connecting …``) with
capped exponential backoff and jitter, so a killed or restarted server
costs bounded delay — never a wedged client.  While a connection is down
both sides park outbound frames in a bounded drop-oldest queue and flush
on reconnect.  Every lifecycle transition is emitted as a ``conn.*`` obs
event and every discarded frame as ``transport.drop``; the silent failure
paths of the original demo-grade transport are gone.  Malformed or
oversized frames drop the offending connection cleanly instead of killing
the read loop with an unobserved exception.
"""

from __future__ import annotations

import asyncio
import contextlib
import json
import struct

from repro.errors import ProtocolError, RuntimeTransportError
from repro.obs.events import CONN_DOWN, CONN_RETRY, CONN_UP, TRANSPORT_DROP
from repro.protocol.codec import decode_message, encode_message, wire_tag
from repro.protocol.messages import Message
from repro.runtime import resilience
from repro.runtime.resilience import BackoffPolicy, FrameQueue
from repro.runtime.transport import MessageHandler, _dumps, _ObsMixin
from repro.types import HostId

_HEADER = struct.Struct(">I")
MAX_FRAME = 16 * 1024 * 1024


def _frame(payload: list | dict) -> bytes:
    body = _dumps(payload).encode("utf-8")
    if len(body) > MAX_FRAME:
        raise RuntimeTransportError(f"frame too large: {len(body)} bytes")
    return _HEADER.pack(len(body)) + body


async def _read_frame(reader: asyncio.StreamReader) -> list | dict | None:
    """Read one frame; None on orderly EOF/reset, raises on garbage.

    Raises:
        RuntimeTransportError: oversized length prefix or a body that is
            not valid JSON — the connection cannot be trusted past this
            point and must be dropped.
    """
    try:
        header = await reader.readexactly(_HEADER.size)
        (length,) = _HEADER.unpack(header)
        if length > MAX_FRAME:
            raise RuntimeTransportError(f"frame too large: {length} bytes")
        body = await reader.readexactly(length)
    except (asyncio.IncompleteReadError, ConnectionResetError):
        return None
    try:
        return json.loads(body.decode("utf-8"))
    except (UnicodeDecodeError, ValueError, RecursionError) as exc:
        raise RuntimeTransportError(f"malformed frame: {exc}") from exc


class TcpServerTransport(_ObsMixin):
    """The listening side; one instance serves every connected client.

    A reconnecting client that re-introduces itself displaces its stale
    connection (the old writer is closed, not leaked).  Frames addressed
    to a currently-disconnected client are parked in a bounded per-client
    queue and flushed when it reconnects; overflow drops the oldest frame
    with a ``transport.drop`` event (protocol-equivalent to packet loss).
    """

    def __init__(
        self,
        name: HostId = "server",
        *,
        queue_capacity: int = 64,
        obs=None,
        clock=None,
    ):
        self._name = name
        self._init_obs(obs, clock)
        self._queue_capacity = queue_capacity
        self._handler: MessageHandler | None = None
        self._server: asyncio.Server | None = None
        self._writers: dict[HostId, asyncio.StreamWriter] = {}
        self._pending: dict[HostId, FrameQueue] = {}
        #: Lifetime connection count per peer (the ``conn.up`` attempt field).
        self._conn_counts: dict[HostId, int] = {}
        self._conn_tasks: set[asyncio.Task] = set()
        self._closed = False

    @property
    def name(self) -> HostId:
        """This endpoint's host name."""
        return self._name

    @property
    def port(self) -> int:
        """The bound port (after :meth:`start`)."""
        return self._server.sockets[0].getsockname()[1]

    def connected_peers(self) -> frozenset[HostId]:
        """The names of the currently connected clients."""
        return frozenset(self._writers)

    def set_handler(self, handler: MessageHandler) -> None:
        """Install the inbound-message callback."""
        self._handler = handler

    async def start(self, host: str = "127.0.0.1", port: int = 0) -> None:
        """Bind and start accepting client connections."""
        self._server = await asyncio.start_server(self._on_connection, host, port)

    def _queue_for(self, peer: HostId) -> FrameQueue:
        queue = self._pending.get(peer)
        if queue is None:
            queue = self._pending[peer] = FrameQueue(
                self._queue_capacity,
                on_drop=lambda kind, peer=peer: self._emit(
                    TRANSPORT_DROP, dst=peer, kind=kind, reason="queue_overflow"
                ),
            )
        return queue

    async def _on_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._conn_tasks.add(task)
        peer: HostId | None = None
        reason = "eof"
        try:
            try:
                hello = await _read_frame(reader)
            except RuntimeTransportError:
                hello = None
            if not isinstance(hello, dict) or hello.get("hello") is None:
                return
            peer = hello["hello"]
            stale = self._writers.get(peer)
            if stale is not None and stale is not writer:
                # A reconnecting client displaces its dead connection; close
                # the old writer instead of leaking its fd.
                self._emit(CONN_DOWN, peer=peer, reason="replaced")
                stale.close()
            self._conn_counts[peer] = self._conn_counts.get(peer, 0) + 1
            self._writers[peer] = writer
            self._emit(CONN_UP, peer=peer, attempt=self._conn_counts[peer])
            await self._flush_pending(peer, writer)
            while True:
                try:
                    frame = await _read_frame(reader)
                except RuntimeTransportError:
                    self._emit(TRANSPORT_DROP, dst=self._name, kind="?", reason="malformed")
                    reason = "malformed"
                    break
                if frame is None:
                    break
                try:
                    message = decode_message(frame)
                except ProtocolError:
                    self._emit(
                        TRANSPORT_DROP, dst=self._name, kind=wire_tag(frame), reason="malformed"
                    )
                    reason = "malformed"
                    break
                if self._handler is not None:
                    self._handler(message, peer)
        except asyncio.CancelledError:
            reason = "closed"  # server shutting down mid-read
        finally:
            if peer is not None and self._writers.get(peer) is writer:
                del self._writers[peer]
                self._emit(CONN_DOWN, peer=peer, reason=reason)
            writer.close()
            with contextlib.suppress(Exception):
                await writer.wait_closed()
            if task is not None:
                self._conn_tasks.discard(task)

    async def _flush_pending(self, peer: HostId, writer: asyncio.StreamWriter) -> None:
        queue = self._pending.get(peer)
        if queue is None or not len(queue):
            return
        pending = queue.drain()
        try:
            for frame, _kind in pending:
                writer.write(frame)
            await writer.drain()
        except (ConnectionError, OSError):
            # The fresh connection died mid-flush.  Previously the drained
            # window was silently lost here; requeue it for the next
            # reconnect instead, with any overflow evictions counted
            # exactly once by requeue().  The read loop observes the
            # disconnect itself.
            queue.requeue(pending)

    async def send(self, dst: HostId, message: Message) -> None:
        """Send to a client; queues (bounded) while it is disconnected."""
        frame = _frame(encode_message(message))
        writer = self._writers.get(dst)
        if writer is None:
            if self._closed:
                self._emit(TRANSPORT_DROP, dst=dst, kind=message.kind, reason="closed")
                return
            self._queue_for(dst).push(frame, message.kind)
            return
        try:
            writer.write(frame)
            await writer.drain()
        except (ConnectionError, OSError):
            # The read loop will observe the disconnect; park the frame
            # for redelivery when the client reconnects.
            if self._writers.get(dst) is writer:
                del self._writers[dst]
                self._emit(CONN_DOWN, peer=dst, reason="reset")
            self._queue_for(dst).push(frame, message.kind)

    async def close(self) -> None:
        """Disconnect every client, stop listening, and reap read tasks."""
        self._closed = True
        writers = list(self._writers.values())
        self._writers.clear()
        for writer in writers:
            writer.close()
        for writer in writers:
            with contextlib.suppress(Exception):
                await writer.wait_closed()
        for task in list(self._conn_tasks):
            task.cancel()
        if self._conn_tasks:
            await asyncio.gather(*self._conn_tasks, return_exceptions=True)
        self._conn_tasks.clear()
        # Frames still parked for disconnected peers will never flush now;
        # report each one instead of discarding them silently.
        for peer, queue in self._pending.items():
            for _frame_bytes, kind in queue.drain():
                self._emit(TRANSPORT_DROP, dst=peer, kind=kind, reason="closed")
        self._pending.clear()
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()


class TcpClientTransport(_ObsMixin):
    """A client's connection to the server, with automatic reconnection.

    The transport runs the DESIGN.md §11 state machine: while ``up`` it
    writes frames straight to the socket; on disconnect it transitions
    through ``down → backoff → connecting`` under a :class:`BackoffPolicy`
    until the server answers again, parking outbound frames (engine
    retransmissions included) in a bounded drop-oldest queue that is
    flushed after the hello of the new connection.  Pass
    ``reconnect=False`` for the original single-shot behaviour.
    """

    def __init__(
        self,
        name: HostId,
        server_name: HostId = "server",
        *,
        reconnect: bool = True,
        backoff: BackoffPolicy | None = None,
        queue_capacity: int = 64,
        obs=None,
        clock=None,
    ):
        self._name = name
        self._init_obs(obs, clock)
        self._server_name = server_name
        self._reconnect = reconnect
        self._backoff = backoff or BackoffPolicy()
        self._handler: MessageHandler | None = None
        self._reader: asyncio.StreamReader | None = None
        self._writer: asyncio.StreamWriter | None = None
        self._supervisor: asyncio.Task | None = None
        self._host = "127.0.0.1"
        self._port = 0
        self._state = resilience.DOWN
        self._up_event: asyncio.Event | None = None
        self._queue = FrameQueue(
            queue_capacity,
            on_drop=lambda kind: self._emit(
                TRANSPORT_DROP, dst=server_name, kind=kind, reason="queue_overflow"
            ),
        )
        #: Successful connections established over this transport's life.
        self.connects = 0

    @property
    def name(self) -> HostId:
        """This endpoint's host name."""
        return self._name

    @property
    def state(self) -> str:
        """The current connection-lifecycle state (``resilience.UP`` etc.)."""
        return self._state

    def set_handler(self, handler: MessageHandler) -> None:
        """Install the inbound-message callback."""
        self._handler = handler

    def _transition(self, new: str) -> None:
        if new not in resilience.TRANSITIONS[self._state] and new != self._state:
            raise RuntimeTransportError(
                f"illegal connection transition {self._state} -> {new}"
            )
        self._state = new
        if self._up_event is not None:
            if new == resilience.UP:
                self._up_event.set()
            else:
                self._up_event.clear()

    async def wait_up(self, timeout: float | None = None) -> None:
        """Block until the connection is up (for tests and workloads)."""
        if self._up_event is None:
            self._up_event = asyncio.Event()
            if self._state == resilience.UP:
                self._up_event.set()
        await asyncio.wait_for(self._up_event.wait(), timeout)

    async def connect(self, host: str = "127.0.0.1", port: int = 0) -> None:
        """Connect, introduce ourselves, and start the reconnect supervisor.

        Raises on first-connection failure (the caller learns immediately
        that the address is wrong); later disconnects are handled by the
        supervisor instead.
        """
        self._host, self._port = host, port
        self._transition(resilience.CONNECTING)
        try:
            await self._open(attempt=1)
        except OSError:
            self._transition(resilience.DOWN)
            raise
        self._supervisor = asyncio.get_running_loop().create_task(self._supervise())

    async def _open(self, attempt: int) -> None:
        reader, writer = await asyncio.open_connection(self._host, self._port)
        first = True
        # Flush until the queue is truly empty: frames pushed while we
        # await a drain() land in the queue (the state is not UP yet), and
        # a single-pass flush would strand them there for the life of the
        # connection — parked but never sent until the *next* disconnect.
        while first or len(self._queue):
            pending = self._queue.drain()
            try:
                if first:
                    writer.write(_frame({"hello": self._name}))
                for frame, _kind in pending:
                    writer.write(frame)
                await writer.drain()
            except (ConnectionError, OSError):
                # Connected but died before the parked window flushed: the
                # whole window goes back to the queue in order (frames sent
                # while we awaited the drain stay behind it), so a reconnect
                # deterministically either flushes the in-flight window or
                # keeps it — it never silently vanishes.  The caller sees the
                # OSError and transitions to DOWN as usual.
                self._queue.requeue(pending)
                writer.close()
                with contextlib.suppress(Exception):
                    await writer.wait_closed()
                raise
            first = False
        self._reader, self._writer = reader, writer
        self.connects += 1
        self._transition(resilience.UP)
        self._emit(CONN_UP, peer=self._server_name, attempt=attempt)

    async def _supervise(self) -> None:
        """Own the connection for life: read while up, back off while down."""
        while True:
            reason = await self._read_until_disconnect()
            writer = self._mark_down(reason)
            if writer is not None:
                with contextlib.suppress(Exception):
                    await writer.wait_closed()
            if not self._reconnect:
                return
            attempt = 0
            while True:
                delay = self._backoff.delay(attempt)
                attempt += 1
                self._transition(resilience.BACKOFF)
                self._emit(CONN_RETRY, peer=self._server_name, attempt=attempt, delay=delay)
                await asyncio.sleep(delay)
                self._transition(resilience.CONNECTING)
                try:
                    await self._open(attempt)
                    break
                except OSError:
                    self._transition(resilience.DOWN)

    async def _read_until_disconnect(self) -> str:
        """Dispatch inbound frames until the connection dies; returns why."""
        reader = self._reader
        if reader is None:
            return "reset"
        while True:
            try:
                frame = await _read_frame(reader)
            except RuntimeTransportError:
                self._emit(TRANSPORT_DROP, dst=self._name, kind="?", reason="malformed")
                return "malformed"
            except OSError:
                return "reset"
            if frame is None:
                return "eof"
            try:
                message = decode_message(frame)
            except ProtocolError:
                self._emit(
                    TRANSPORT_DROP, dst=self._name, kind=wire_tag(frame), reason="malformed"
                )
                return "malformed"
            if self._handler is not None:
                self._handler(message, self._server_name)

    def _mark_down(self, reason: str) -> asyncio.StreamWriter | None:
        """Drop the dead connection; returns the writer still to be awaited."""
        writer, self._reader, self._writer = self._writer, None, None
        self._transition(resilience.DOWN)
        self._emit(CONN_DOWN, peer=self._server_name, reason=reason)
        if writer is not None:
            writer.close()
        return writer

    def abort(self, reason: str = "forced") -> None:
        """Forcibly drop the live connection (chaos hook).

        The supervisor observes the loss and reconnects under backoff —
        exactly as if the network had reset the connection.
        """
        if self._state == resilience.UP and self._writer is not None:
            transport = self._writer.transport
            if transport is not None:
                transport.abort()

    async def send(self, dst: HostId, message: Message) -> None:
        """Send to the server; queues (bounded) while the link is down."""
        if dst != self._server_name:
            return
        frame = _frame(encode_message(message))
        writer = self._writer
        if self._state == resilience.UP and writer is not None:
            try:
                writer.write(frame)
                await writer.drain()
                return
            except (ConnectionError, OSError):
                pass  # the supervisor will notice; park the frame meanwhile
        if self._state == resilience.CLOSED:
            self._emit(TRANSPORT_DROP, dst=dst, kind=message.kind, reason="closed")
            return
        self._queue.push(frame, message.kind)

    async def close(self) -> None:
        """Tear down the connection, awaiting the reader and the socket."""
        if self._state == resilience.CLOSED:
            return
        if self._supervisor is not None:
            self._supervisor.cancel()
            with contextlib.suppress(asyncio.CancelledError):
                await self._supervisor
            self._supervisor = None
        writer, self._reader, self._writer = self._writer, None, None
        self._transition(resilience.CLOSED)
        # Whatever is still parked will never be sent; account for every
        # frame rather than letting the queue vanish with the transport.
        for _frame_bytes, kind in self._queue.drain():
            self._emit(TRANSPORT_DROP, dst=self._server_name, kind=kind, reason="closed")
        if writer is not None:
            writer.close()
            with contextlib.suppress(Exception):
                await writer.wait_closed()
