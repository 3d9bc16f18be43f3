"""TCP transport: length-prefixed JSON frames, resilient to real failures.

Topology: the server node listens; each client opens one connection and
introduces itself with a hello frame.  The server transport multiplexes
replies (and callbacks/announcements) back over the per-client connection.
Frames are ``4-byte big-endian length + UTF-8 JSON`` bodies produced by
:mod:`repro.protocol.codec`.

Both ends put the same thing on a socket: one :class:`_Connection`, an
``asyncio.BufferedProtocol`` that receives into one buffer of its own and
parses every complete frame in place (:func:`_take_frames`), dispatching
it on the spot — no reader task, no stream, and no allocation per read:
asyncio's plain ``Protocol`` path would ``recv`` a fresh 256 KiB ``bytes``
for every readable event (DESIGN.md §10, *The receive path*).  ``send`` never
waits: a frame is written
straight to the socket transport when the connection is up and not
``pause_writing``-paused, and otherwise parked in the peer's bounded
drop-oldest queue, to go out FIFO — ahead of anything newer — on
``resume_writing`` or after the hello of the next connection.

Resilience model (DESIGN.md §11): the client runs a connection-lifecycle
state machine (``connecting → up → down → backoff → connecting …``) under
capped exponential backoff with jitter, so a killed or restarted server
costs bounded delay — never a wedged client.  Every transition is a
``conn.*`` obs event and every discarded frame a ``transport.drop``.  A
malformed or oversized frame drops the offending connection cleanly; a
peer that stops reading costs at most the socket buffers plus one full
queue, and never holds up ``close()``.
"""

from __future__ import annotations

import asyncio
import contextlib
import struct

from repro.errors import ProtocolError, RuntimeTransportError
from repro.obs.events import CONN_DOWN, CONN_RETRY, CONN_UP, TRANSPORT_DROP
from repro.protocol.codec import decode_message, encode_message, wire_tag
from repro.protocol.messages import Message
from repro.runtime import resilience
from repro.runtime.resilience import BackoffPolicy, FrameQueue
from repro.runtime.transport import _dumps, _EndpointBase, _loads
from repro.types import HostId

_HEADER = struct.Struct(">I")
_HEADER_SIZE = _HEADER.size
_unpack_header = _HEADER.unpack_from
MAX_FRAME = 16 * 1024 * 1024
#: The receive buffer each connection starts with and returns to once a
#: larger frame has been parsed out of it (DESIGN.md §10, *The receive path*).
_RECV_BUFFER = 16 * 1024


def _frame(payload: list | dict) -> bytes:
    body = _dumps(payload).encode("utf-8")
    if len(body) > MAX_FRAME:
        raise RuntimeTransportError(f"frame too large: {len(body)} bytes")
    return _HEADER.pack(len(body)) + body


def _take_frames(data: bytes | bytearray, start: int, end: int) -> tuple[list, int, bool]:
    """Parse every complete frame in ``data[start:end]``.

    Returns the frames' JSON values in order, where the unparsed bytes now
    begin, and whether the bytes from there on are garbage — an oversized
    length prefix or a body that is not valid JSON — in which case the
    connection cannot be trusted past the returned frames and must be
    dropped.  An incomplete tail (mid-header or mid-body) is left for the
    next read.
    """
    frames = []
    try:
        while end - start >= _HEADER_SIZE:
            (length,) = _unpack_header(data, start)
            if length > MAX_FRAME:
                raise ValueError(f"frame too large: {length} bytes")
            stop = start + _HEADER_SIZE + length
            if stop > end:
                break
            frames.append(_loads(data[start + _HEADER_SIZE : stop].decode("utf-8")))
            start = stop
    except (ValueError, RecursionError):  # not UTF-8, not JSON, nested too deep
        return frames, start, True
    return frames, start, False


class _Connection(asyncio.BufferedProtocol):
    """One framed TCP connection; both transports put exactly this on a socket.

    The socket transport reads straight into ``_buf``: ``_buf[_start:_end]``
    is what arrived and is not parsed yet (at most one partial frame), and
    ``get_buffer`` offers the free space after it.  When a read completes
    the last frame, both offsets go back to 0 with no copy.  Only a full
    buffer moves its partial frame to the front, into a new buffer of
    exactly that frame's size if it is larger than ``_RECV_BUFFER``; that
    buffer is swapped back for one of ``_RECV_BUFFER`` once drained.  A
    buffer is replaced, never resized, because the transport still holds
    the view it read into while ``buffer_updated`` runs.

    The owning transport supplies ``_handler``, ``_emit``, ``name``,
    ``_parked(peer)`` (the peer's :class:`FrameQueue`, if any) and the
    ``_connection_made`` / ``_hello`` / ``_connection_lost`` hooks.
    """

    def __init__(self, owner, peer: HostId | None = None):
        self._owner = owner
        #: Who is at the other end; on the listening side, None until hello.
        self.peer = peer
        self.transport: asyncio.Transport | None = None
        #: Up and not paused by the socket transport's flow control.
        self.writable = False
        #: Set once the socket is closed (``connection_lost`` has run).
        self.lost = asyncio.Event()
        #: Why *we* hung up; None when the peer or the network did.
        self._hung_up: str | None = None
        self._buf = bytearray(_RECV_BUFFER)
        self._view = memoryview(self._buf)
        self._start = self._end = 0

    def connection_made(self, transport) -> None:
        self.transport = transport
        self.writable = True
        self._owner._connection_made(self)

    def get_buffer(self, sizehint: int) -> memoryview:
        return self._view[self._end :] if self._end else self._view

    def buffer_updated(self, nbytes: int) -> None:
        end = self._end + nbytes
        if self._hung_up is not None:
            self._start = self._end = 0  # nothing that arrives after a hang-up is delivered
            return
        frames, start, malformed = _take_frames(self._buf, self._start, end)
        if start == end or malformed:  # drained (the common case), or the rest is garbage
            self._start = self._end = 0
            if len(self._buf) != _RECV_BUFFER:
                self._move_to_front(0, 0)
        elif end == len(self._buf):  # full, and ending in a partial frame
            self._move_to_front(start, end)
        else:
            self._start, self._end = start, end
        owner = self._owner
        kind = "?"
        for frame in frames:
            if self._hung_up is not None:
                return
            if self.peer is None:
                owner._hello(self, frame)
                continue
            try:
                message = decode_message(frame)
            except ProtocolError:
                malformed, kind = True, wire_tag(frame)
                break
            if owner._handler is not None:
                owner._handler(message, self.peer)
        if malformed:
            owner._emit(TRANSPORT_DROP, dst=owner.name, kind=kind, reason="malformed")
            self.hang_up("malformed")

    def _move_to_front(self, start: int, end: int) -> None:
        """Move ``_buf[start:end]``, a partial frame or nothing, to the front
        of a buffer of ``_RECV_BUFFER`` bytes or, if that frame is larger,
        of exactly its size: this buffer if it has that size, else a new one."""
        tail = end - start
        size = _RECV_BUFFER
        if tail >= _HEADER_SIZE:  # _take_frames has capped the length
            size = max(size, _HEADER_SIZE + _unpack_header(self._buf, start)[0])
        view = self._view
        if size != len(self._buf):
            self._buf = bytearray(size)
            self._view = memoryview(self._buf)
        self._view[:tail] = view[start:end]
        self._start, self._end = 0, tail

    def pause_writing(self) -> None:
        self.writable = False

    def resume_writing(self) -> None:
        self.writable = True
        self.flush()

    def write(self, frame: bytes) -> bool:
        """Hand ``frame`` to the socket unless it must be parked instead."""
        if self.writable and not self.transport.is_closing():
            self.transport.write(frame)
            return True
        return False

    def flush(self) -> None:
        """Write the parked frames, oldest first, for as long as we may."""
        queue = self._owner._parked(self.peer)
        pending = queue.drain() if queue else ()
        for i, (frame, _kind) in enumerate(pending):
            if not self.write(frame):
                queue.requeue(pending[i:])
                return

    def hang_up(self, reason: str) -> None:
        """Close from our side; ``connection_lost`` reports ``reason``.

        A write buffer nobody drains (the peer stopped reading) would hold a
        graceful close forever: it is discarded, observably, by an abort.
        """
        if self._hung_up is not None:
            return
        self._hung_up = reason
        self.writable = False
        if self.transport.get_write_buffer_size():
            self._owner._emit(TRANSPORT_DROP, dst=self.peer or "?", kind="?", reason=reason)
            self.transport.abort()
        else:
            self.transport.close()

    def connection_lost(self, exc: Exception | None) -> None:
        self.writable = False
        reason = self._hung_up or ("eof" if exc is None else "reset")
        self._owner._connection_lost(self, reason)
        self.lost.set()


class _TcpTransport(_EndpointBase):
    """What both ends share: a connection and a parked queue per peer, one send."""

    def __init__(self, name: HostId, queue_capacity: int, obs, clock):
        super().__init__(name, obs, clock)
        self._queue_capacity = queue_capacity
        #: The live connection to each peer that has been introduced.
        self._conns: dict[HostId, _Connection] = {}
        self._pending: dict[HostId, FrameQueue] = {}
        self._closed = False

    def _queue_for(self, peer: HostId) -> FrameQueue:
        queue = self._pending.get(peer)
        if queue is None:
            queue = self._pending[peer] = FrameQueue(
                self._queue_capacity,
                on_drop=lambda kind: self._emit(
                    TRANSPORT_DROP, dst=peer, kind=kind, reason="queue_overflow"
                ),
            )
        return queue

    def _parked(self, peer: HostId) -> FrameQueue | None:
        return self._pending.get(peer)

    def _introduced(self, conn: _Connection, attempt: int) -> None:
        # Registered and flushed in one callback: a frame sent from here on is
        # written behind the parked window, never parked behind a live link.
        self._conns[conn.peer] = conn
        self._emit(CONN_UP, peer=conn.peer, attempt=attempt)
        conn.flush()

    def _connection_lost(self, conn: _Connection, reason: str) -> None:
        if self._conns.get(conn.peer) is conn:  # else displaced, or let go by close()
            del self._conns[conn.peer]
            self._emit(CONN_DOWN, peer=conn.peer, reason=reason)

    async def send(self, dst: HostId, message: Message) -> None:
        """Send to ``dst``; parks (bounded) while it cannot take the frame."""
        frame = _frame(encode_message(message))
        conn = self._conns.get(dst)
        if conn is not None and conn.write(frame):
            return
        if self._closed:
            self._emit(TRANSPORT_DROP, dst=dst, kind=message.kind, reason="closed")
            return
        self._queue_for(dst).push(frame, message.kind)

    async def _hang_up_all(self, conns: list[_Connection]) -> None:
        """The tail of ``close()``: drop ``conns``, report what stays unsent."""
        for conn in conns:
            conn.hang_up("closed")
        for conn in conns:
            await conn.lost.wait()
        # Frames still parked will never flush now; report each one
        # instead of letting the queue vanish with the transport.
        for peer, queue in self._pending.items():
            for _frame_bytes, kind in queue.drain():
                self._emit(TRANSPORT_DROP, dst=peer, kind=kind, reason="closed")


class TcpServerTransport(_TcpTransport):
    """The listening side; one instance serves every connected client.

    A reconnecting client that re-introduces itself displaces its stale
    connection (the old socket is closed, not leaked).  Frames addressed
    to a client that is disconnected — or connected but not reading —
    are parked in a bounded per-client queue and flushed when it
    reconnects or resumes; overflow drops the oldest frame with a
    ``transport.drop`` event (protocol-equivalent to packet loss).
    """

    def __init__(
        self,
        name: HostId = "server",
        *,
        queue_capacity: int = 64,
        obs=None,
        clock=None,
    ):
        super().__init__(name, queue_capacity, obs, clock)
        self._server: asyncio.Server | None = None
        #: Every open connection, including those yet to say hello.
        self._accepted: set[_Connection] = set()
        #: Lifetime connection count per peer (the ``conn.up`` attempt field).
        self._conn_counts: dict[HostId, int] = {}

    @property
    def port(self) -> int:
        """The bound port (after :meth:`start`)."""
        return self._server.sockets[0].getsockname()[1]

    def connected_peers(self) -> frozenset[HostId]:
        """The names of the currently connected clients."""
        return frozenset(self._conns)

    async def start(self, host: str = "127.0.0.1", port: int = 0) -> None:
        """Bind and start accepting client connections."""
        loop = asyncio.get_running_loop()
        self._server = await loop.create_server(lambda: _Connection(self), host, port)

    def _connection_made(self, conn: _Connection) -> None:
        self._accepted.add(conn)
        if self._closed:  # accepted just as close() stopped the listener
            conn.hang_up("closed")

    def _hello(self, conn: _Connection, frame) -> None:
        peer = frame.get("hello") if isinstance(frame, dict) else None
        if not isinstance(peer, str):
            conn.hang_up("malformed")
            return
        stale = self._conns.get(peer)
        if stale is not None:
            # A reconnecting client displaces its dead connection; close
            # the old socket instead of leaking its fd.
            self._emit(CONN_DOWN, peer=peer, reason="replaced")
            stale.hang_up("replaced")
        conn.peer = peer
        self._conn_counts[peer] = self._conn_counts.get(peer, 0) + 1
        self._introduced(conn, self._conn_counts[peer])

    def _connection_lost(self, conn: _Connection, reason: str) -> None:
        self._accepted.discard(conn)
        super()._connection_lost(conn, reason)

    async def close(self) -> None:
        """Stop listening, disconnect every client, account for parked frames."""
        self._closed = True
        if self._server is not None:
            self._server.close()
        self._conns.clear()
        await self._hang_up_all(list(self._accepted))
        if self._server is not None:
            await self._server.wait_closed()


class TcpClientTransport(_TcpTransport):
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
        super().__init__(name, queue_capacity, obs, clock)
        self._server_name = server_name
        self._reconnect = reconnect
        self._backoff = backoff or BackoffPolicy()
        self._supervisor: asyncio.Task | None = None
        self._host, self._port = "127.0.0.1", 0
        self._attempt = 0
        self._state = resilience.DOWN
        self._up = asyncio.Event()
        #: Frames parked for the server, a client's only peer.
        self._queue = self._queue_for(server_name)
        #: Successful connections established over this transport's life.
        self.connects = 0

    @property
    def state(self) -> str:
        """The current connection-lifecycle state (``resilience.UP`` etc.)."""
        return self._state

    def _transition(self, new: str) -> None:
        if new not in resilience.TRANSITIONS[self._state] and new != self._state:
            raise RuntimeTransportError(
                f"illegal connection transition {self._state} -> {new}"
            )
        self._state = new
        if new == resilience.UP:
            self._up.set()
        else:
            self._up.clear()

    async def wait_up(self, timeout: float | None = None) -> None:
        """Block until the connection is up (for tests and workloads)."""
        await asyncio.wait_for(self._up.wait(), timeout)

    async def connect(self, host: str = "127.0.0.1", port: int = 0) -> None:
        """Connect, introduce ourselves, and start the reconnect supervisor.

        Raises on first-connection failure (the caller learns immediately
        that the address is wrong); later disconnects are handled by the
        supervisor instead.
        """
        self._host, self._port = host, port
        self._transition(resilience.CONNECTING)
        try:
            conn = await self._open(attempt=1)
        except OSError:
            self._transition(resilience.DOWN)
            raise
        self._supervisor = asyncio.get_running_loop().create_task(self._supervise(conn))

    async def _open(self, attempt: int) -> _Connection:
        self._attempt = attempt
        _, conn = await asyncio.get_running_loop().create_connection(
            lambda: _Connection(self, self._server_name), self._host, self._port
        )
        return conn

    def _connection_made(self, conn: _Connection) -> None:
        conn.transport.write(_frame({"hello": self._name}))
        self.connects += 1
        self._transition(resilience.UP)
        self._introduced(conn, self._attempt)

    def _connection_lost(self, conn: _Connection, reason: str) -> None:
        if self._state == resilience.UP:  # else close() got there first
            self._transition(resilience.DOWN)
        super()._connection_lost(conn, reason)

    async def _supervise(self, conn: _Connection) -> None:
        """Own the connection for life: wait while up, back off while down."""
        while True:
            await conn.lost.wait()
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
                    conn = await self._open(attempt)
                    break
                except OSError:
                    self._transition(resilience.DOWN)

    def abort(self, reason: str = "forced") -> None:
        """Forcibly drop the live connection (chaos hook).

        The supervisor observes the loss and reconnects under backoff —
        exactly as if the network had reset the connection.
        """
        conn = self._conns.get(self._server_name)
        if conn is not None:
            conn.transport.abort()

    async def send(self, dst: HostId, message: Message) -> None:
        """Send to the server, a client's only peer; anything else is a drop."""
        if dst == self._server_name:
            await super().send(dst, message)
        else:
            self._emit(TRANSPORT_DROP, dst=dst, kind=message.kind, reason="no_route")

    async def close(self) -> None:
        """Tear down the supervisor and the socket; report what stays unsent."""
        if self._closed:
            return
        if self._supervisor is not None:
            self._supervisor.cancel()
            with contextlib.suppress(asyncio.CancelledError):
                await self._supervisor
            self._supervisor = None
        self._closed = True
        self._transition(resilience.CLOSED)
        conns = list(self._conns.values())
        self._conns.clear()
        await self._hang_up_all(conns)
