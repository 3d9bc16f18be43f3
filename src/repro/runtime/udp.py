"""UDP transport: one JSON datagram per message.

The V system's IPC rode on datagrams, and the lease protocol is built to
tolerate loss (client retransmission, idempotent reads, write dedup via
sequence numbers), so UDP is its most faithful real-world transport: no
connection state, no head-of-line blocking, and lost packets exercise
exactly the §5 failure model.

Addressing: the server listens on a known port; clients bind ephemeral
ports and include their name in every datagram (``src`` field), so the
server can reply and later push callbacks/announcements to the last known
address of each client.  Datagrams above ``MAX_DATAGRAM`` are refused at
send time — leases cover data small enough to fit, and larger files
belong on a bulk channel in a real deployment.

Observability: datagram transports drop frames by design (that is the
medium), but never silently when a bus is attached — a malformed inbound
datagram, a send to a never-seen peer, a client's send to anyone but its
server and a send on a closed socket all emit ``transport.drop`` events
(DESIGN.md §11).
"""

from __future__ import annotations

import asyncio

from repro.errors import ProtocolError, RuntimeTransportError
from repro.obs.events import TRANSPORT_DROP
from repro.protocol.codec import decode_message, encode_message
from repro.protocol.messages import Message
from repro.runtime.transport import _dumps, _EndpointBase, _loads
from repro.types import HostId

#: Stay under the common 64 KiB UDP limit with headroom for JSON framing.
MAX_DATAGRAM = 60_000


class _Endpoint(asyncio.DatagramProtocol):
    """Shared asyncio datagram plumbing."""

    def __init__(self, owner: "UdpServerTransport | UdpClientTransport"):
        self._owner = owner

    def datagram_received(self, data: bytes, addr) -> None:
        try:
            frame = _loads(data.decode("utf-8"))
            src = frame.get("src") if type(frame) is dict else None
            if type(src) is not str:  # it becomes a dict key and a host id
                raise ProtocolError("a datagram is a {src: name, msg: message} object")
            message = decode_message(frame["msg"])
        except (ValueError, RecursionError, KeyError, ProtocolError):
            # Malformed datagram: drop, like any corrupted packet — but
            # observably, so fuzzed/hostile traffic shows in the trace.
            self._owner._emit(
                TRANSPORT_DROP, dst=self._owner.name, kind="?", reason="malformed"
            )
            return
        self._owner._on_datagram(message, src, addr)

    def error_received(self, exc) -> None:  # pragma: no cover - OS-dependent
        pass


def _encode(src: HostId, message: Message) -> bytes:
    data = _dumps({"src": src, "msg": encode_message(message)}).encode("utf-8")
    if len(data) > MAX_DATAGRAM:
        raise RuntimeTransportError(
            f"message of {len(data)} bytes exceeds the {MAX_DATAGRAM}-byte "
            "datagram limit"
        )
    return data


class UdpServerTransport(_EndpointBase):
    """The server's datagram endpoint."""

    def __init__(self, name: HostId = "server", *, obs=None, clock=None):
        super().__init__(name, obs, clock)
        self._transport: asyncio.DatagramTransport | None = None
        #: last known address of each client, learned from their datagrams.
        self._peers: dict[HostId, tuple] = {}

    @property
    def port(self) -> int:
        """The bound port (after :meth:`start`)."""
        return self._transport.get_extra_info("sockname")[1]

    async def start(self, host: str = "127.0.0.1", port: int = 0) -> None:
        """Bind the datagram socket."""
        loop = asyncio.get_running_loop()
        self._transport, _ = await loop.create_datagram_endpoint(
            lambda: _Endpoint(self), local_addr=(host, port)
        )

    def _on_datagram(self, message: Message, src: HostId, addr) -> None:
        self._peers[src] = addr
        if self._handler is not None:
            self._handler(message, src)

    async def send(self, dst: HostId, message: Message) -> None:
        """Send to a client's last known address; drops (observably) if
        never seen — indistinguishable from packet loss, which the
        protocol absorbs."""
        addr = self._peers.get(dst)
        if addr is None or self._transport is None:
            reason = "no_peer" if self._transport is not None else "closed"
            self._emit(TRANSPORT_DROP, dst=dst, kind=message.kind, reason=reason)
            return
        self._transport.sendto(_encode(self._name, message), addr)

    async def close(self) -> None:
        """Close the datagram socket."""
        if self._transport is not None:
            self._transport.close()
            self._transport = None
            # The socket is released in a call_soon callback; yield once so
            # it actually runs before the caller can tear down the loop.
            await asyncio.sleep(0)


class UdpClientTransport(_EndpointBase):
    """A client's datagram endpoint, bound to one server address."""

    def __init__(
        self, name: HostId, server_name: HostId = "server", *, obs=None, clock=None
    ):
        super().__init__(name, obs, clock)
        self._server_name = server_name
        self._transport: asyncio.DatagramTransport | None = None
        self._server_addr: tuple | None = None

    async def connect(self, host: str = "127.0.0.1", port: int = 0) -> None:
        """Bind an ephemeral port and record the server's address."""
        loop = asyncio.get_running_loop()
        self._transport, _ = await loop.create_datagram_endpoint(
            lambda: _Endpoint(self), local_addr=("0.0.0.0", 0)
        )
        self._server_addr = (host, port)

    def _on_datagram(self, message: Message, src: HostId, addr) -> None:
        if self._handler is not None:
            self._handler(message, src)

    async def send(self, dst: HostId, message: Message) -> None:
        """Send to the server, a client's only peer; anything else is a drop."""
        if dst != self._server_name:
            self._emit(TRANSPORT_DROP, dst=dst, kind=message.kind, reason="no_route")
            return
        if self._transport is None:
            self._emit(TRANSPORT_DROP, dst=dst, kind=message.kind, reason="closed")
            return
        self._transport.sendto(_encode(self._name, message), self._server_addr)

    async def close(self) -> None:
        """Close the datagram socket."""
        if self._transport is not None:
            self._transport.close()
            self._transport = None
            await asyncio.sleep(0)