"""A fan-out transport: one client endpoint per shard, one interface.

The real client transports (:class:`~repro.runtime.tcp.
TcpClientTransport`, :class:`~repro.runtime.udp.UdpClientTransport`, hub
endpoints) each speak to exactly one server.  :class:`FanoutTransport`
composes one of them per shard behind the :class:`~repro.runtime.
transport.Transport` protocol, routing outbound ``send(dst, ...)`` by
destination host name and funnelling every inbound message into the one
handler the node installs.  Combined with
:class:`~repro.shard.client.ShardedClientEngine` (whose ``Send`` effects
already target shard host names), this lets an unmodified
:class:`~repro.runtime.node.LeaseClientNode` talk to ``N`` real server
processes.
"""

from __future__ import annotations

import asyncio

from repro.obs.events import TRANSPORT_DROP
from repro.protocol.messages import Message
from repro.runtime.transport import Transport, _EndpointBase
from repro.types import HostId


class FanoutTransport(_EndpointBase):
    """Routes ``send`` calls across per-shard transports by destination.

    Args:
        name: this endpoint's host name (the client's).
        transports: shard-order mapping of server host name to the
            transport bound to that server.  Each inner transport must
            deliver inbound messages with its server's name as ``src``
            (the stock client transports all do).
    """

    def __init__(
        self,
        name: HostId,
        transports: dict[HostId, Transport],
        obs=None,
        clock=None,
    ):
        if not transports:
            raise ValueError("need at least one shard transport")
        super().__init__(name, obs, clock)
        self._transports = dict(transports)
        for transport in self._transports.values():
            transport.set_handler(self._deliver)

    def _deliver(self, message: Message, src: HostId) -> None:
        if self._handler is not None:
            self._handler(message, src)

    async def send(self, dst: HostId, message: Message) -> None:
        """Forward to the transport bound to ``dst``; anything else is a
        ``transport.drop`` (reason ``no_route``), as for the client
        transports, which drop rather than raise on unreachable peers."""
        transport = self._transports.get(dst)
        if transport is None:
            self._emit(TRANSPORT_DROP, dst=dst, kind=message.kind, reason="no_route")
            return
        await transport.send(dst, message)

    async def close(self) -> None:
        """Close every shard transport."""
        await asyncio.gather(
            *(t.close() for t in self._transports.values()),
            return_exceptions=True,
        )
