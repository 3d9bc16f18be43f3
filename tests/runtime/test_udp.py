"""Tests for the UDP transport: the protocol's loss tolerance on real
datagrams."""

import asyncio
import json

import pytest

from repro.errors import RuntimeTransportError
from repro.lease.policy import FixedTermPolicy
from repro.obs.bus import TraceBus
from repro.obs.events import TRANSPORT_DROP
from repro.protocol.client import ClientConfig
from repro.protocol.server import ServerConfig
from repro.runtime.udp import (
    MAX_DATAGRAM,
    UdpClientTransport,
    UdpServerTransport,
    _encode,
    _Endpoint,
)
from repro.protocol.messages import WriteRequest
from repro.topology import Topology
from repro.types import DatumId

from tests.runtime import create_doc, run_cluster


def on_cluster(scenario, clients=2, term=1.0):
    """Run ``scenario(cluster)`` on one server holding ``/doc`` over UDP."""
    run_cluster(
        scenario,
        Topology(clients=clients),
        fabric="udp",
        policy=FixedTermPolicy(term),
        server_config=ServerConfig(epsilon=0.01, announce_period=0.2, sweep_period=5.0),
        client_config=ClientConfig(epsilon=0.01, rpc_timeout=0.5, write_timeout=3.0),
        setup_store=create_doc,
    )


class TestUdpProtocol:
    def test_read_over_datagrams(self):
        async def scenario(cluster):
            datum = cluster.store.file_datum("/doc")
            assert await cluster.client(0).read(datum) == (1, b"v1")

        on_cluster(scenario)

    def test_write_with_approval_callback(self):
        """The server pushes an ApprovalRequest to the reader's learned
        address — server-initiated traffic over UDP."""

        async def scenario(cluster):
            datum = cluster.store.file_datum("/doc")
            a, b = cluster.clients
            await a.read(datum)
            version = await b.write(datum, b"v2")
            assert version == 2
            assert await a.read(datum) == (2, b"v2")

        on_cluster(scenario, term=5.0)

    def test_cached_reads_need_no_datagrams(self):
        async def scenario(cluster):
            datum = cluster.store.file_datum("/doc")
            c = cluster.client(0)
            await c.read(datum)
            await c.transport.close()  # no socket at all
            assert await asyncio.wait_for(c.read(datum), 0.2) == (1, b"v1")

        on_cluster(scenario, clients=1, term=2.0)

    def test_vanished_client_delays_writes_one_term(self):
        async def scenario(cluster):
            datum = cluster.store.file_datum("/doc")
            a, b = cluster.clients
            await a.read(datum)
            await a.close()  # socket gone; approval datagrams vanish
            loop = asyncio.get_running_loop()
            start = loop.time()
            version = await asyncio.wait_for(b.write(datum, b"v2"), 5.0)
            assert version == 2
            assert loop.time() - start < 1.0

        on_cluster(scenario, term=0.4)

    def test_oversized_datagram_refused(self):
        with pytest.raises(RuntimeTransportError):
            _encode(
                "c0",
                WriteRequest(1, DatumId.file("f"), b"x" * (MAX_DATAGRAM + 1), 1),
            )

    def test_malformed_datagram_ignored(self):
        async def scenario(cluster):
            # fire raw garbage straight at the server socket
            loop = asyncio.get_running_loop()
            garbage_transport, _ = await loop.create_datagram_endpoint(
                asyncio.DatagramProtocol, local_addr=("0.0.0.0", 0)
            )
            garbage_transport.sendto(
                b"not json at all", ("127.0.0.1", cluster.server.transport.port)
            )
            garbage_transport.sendto(
                b'{"src": "x"}', ("127.0.0.1", cluster.server.transport.port)
            )
            await asyncio.sleep(0.05)
            # the server is still alive and serving
            datum = cluster.store.file_datum("/doc")
            assert await cluster.client(0).read(datum) == (1, b"v1")
            garbage_transport.close()

        on_cluster(scenario)

    def test_malformed_datagram_is_an_observable_drop(self):
        async def scenario():
            bus = TraceBus(capacity=None)
            transport = UdpServerTransport(obs=bus)
            await transport.start()
            loop = asyncio.get_running_loop()
            garbage_transport, _ = await loop.create_datagram_endpoint(
                asyncio.DatagramProtocol, local_addr=("0.0.0.0", 0)
            )
            garbage_transport.sendto(
                b"\xff\xfe garbage", ("127.0.0.1", transport.port)
            )
            await asyncio.sleep(0.05)
            drops = bus.events(TRANSPORT_DROP)
            assert any(e["reason"] == "malformed" for e in drops)
            garbage_transport.close()
            await transport.close()

        asyncio.run(scenario())

    @pytest.mark.parametrize(
        "frame",
        [
            {"src": ["x"], "msg": ["ReadRequest", 1, "file:f", None]},
            {"src": 7, "msg": ["ReadRequest", 1, "file:f", None]},
            {"src": None, "msg": ["ReadRequest", 1, "file:f", None]},
            {"msg": ["ReadRequest", 1, "file:f", None]},
            ["x", ["ReadRequest", 1, "file:f", None]],
        ],
        ids=["list-src", "int-src", "null-src", "no-src", "not-an-object"],
    )
    def test_datagram_without_a_string_src_is_a_malformed_drop(self, frame):
        """The sender's name becomes a dict key and a host id: anything but
        a string is dropped, never raised into the loop or handed on."""
        bus = TraceBus(capacity=None)
        transport = UdpServerTransport(obs=bus)
        delivered = []
        transport.set_handler(lambda message, src: delivered.append(src))
        _Endpoint(transport).datagram_received(json.dumps(frame).encode(), ("127.0.0.1", 9))
        assert delivered == [] and transport._peers == {}
        assert [e["reason"] for e in bus.events(TRANSPORT_DROP)] == ["malformed"]

    def test_sends_to_unknown_or_closed_endpoints_are_observable(self):
        async def scenario():
            bus = TraceBus(capacity=None)
            server_transport = UdpServerTransport(obs=bus)
            await server_transport.start()
            msg = WriteRequest(1, DatumId.file("f"), b"x", 1)
            await server_transport.send("never-seen", msg)
            await server_transport.close()
            await server_transport.send("never-seen", msg)

            client_transport = UdpClientTransport("c0", obs=bus)
            await client_transport.connect(port=1)
            await client_transport.close()
            await client_transport.send("server", msg)

            reasons = [e["reason"] for e in bus.events(TRANSPORT_DROP)]
            assert reasons.count("no_peer") == 1
            assert reasons.count("closed") == 2

        asyncio.run(scenario())

    def test_a_client_send_to_anyone_but_its_server_is_an_observable_drop(self):
        bus = TraceBus(capacity=None)
        msg = WriteRequest(1, DatumId.file("f"), b"x", 1)
        asyncio.run(UdpClientTransport("c0", obs=bus).send("c1", msg))
        drops = bus.events(TRANSPORT_DROP)
        assert [(e["dst"], e["kind"], e["reason"]) for e in drops] == [("c1", msg.kind, "no_route")]
