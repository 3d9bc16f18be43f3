"""Tests for the TCP transport: the full protocol over real sockets."""

import asyncio

from repro.lease.policy import FixedTermPolicy
from repro.obs.bus import TraceBus
from repro.obs.events import TRANSPORT_DROP
from repro.protocol.client import ClientConfig
from repro.protocol.messages import ReadRequest
from repro.protocol.server import ServerConfig
from repro.runtime.tcp import TcpClientTransport
from repro.topology import Topology
from repro.types import DatumId

from tests.runtime import create_doc, run_cluster


def on_cluster(scenario, clients=2, term=1.0):
    """Run ``scenario(cluster)`` on one server holding ``/doc`` over TCP."""
    run_cluster(
        scenario,
        Topology(clients=clients),
        fabric="tcp",
        policy=FixedTermPolicy(term),
        server_config=ServerConfig(epsilon=0.01, announce_period=0.2, sweep_period=5.0),
        client_config=ClientConfig(epsilon=0.01, rpc_timeout=1.0, write_timeout=3.0),
        setup_store=create_doc,
    )


class TestTcpProtocol:
    def test_read_over_sockets(self):
        async def scenario(cluster):
            datum = cluster.store.file_datum("/doc")
            assert await cluster.client(0).read(datum) == (1, b"v1")

        on_cluster(scenario)

    def test_write_with_approval_over_sockets(self):
        async def scenario(cluster):
            datum = cluster.store.file_datum("/doc")
            a, b = cluster.clients
            await a.read(datum)
            version = await b.write(datum, b"v2")
            assert version == 2
            assert await a.read(datum) == (2, b"v2")

        on_cluster(scenario, term=5.0)

    def test_binary_payload_integrity(self):
        async def scenario(cluster):
            datum = cluster.store.file_datum("/doc")
            blob = bytes(range(256)) * 64
            await cluster.client(0).write(datum, blob)
            version, payload = await cluster.client(1).read(datum)
            assert payload == blob

        on_cluster(scenario)

    def test_disconnected_client_lease_expires_and_write_proceeds(self):
        async def scenario(cluster):
            datum = cluster.store.file_datum("/doc")
            a, b = cluster.clients
            await a.read(datum)
            await a.close()  # drops the connection while holding a lease
            loop = asyncio.get_running_loop()
            start = loop.time()
            version = await asyncio.wait_for(b.write(datum, b"v2"), 5.0)
            assert version == 2
            assert loop.time() - start < 1.0

        on_cluster(scenario, term=0.4)

    def test_namespace_over_sockets(self):
        async def scenario(cluster):
            await cluster.client(0).namespace_op("mkdir", ("/d",))
            await cluster.client(0).namespace_op("bind", ("/d/f", b"x", "normal"))
            assert cluster.store.file_at("/d/f").content == b"x"

        on_cluster(scenario)

    def test_a_client_send_to_anyone_but_its_server_is_an_observable_drop(self):
        bus = TraceBus(capacity=None)
        msg = ReadRequest(1, DatumId.file("f"))
        asyncio.run(TcpClientTransport("c0", obs=bus).send("c1", msg))
        drops = bus.events(TRANSPORT_DROP)
        assert [(e["dst"], e["kind"], e["reason"]) for e in drops] == [("c1", msg.kind, "no_route")]
