"""Tests for the TCP transport: the full protocol over real sockets."""

import asyncio

from repro.lease.policy import FixedTermPolicy
from repro.obs.bus import TraceBus
from repro.obs.events import TRANSPORT_DROP
from repro.protocol.client import ClientConfig
from repro.protocol.messages import ReadRequest
from repro.protocol.server import ServerConfig
from repro.runtime import LeaseClientNode, LeaseServerNode
from repro.runtime.tcp import TcpClientTransport, TcpServerTransport
from repro.storage.store import FileStore
from repro.types import DatumId


def run(coro):
    return asyncio.run(coro)


async def start_world(n_clients=2, term=1.0):
    store = FileStore()
    store.create_file("/doc", b"v1")
    server_transport = TcpServerTransport()
    await server_transport.start()
    server = LeaseServerNode(
        server_transport,
        store,
        FixedTermPolicy(term),
        config=ServerConfig(epsilon=0.01, announce_period=0.2, sweep_period=5.0),
    )
    clients = []
    for i in range(n_clients):
        transport = TcpClientTransport(f"c{i}")
        await transport.connect(port=server_transport.port)
        clients.append(
            LeaseClientNode(
                transport,
                "server",
                config=ClientConfig(epsilon=0.01, rpc_timeout=1.0, write_timeout=3.0),
            )
        )
    return store, server, clients


async def stop_world(server, clients):
    for c in clients:
        await c.close()
    await server.close()
    await asyncio.sleep(0)  # let cancelled reader tasks unwind


class TestTcpProtocol:
    def test_read_over_sockets(self):
        async def scenario():
            store, server, clients = await start_world()
            datum = store.file_datum("/doc")
            assert await clients[0].read(datum) == (1, b"v1")
            await stop_world(server, clients)

        run(scenario())

    def test_write_with_approval_over_sockets(self):
        async def scenario():
            store, server, clients = await start_world(term=5.0)
            datum = store.file_datum("/doc")
            a, b = clients
            await a.read(datum)
            version = await b.write(datum, b"v2")
            assert version == 2
            assert await a.read(datum) == (2, b"v2")
            await stop_world(server, clients)

        run(scenario())

    def test_binary_payload_integrity(self):
        async def scenario():
            store, server, clients = await start_world()
            datum = store.file_datum("/doc")
            blob = bytes(range(256)) * 64
            await clients[0].write(datum, blob)
            version, payload = await clients[1].read(datum)
            assert payload == blob
            await stop_world(server, clients)

        run(scenario())

    def test_disconnected_client_lease_expires_and_write_proceeds(self):
        async def scenario():
            store, server, clients = await start_world(term=0.4)
            datum = store.file_datum("/doc")
            a, b = clients
            await a.read(datum)
            await a.close()  # drops the connection while holding a lease
            loop = asyncio.get_running_loop()
            start = loop.time()
            version = await asyncio.wait_for(b.write(datum, b"v2"), 5.0)
            assert version == 2
            assert loop.time() - start < 1.0
            await stop_world(server, [b])

        run(scenario())

    def test_namespace_over_sockets(self):
        async def scenario():
            store, server, clients = await start_world()
            await clients[0].namespace_op("mkdir", ("/d",))
            await clients[0].namespace_op("bind", ("/d/f", b"x", "normal"))
            assert store.file_at("/d/f").content == b"x"
            await stop_world(server, clients)

        run(scenario())

    def test_a_client_send_to_anyone_but_its_server_is_an_observable_drop(self):
        bus = TraceBus(capacity=None)
        msg = ReadRequest(1, DatumId.file("f"))
        run(TcpClientTransport("c0", obs=bus).send("c1", msg))
        drops = bus.events(TRANSPORT_DROP)
        assert [(e["dst"], e["kind"], e["reason"]) for e in drops] == [("c1", msg.kind, "no_route")]
