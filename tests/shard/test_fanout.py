"""The sharded runtime over real sockets: N TCP servers, one client node.

This is the tentpole's end-to-end claim for the asyncio side: an
unmodified :class:`~repro.runtime.node.LeaseClientNode` driving a
:class:`~repro.shard.client.ShardedClientEngine` over a
:class:`~repro.shard.transport.FanoutTransport` composed of one real TCP
connection per shard server.
"""

import asyncio

from repro.lease.policy import FixedTermPolicy
from repro.protocol.client import ClientConfig
from repro.protocol.server import ServerConfig
from repro.runtime.node import LeaseClientNode, LeaseServerNode
from repro.runtime.tcp import TcpClientTransport, TcpServerTransport
from repro.shard import ShardedClientEngine, ShardedStore
from repro.shard.transport import FanoutTransport
from repro.topology import Topology

N_SHARDS = 2
SHARD_HOSTS = Topology(shards=N_SHARDS).servers()


def run(coro):
    return asyncio.run(coro)


async def start_sharded_world(n_files=6):
    store = ShardedStore(N_SHARDS)
    for i in range(n_files):
        store.create_file(f"/file{i}", b"init")
    servers = []
    ports = {}
    for k, host in enumerate(SHARD_HOSTS):
        transport = TcpServerTransport(host)
        await transport.start()
        ports[host] = transport.port
        servers.append(
            LeaseServerNode(
                transport,
                store.shards[k],
                FixedTermPolicy(5.0),
                config=ServerConfig(
                    epsilon=0.01, announce_period=0.2, sweep_period=5.0
                ),
            )
        )
    return store, servers, ports


async def connect_client(name, ports):
    legs = {}
    for host, port in ports.items():
        leg = TcpClientTransport(name, server_name=host)
        await leg.connect(port=port)
        legs[host] = leg
    transport = FanoutTransport(name, legs)
    return LeaseClientNode(
        transport,
        SHARD_HOSTS,
        config=ClientConfig(epsilon=0.01, rpc_timeout=1.0, write_timeout=3.0),
        engine_cls=ShardedClientEngine,
    )


async def stop_world(servers, clients):
    for c in clients:
        await c.close()
    for s in servers:
        await s.close()
    await asyncio.sleep(0)


class TestShardedTcp:
    def test_reads_and_writes_span_shards(self):
        async def scenario():
            store, servers, ports = await start_sharded_world()
            datums = [store.file_datum(f"/file{i}") for i in range(6)]
            assert {store.shard_of(d) for d in datums} == set(range(N_SHARDS)), (
                "fixture must exercise every shard"
            )
            client = await connect_client("c0", ports)
            for datum in datums:
                assert await client.read(datum) == (1, b"init")
            for i, datum in enumerate(datums):
                assert await client.write(datum, f"v{i}".encode()) == 2
            await stop_world(servers, [client])

        run(scenario())

    def test_write_invalidation_crosses_real_sockets(self):
        async def scenario():
            store, servers, ports = await start_sharded_world()
            datum = store.file_datum("/file0")
            a = await connect_client("c0", ports)
            b = await connect_client("c1", ports)
            assert await a.read(datum) == (1, b"init")
            assert await b.write(datum, b"new") == 2
            # a's lease holder was consulted (write approval) or expired;
            # either way a re-read must observe the committed version.
            assert await a.read(datum) == (2, b"new")
            await stop_world(servers, [a, b])

        run(scenario())

    def test_shard_crash_leaves_other_shard_live(self):
        async def scenario():
            store, servers, ports = await start_sharded_world()
            datums = [store.file_datum(f"/file{i}") for i in range(6)]
            on_s0 = next(d for d in datums if store.shard_of(d) == 0)
            on_s1 = next(d for d in datums if store.shard_of(d) == 1)
            client = await connect_client("c0", ports)
            await client.read(on_s1)  # cache a lease on the surviving shard
            await servers[0].close()
            # s0 is gone: its datum is only readable from cache (and the
            # fixture never cached it) — but s1 keeps serving.
            assert await client.read(on_s1) == (1, b"init")
            await stop_world(servers[1:], [client])

        run(scenario())
