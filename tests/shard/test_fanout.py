"""The sharded runtime over real sockets: N TCP servers, one client node.

This is the tentpole's end-to-end claim for the asyncio side: an
unmodified :class:`~repro.runtime.node.LeaseClientNode` driving a
:class:`~repro.shard.client.ShardedClientEngine` over a
:class:`~repro.shard.transport.FanoutTransport` composed of one real TCP
connection per shard server, as ``build_cluster(..., fabric="tcp")``
assembles it.
"""

import asyncio

from repro.lease.policy import FixedTermPolicy
from repro.obs.bus import TraceBus
from repro.obs.events import SHARD_MISS, TRANSPORT_DROP
from repro.protocol.client import ClientConfig
from repro.protocol.messages import ReadRequest
from repro.protocol.server import ServerConfig
from repro.runtime import InMemoryHub
from repro.shard.transport import FanoutTransport
from repro.topology import Topology
from repro.types import DatumId

from tests.runtime import run_cluster

N_SHARDS = 2


def _files(store):
    for i in range(6):
        store.create_file(f"/file{i}", b"init")


def on_cluster(scenario, clients=1):
    """Run ``scenario(cluster)`` on two TCP shard servers holding ``/file0`` .. ``/file5``."""
    run_cluster(
        scenario,
        Topology(shards=N_SHARDS, clients=clients),
        fabric="tcp",
        policy=FixedTermPolicy(5.0),
        server_config=ServerConfig(epsilon=0.01, announce_period=0.2, sweep_period=5.0),
        client_config=ClientConfig(epsilon=0.01, rpc_timeout=1.0, write_timeout=3.0),
        setup_store=_files,
    )


class TestShardedTcp:
    def test_reads_and_writes_span_shards(self):
        async def scenario(cluster):
            store, client = cluster.store, cluster.client(0)
            assert isinstance(client.transport, FanoutTransport)
            datums = [store.file_datum(f"/file{i}") for i in range(6)]
            assert {store.shard_of(d) for d in datums} == set(range(N_SHARDS)), (
                "fixture must exercise every shard"
            )
            for datum in datums:
                assert await client.read(datum) == (1, b"init")
            for i, datum in enumerate(datums):
                assert await client.write(datum, f"v{i}".encode()) == 2

        on_cluster(scenario)

    def test_write_invalidation_crosses_real_sockets(self):
        async def scenario(cluster):
            datum = cluster.store.file_datum("/file0")
            a, b = cluster.clients
            assert await a.read(datum) == (1, b"init")
            assert await b.write(datum, b"new") == 2
            # a's lease holder was consulted (write approval) or expired;
            # either way a re-read must observe the committed version.
            assert await a.read(datum) == (2, b"new")

        on_cluster(scenario, clients=2)

    def test_shard_crash_leaves_other_shard_live(self):
        async def scenario(cluster):
            store, client = cluster.store, cluster.client(0)
            datums = [store.file_datum(f"/file{i}") for i in range(6)]
            on_s1 = next(d for d in datums if store.shard_of(d) == 1)
            await client.read(on_s1)  # cache a lease on the surviving shard
            await cluster.groups[0][0].close()
            # s0 is gone: its datum is only readable from cache (and the
            # fixture never cached it) — but s1 keeps serving.
            assert await client.read(on_s1) == (1, b"init")

        on_cluster(scenario)


class TestUnroutedSend:
    def test_a_send_to_no_shard_is_a_transport_drop_at_clock_time(self):
        """An unrouted send is an outbound drop, as for the client
        transports — not ``shard.miss``, which is an inbound reply from an
        unknown shard, and not stamped 0.0 when no clock is given."""

        async def scenario():
            bus = TraceBus(capacity=None)
            fanout = FanoutTransport("c0", {"s0": InMemoryHub().endpoint("c0")}, obs=bus)
            msg = ReadRequest(1, DatumId.file("f"))
            await fanout.send("s9", msg)
            assert not bus.events(SHARD_MISS)
            (drop,) = bus.events(TRANSPORT_DROP)
            assert (drop["host"], drop["dst"], drop["kind"], drop["reason"]) == (
                "c0", "s9", msg.kind, "no_route",
            )
            assert drop["ts"] > 0.0
            await fanout.close()

        asyncio.run(scenario())
