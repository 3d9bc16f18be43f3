"""One runtime assembler, every topology: the twin of ``tests/sim/test_assembly.py``."""

import asyncio

import pytest

from repro.check.scenario import Scenario
from repro.lease.policy import FixedTermPolicy, InfiniteTermPolicy
from repro.protocol.client import ClientConfig, ClientEngine
from repro.protocol.server import ServerConfig, ServerEngine
from repro.replica.engine import ReplicaConfig, ReplicaEngine
from repro.runtime import Cluster, build_cluster
from repro.runtime import cluster as cluster_module
from repro.runtime.tcp import TcpClientTransport, TcpServerTransport
from repro.shard.client import ShardedClientEngine
from repro.shard.store import ShardedStore
from repro.shard.transport import FanoutTransport
from repro.sim import driver
from repro.storage.store import FileStore
from repro.topology import Topology

from tests.runtime import elected, run_cluster

#: Short real-time terms so elections settle in well under a second.
REPLICA_CONFIG = ReplicaConfig(
    hosts=(), index=0, master_term=0.4, max_file_term=2.0, epsilon=0.01, tick=0.05,
    round_timeout=0.2, server=ServerConfig(epsilon=0.01, sweep_period=30.0),
)
MATRIX = [
    pytest.param(fabric, shards, replicas, id=f"{fabric}-{shards}x{replicas}")
    for fabric, shards, replicas in (
        ("hub", 1, 1), ("hub", 4, 1), ("hub", 1, 3), ("hub", 2, 3),
        ("tcp", 1, 1), ("tcp", 4, 1), ("udp", 2, 1),
    )
]


def _files(store) -> None:
    for i in range(8):
        store.create_file(f"/file{i}", b"init")


def _open(transport) -> bool:
    """True while a transport (or any leg of a fan-out) can still carry traffic."""
    if isinstance(transport, FanoutTransport):
        return any(_open(leg) for leg in transport._transports.values())
    if hasattr(transport, "_closed"):  # TCP
        return not transport._closed
    if hasattr(transport, "_transport"):  # UDP
        return transport._transport is not None
    return transport._handler is not None  # hub endpoint


@pytest.mark.parametrize("fabric,shards,replicas", MATRIX)
def test_assembly(fabric, shards, replicas):
    """Names, shapes and one oracle-checked write/read at every topology."""
    topology = Topology(shards=shards, replicas=replicas, clients=3)

    async def scenario(cluster):
        # Naming is decided once: topology == scenario == what is on the wire.
        assert cluster.topology == topology
        assert Scenario(shards=shards, replicas=replicas, n_clients=3).hosts == topology.hosts()
        nodes = cluster.servers + cluster.clients
        assert tuple(node.name for node in nodes) == topology.hosts()
        assert tuple(tuple(n.name for n in g) for g in cluster.groups) == topology.groups()
        assert cluster.server is cluster.groups[0][0]
        if fabric == "hub":
            assert tuple(cluster.hub._endpoints) == topology.hosts()
        else:
            assert cluster.hub is None

        # Shape: the same engines, store and router as the DES assembler.
        engine_cls = ReplicaEngine if replicas > 1 else ServerEngine
        assert all(type(node.engine) is engine_cls for node in cluster.servers)
        client_cls = ShardedClientEngine if shards > 1 else ClientEngine
        assert all(type(c.engine) is client_cls for c in cluster.clients)
        fanned = fabric != "hub" and shards > 1
        assert all(isinstance(c.transport, FanoutTransport) == fanned for c in cluster.clients)
        if shards > 1:
            assert isinstance(cluster.store, ShardedStore)
            assert cluster.router is cluster.store.router
            assert [g[0].engine.store for g in cluster.groups] == cluster.store.shards
        else:
            assert isinstance(cluster.store, FileStore) and cluster.router is None
        for group in cluster.groups:  # replicas share their shard's store
            assert all(node.engine.store is group[0].engine.store for node in group)

        # One authority per shard once elections settle.
        for shard, group in enumerate(cluster.groups):
            assert await elected(cluster, shard) in group

        # A write, then a read from another client, on every shard.
        datums = [cluster.store.file_datum(f"/file{i}") for i in range(8)]
        if shards > 1:
            assert {cluster.store.shard_of(d) for d in datums} == set(range(shards))
        a, b, _ = cluster.clients
        for datum in datums:
            assert await asyncio.wait_for(a.write(datum, b"v2"), 10.0) == 2
            invoked = cluster.clock.now()
            version, payload = await asyncio.wait_for(b.read(datum), 10.0)
            cluster.oracle.check_read(b.name, datum, version, invoked, cluster.clock.now())
            assert (version, payload) == (2, b"v2")
        assert cluster.oracle.clean and cluster.oracle.reads_checked >= shards

        await cluster.close()
        assert not any(_open(node.transport) for node in nodes)
        assert asyncio.all_tasks() == {asyncio.current_task()}

    run_cluster(
        scenario, topology, fabric=fabric, policy=FixedTermPolicy(2.0),
        client_config=ClientConfig(epsilon=0.01, rpc_timeout=0.2, write_timeout=2.0),
        replica_config=REPLICA_CONFIG, setup_store=_files,
    )


def test_runtime_and_des_clusters_share_attribute_names():
    shared = {
        "topology", "groups", "clients", "store", "router", "oracle", "obs",
        "server", "servers", "master_of", "client",
    }
    for cls in (Cluster, driver.Cluster):
        assert shared <= set(dir(cls)) | set(cls.__dataclass_fields__)


def test_a_failed_start_closes_what_has_started(monkeypatch):
    opened = []

    class Server(TcpServerTransport):
        async def start(self, host="127.0.0.1", port=0):
            opened.append(self)
            await super().start(host, port)

    class Client(TcpClientTransport):
        async def connect(self, host="127.0.0.1", port=0):
            opened.append(self)
            if self.name == "c1":
                raise OSError("connection refused")
            await super().connect(host, port)

    monkeypatch.setitem(cluster_module._SOCKETS, "tcp", (Server, Client))

    async def main():
        with pytest.raises(OSError, match="refused"):
            await build_cluster(Topology(shards=2, clients=2), fabric="tcp")
        assert len(opened) == 5 and not any(_open(t) for t in opened)
        assert asyncio.all_tasks() == {asyncio.current_task()}

    asyncio.run(main())


class TestRejectedCombinations:
    """What the nodes cannot honour is refused before anything starts."""

    @pytest.mark.parametrize("fabric", ["tcp", "udp"])
    def test_replicas_need_the_hub(self, fabric):
        with pytest.raises(ValueError, match="peer replicas"):
            asyncio.run(build_cluster(Topology(replicas=3), fabric=fabric))

    def test_unknown_fabric(self):
        with pytest.raises(ValueError, match="fabric"):
            asyncio.run(build_cluster(Topology(), fabric="carrier-pigeon"))

    def test_installed_files_need_a_single_authority_node(self):
        for topology in (Topology(shards=2), Topology(replicas=3)):
            with pytest.raises(ValueError, match="installed"):
                asyncio.run(build_cluster(topology, cover_term=10.0))

    def test_unbounded_policy_is_refused_under_replication(self):
        with pytest.raises(ValueError, match="finite"):
            asyncio.run(build_cluster(Topology(replicas=3), policy=InfiniteTermPolicy()))
