"""One assembler, every topology: `build_cluster` over the shape matrix."""

import dataclasses

import pytest

from repro.check.scenario import Scenario
from repro.lease.policy import FixedTermPolicy, InfiniteTermPolicy
from repro.protocol.client import ClientConfig
from repro.protocol.server import ServerConfig, ServerEngine
from repro.shard.store import ShardedStore
from repro.replica.engine import ReplicaEngine
from repro.sim.driver import SimServer, build_cluster
from repro.storage.store import FileStore
from repro.topology import Topology

CLIENT_CONFIG = ClientConfig(rpc_timeout=1.0, write_timeout=45.0, max_retries=10)

MATRIX = [
    pytest.param(shards, replicas, id=f"{shards}x{replicas}")
    for shards, replicas in ((1, 1), (4, 1), (1, 3), (2, 3))
]


def _files(store) -> None:
    for i in range(8):
        store.create_file(f"/file{i}", b"init")


@pytest.mark.parametrize("shards,replicas", MATRIX)
def test_assembly(shards, replicas):
    """Names, shapes and one oracle-checked write/read at every topology."""
    cluster = build_cluster(
        3,
        shards=shards,
        replicas=replicas,
        policy=FixedTermPolicy(2.0),
        client_config=CLIENT_CONFIG,
        setup_store=_files,
    )
    topology = Topology(shards=shards, replicas=replicas, clients=3)

    # Naming is decided once: topology == scenario == what is on the wire.
    assert cluster.topology == topology
    scenario = Scenario(shards=shards, replicas=replicas, n_clients=3)
    assert scenario.hosts == topology.hosts()
    assert tuple(cluster.network.hosts) == topology.hosts()
    assert [c.host.name for c in cluster.clients] == list(topology.client_hosts())

    # Shape: one group per shard, one node per replica, right engines.
    assert tuple(
        tuple(node.host.name for node in group) for group in cluster.groups
    ) == topology.groups()
    assert [node.host.name for node in cluster.servers] == list(topology.servers())
    assert cluster.server is cluster.groups[0][0]
    engine_cls = ReplicaEngine if replicas > 1 else ServerEngine
    assert all(type(node) is SimServer for node in cluster.servers)
    assert all(type(node.engine) is engine_cls for node in cluster.servers)
    if shards > 1:
        assert isinstance(cluster.store, ShardedStore)
        assert cluster.router is cluster.store.router
        assert [g[0].engine.store for g in cluster.groups] == cluster.store.shards
    else:
        assert isinstance(cluster.store, FileStore)
        assert cluster.router is None
    for group in cluster.groups:  # replicas share their shard's store
        assert all(node.engine.store is group[0].engine.store for node in group)

    # One authority per shard once elections settle.
    cluster.run(until=5.0)
    for shard, group in enumerate(cluster.groups):
        assert cluster.master_of(shard) in group

    # A write, then a read from another client, on every shard.
    datums = [cluster.store.file_datum(f"/file{i}") for i in range(8)]
    if shards > 1:
        assert {cluster.store.shard_of(d) for d in datums} == set(range(shards))
    a, b, _ = cluster.clients
    for datum in datums:
        assert cluster.run_until_complete(a, a.write(datum, b"v2"), limit=60.0).ok
        result = cluster.run_until_complete(b, b.read(datum), limit=60.0)
        assert result.ok and result.value == (2, b"v2")
    assert cluster.oracle.clean


class TestMasterOf:
    def test_unreplicated_server_is_master_while_up(self):
        cluster = build_cluster(1)
        assert cluster.master_of() is cluster.server
        cluster.faults.crash_window("server", start=1.0, duration=1.0)
        cluster.run(until=1.5)
        assert cluster.master_of() is None
        cluster.run(until=2.5)
        assert cluster.master_of() is cluster.server


class TestRejectedCombinations:
    """What the nodes cannot honour is refused, not silently dropped."""

    def test_installed_files_need_a_single_authority_node(self):
        for shape in ({"shards": 2}, {"replicas": 3}):
            with pytest.raises(ValueError, match="installed"):
                build_cluster(1, cover_term=10.0, **shape)

    def test_substitute_engine_is_refused_under_replication(self):
        with pytest.raises(ValueError, match="engine"):
            build_cluster(1, replicas=3, server_engine_factory=ServerEngine)
        build_cluster(1, shards=2, server_engine_factory=ServerEngine)  # per shard: fine

    def test_unbounded_policy_is_refused_under_replication(self):
        with pytest.raises(ValueError, match="finite"):
            build_cluster(1, replicas=3, policy=InfiniteTermPolicy())
        build_cluster(1, policy=InfiniteTermPolicy())  # callbacks, unreplicated: fine


class TestServerRestartKeepsItsConfig:
    def test_restart_preserves_every_config_field(self):
        """`_boot` used to rebuild ServerConfig field by field, resetting
        any field it did not list."""

        @dataclasses.dataclass(frozen=True)
        class ExtendedConfig(ServerConfig):
            extra: int = 0

        cluster = build_cluster(1, server_config=ExtendedConfig(epsilon=0.2, extra=7))
        cluster.faults.crash_window("server", start=1.0, duration=1.0)
        cluster.run(until=3.0)
        config = cluster.server.engine.config
        assert isinstance(config, ExtendedConfig)
        assert (config.epsilon, config.extra) == (0.2, 7)

    def test_first_boot_honours_recovery_delay(self):
        """The first engine is built from ``server_config`` as given; the
        delay used to be forced to 0 at first boot."""
        cluster = build_cluster(1, server_config=ServerConfig(recovery_delay=3.0))
        assert cluster.server.engine.recovering
        cluster.run(until=3.5)
        assert not cluster.server.engine.recovering
