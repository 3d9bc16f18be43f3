"""DES wiring of the replicated authority: elections, routing, N=1."""

import pytest

from repro.lease.policy import DistanceCompensatingPolicy, FixedTermPolicy
from repro.protocol.client import ClientConfig
from repro.sim.driver import SimServer, build_cluster
from repro.storage.store import FileStore

CLIENT_CONFIG = ClientConfig(rpc_timeout=1.0, write_timeout=45.0, max_retries=10)


def setup_basic(store: FileStore) -> None:
    store.create_file("/doc", b"v1")


class TestReplicatedSim:
    def test_three_replicas_elect_exactly_one_master(self):
        cluster = build_cluster(
            1, replicas=3, setup_store=setup_basic, client_config=CLIENT_CONFIG
        )
        cluster.run(until=5.0)
        masters = [
            r for r in cluster.servers
            if r.engine is not None
            and r.engine.master_valid(r.host.clock.now())
        ]
        assert len(masters) == 1
        assert cluster.master_of() is masters[0]

    def test_read_write_through_the_group(self):
        cluster = build_cluster(
            2, replicas=3, setup_store=setup_basic, client_config=CLIENT_CONFIG
        )
        datum = cluster.store.file_datum("/doc")
        a, b = cluster.clients
        result = cluster.run_until_complete(a, a.read(datum))
        assert result.ok and result.value == (1, b"v1")
        result = cluster.run_until_complete(b, b.write(datum, b"v2"))
        assert result.ok and result.value == 2
        result = cluster.run_until_complete(a, a.read(datum))
        assert result.ok and result.value == (2, b"v2")
        assert cluster.oracle.clean

    def test_single_replica_degenerates_to_one_authority(self):
        """``replicas=1`` *is* the unreplicated server: no election, no
        ``r0``, the paper's one authority on host ``server``."""
        cluster = build_cluster(
            1, replicas=1, setup_store=setup_basic, client_config=CLIENT_CONFIG
        )
        datum = cluster.store.file_datum("/doc")
        c = cluster.clients[0]
        assert cluster.run_until_complete(c, c.read(datum)).ok
        assert cluster.run_until_complete(c, c.write(datum, b"v2")).ok
        assert [type(node) for node in cluster.servers] == [SimServer]
        assert cluster.server.host.name == "server"
        assert cluster.oracle.clean

    def test_rejects_zero_replicas(self):
        with pytest.raises(ValueError):
            build_cluster(replicas=0)
        with pytest.raises(ValueError):
            build_cluster(shards=2, replicas=0)


class TestHandoffOutwaitsThePolicy:
    def test_distance_compensated_terms_survive_a_master_crash(self):
        """The handoff wait-out must cover the *padded* 15.1 s lease c0
        holds, not a guessed 10 s.

        c0 caches /doc under a 15.1 s lease, then is cut off while the
        master that granted it dies.  A successor that waits out only
        ``master_term + 10 s`` commits c1's write while c0 still trusts
        its copy, and c0's next cache hit is stale.
        """
        policy = DistanceCompensatingPolicy(FixedTermPolicy(10.0), {"c0": 5.0}, 0.1)
        cluster = build_cluster(
            2,
            replicas=3,
            policy=policy,
            master_term=1.0,
            client_config=ClientConfig(rpc_timeout=0.5, write_timeout=2.0, max_retries=40),
            setup_store=setup_basic,
            strict_oracle=False,
        )
        assert cluster.server.config.max_file_term == pytest.approx(15.1)
        datum = cluster.store.file_datum("/doc")
        a, b = cluster.clients
        cluster.run(until=3.0)
        assert cluster.run_until_complete(a, a.read(datum)).ok
        t0 = cluster.kernel.now
        master = cluster.master_of().host.name
        # c0 hears nothing while its lease lasts (no approval request can
        # reach it), and the master that granted the lease dies.
        others = [h for h in cluster.topology.hosts() if h != "c0"]
        cluster.faults.partition_window(["c0"], others, t0 + 0.01, 15.0)
        cluster.faults.crash_at(master, t0 + 0.02)
        cluster.run(until=t0 + 0.1)
        write = b.write(datum, b"v2")
        # Cache hits under the still-valid lease must agree with whatever
        # has committed by then.
        for at in (12.5, 13.5, 14.5):
            cluster.run(until=t0 + at)
            assert cluster.run_until_complete(a, a.read(datum)).ok
        assert cluster.run_until_complete(b, write, limit=60.0).ok
        assert cluster.oracle.clean, cluster.oracle.violations


class TestShardedReplicated:
    def test_two_shards_by_three_replicas(self):
        def setup(store):
            for i in range(4):
                store.create_file(f"/f{i}", b"x")

        cluster = build_cluster(
            1, shards=2, replicas=3, setup_store=setup, client_config=CLIENT_CONFIG
        )
        c = cluster.clients[0]
        for i in range(4):
            datum = cluster.store.file_datum(f"/f{i}")
            result = cluster.run_until_complete(c, c.read(datum))
            assert result.ok and result.value == (1, b"x")
        datum = cluster.store.file_datum("/f0")
        assert cluster.run_until_complete(c, c.write(datum, b"y")).ok
        assert cluster.oracle.clean
        assert len(cluster.groups) == 2
        assert all(len(g) == 3 for g in cluster.groups)

    def test_each_shard_elects_independently(self):
        cluster = build_cluster(
            1, shards=2, replicas=3, client_config=CLIENT_CONFIG
        )
        cluster.run(until=5.0)
        for shard in range(2):
            master = cluster.master_of(shard)
            assert master is not None
            assert master.host.name.startswith(f"s{shard}r")
