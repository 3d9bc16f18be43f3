"""`Topology`: the one place that spells host names."""

import pytest

from repro.topology import Topology, client_host, is_replica_host, is_server_host


class TestNaming:
    def test_the_smallest_case_is_the_classic_cluster(self):
        topology = Topology()
        assert topology.groups() == (("server",),)
        assert topology.hosts() == ("server", "c0", "c1")
        assert topology.server_address() == "server"

    def test_sharded(self):
        topology = Topology(shards=3, clients=1)
        assert topology.groups() == (("s0",), ("s1",), ("s2",))
        assert topology.server_address() == ("s0", "s1", "s2")
        assert topology.hosts() == ("s0", "s1", "s2", "c0")

    def test_replicated(self):
        topology = Topology(replicas=3)
        assert topology.groups() == (("r0", "r1", "r2"),)
        assert topology.server_address() == ("r0", "r1", "r2")

    def test_sharded_and_replicated(self):
        topology = Topology(shards=2, replicas=2, clients=0)
        assert topology.group(1) == ("s1r0", "s1r1")
        assert topology.server_address() == (("s0r0", "s0r1"), ("s1r0", "s1r1"))
        assert topology.hosts() == ("s0r0", "s0r1", "s1r0", "s1r1")

    def test_rejects_empty_dimensions(self):
        with pytest.raises(ValueError, match="shard"):
            Topology(shards=0)
        with pytest.raises(ValueError, match="replica"):
            Topology(replicas=0)
        with pytest.raises(ValueError, match="client"):
            Topology(clients=-1)


class TestParsers:
    @pytest.mark.parametrize("shards,replicas", [(1, 1), (4, 1), (1, 3), (2, 3)])
    def test_parsers_agree_with_the_constructors(self, shards, replicas):
        topology = Topology(shards=shards, replicas=replicas, clients=3)
        for host in topology.servers():
            assert is_server_host(host)
            assert is_replica_host(host) == (replicas > 1)
        for host in topology.client_hosts():
            assert not is_server_host(host) and not is_replica_host(host)
        assert topology.client_hosts()[2] == client_host(2)

    def test_near_misses(self):
        for name in ("", "s", "sx", "r", "rx", "s1r", "sr1", "c0", "servers"):
            assert not is_server_host(name), name
