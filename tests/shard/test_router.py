"""Router, host-naming and sharded-store placement invariants."""

import pytest

from repro.shard.router import SHARD_ID_SPAN, ShardRouter
from repro.shard.store import ShardedStore
from repro.topology import Topology, is_server_host
from repro.types import DatumId


class TestShardHosts:
    def test_canonical_names(self):
        assert Topology(shards=3).servers() == ("s0", "s1", "s2")
        assert ShardRouter(3).hosts == ("s0", "s1", "s2")

    def test_is_server_host(self):
        assert is_server_host("server")
        assert is_server_host("s0")
        assert is_server_host("s17")
        assert not is_server_host("c0")
        assert not is_server_host("s")
        assert not is_server_host("sx")
        assert not is_server_host("")


class TestShardRouter:
    def test_host_and_index_roundtrip(self):
        router = ShardRouter(4)
        datum = DatumId.file("file:9")
        host = router.host_of(datum)
        assert router.index_of(host) == router.shard_of(datum)
        assert router.index_of("stranger") is None

    def test_rejects_host_count_mismatch(self):
        with pytest.raises(ValueError):
            ShardRouter(2, hosts=("s0",))

    def test_id_span_clears_incarnation_steps(self):
        # Drivers step id_base by at most 1e6 per incarnation/client; the
        # per-shard slice must dominate that by orders of magnitude.
        assert SHARD_ID_SPAN >= 1_000 * 1_000_000


class TestShardedStore:
    def test_global_ids_unique_across_shards(self):
        store = ShardedStore(4)
        ids = [store.create_file(f"/f{i}", b"x").file_id for i in range(40)]
        assert len(set(ids)) == 40

    def test_placement_agrees_with_independent_router(self):
        """Store placement and any client's router must coincide."""
        store = ShardedStore(4)
        router = ShardRouter(4)
        for i in range(40):
            store.create_file(f"/f{i}", b"x")
        for i in range(40):
            datum = store.file_datum(f"/f{i}")
            shard = router.shard_of(datum)
            assert store.shard_of_path(f"/f{i}") == shard
            assert store.shards[shard].datum_exists(datum)

    def test_facade_reads_route_to_owner(self):
        store = ShardedStore(3)
        store.create_file("/a", b"payload")
        datum = store.file_datum("/a")
        version, payload = store.read_datum(datum)
        assert (version, payload) == (1, b"payload")
        assert store.version_of(datum) == 1
        assert store.datum_exists(datum)
        assert store.file_count() == 1

    def test_rejects_router_shape_mismatch(self):
        with pytest.raises(ValueError):
            ShardedStore(3, router=ShardRouter(2))
