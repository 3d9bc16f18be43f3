"""Tests for the NFS-style TTL baseline."""

import pytest

from repro.baselines import make_ttl_cluster
from repro.storage.store import FileStore


def setup_store(store: FileStore) -> None:
    store.create_file("/shared.txt", b"v1")


def make(n_clients=2, ttl=10.0, **kwargs):
    return make_ttl_cluster(ttl=ttl, n_clients=n_clients, setup_store=setup_store, **kwargs)


class TestReads:
    def test_read_and_cache(self):
        cluster = make()
        datum = cluster.store.file_datum("/shared.txt")
        c = cluster.clients[0]
        r1 = cluster.run_until_complete(c, c.read(datum))
        assert r1.value == (1, b"v1")
        r2 = cluster.run_until_complete(c, c.read(datum))
        assert r2.latency == 0.0  # served under TTL

    def test_reread_after_ttl_revalidates(self):
        cluster = make()
        datum = cluster.store.file_datum("/shared.txt")
        c = cluster.clients[0]
        cluster.run_until_complete(c, c.read(datum))
        cluster.run(until=cluster.kernel.now + 15.0)
        r = cluster.run_until_complete(c, c.read(datum))
        assert r.latency > 0.0

    def test_server_keeps_no_state(self):
        cluster = make()
        datum = cluster.store.file_datum("/shared.txt")
        for c in cluster.clients:
            cluster.run_until_complete(c, c.read(datum))
        assert cluster.server.engine.lease_count() == 0


class TestWrites:
    def test_write_commits_immediately_despite_caches(self):
        cluster = make()
        datum = cluster.store.file_datum("/shared.txt")
        a, b = cluster.clients
        cluster.run_until_complete(a, a.read(datum))
        w = cluster.run_until_complete(b, b.write(datum, b"v2"))
        assert w.ok
        assert w.latency == pytest.approx(cluster.network.params.round_trip)
        assert cluster.network.stats["server"].handled(["lease/approve"]) == 0

    def test_stale_reads_within_ttl(self):
        """The defining weakness: a cached copy stays visible for up to a
        TTL after another client's write."""
        cluster = make()
        datum = cluster.store.file_datum("/shared.txt")
        a, b = cluster.clients
        cluster.run_until_complete(a, a.read(datum))
        cluster.run_until_complete(b, b.write(datum, b"v2"))
        r = cluster.run_until_complete(a, a.read(datum))
        assert r.value == (1, b"v1")  # stale!
        assert len(cluster.oracle.violations) == 1

    def test_staleness_bounded_by_ttl(self):
        cluster = make(ttl=5.0)
        datum = cluster.store.file_datum("/shared.txt")
        a, b = cluster.clients
        cluster.run_until_complete(a, a.read(datum))
        cluster.run_until_complete(b, b.write(datum, b"v2"))
        cluster.run(until=cluster.kernel.now + 6.0)  # past the TTL
        r = cluster.run_until_complete(a, a.read(datum))
        assert r.value == (2, b"v2")

    def test_duplicate_write_seq_not_recommitted(self):
        cluster = make()
        datum = cluster.store.file_datum("/shared.txt")
        a = cluster.clients[0]
        cluster.run_until_complete(a, a.write(datum, b"v2"))
        # resend the identical message by hand
        from repro.protocol.messages import WriteRequest

        msg = WriteRequest(999, datum, b"v2", write_seq=1_000_001)
        cluster.network.unicast("c0", "server", msg, kind=msg.kind)
        cluster.run(until=cluster.kernel.now + 1.0)
        assert cluster.store.file_at("/shared.txt").version == 2


class TestNamespace:
    def test_namespace_ops_work_without_coordination(self):
        cluster = make()
        c = cluster.clients[0]
        r = cluster.run_until_complete(c, c.namespace_op("mkdir", ("/dir",)))
        assert r.ok
        r = cluster.run_until_complete(
            c, c.namespace_op("bind", ("/dir/f", b"x", "normal"))
        )
        assert r.ok
        assert cluster.store.file_at("/dir/f").content == b"x"


class TestServerCrash:
    def test_read_completes_after_a_server_restart(self):
        """A §6 comparison with a server crash used to die here: the
        driver asked the TTL engine for a crash bound it does not have."""
        cluster = make()
        datum = cluster.store.file_datum("/shared.txt")
        cluster.faults.crash_window("server", 1.0, 1.0)
        cluster.run(until=2.5)
        assert cluster.master_of() is cluster.server
        c = cluster.clients[0]
        r = cluster.run_until_complete(c, c.read(datum))
        assert r.ok and r.value == (1, b"v1")
