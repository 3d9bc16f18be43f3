"""Every §6 server is the lease server with its own ``_grant``, so each
speaks the whole client protocol: batched frames, relinquishes and
compare-and-swap writes behave the same on leases, TTL hints and DFS
locks."""

import pytest

from repro.baselines import make_dfs_lock_cluster, make_ttl_cluster
from repro.lease.policy import FixedTermPolicy
from repro.protocol.client import ClientConfig
from repro.sim.driver import build_cluster


def setup_store(store):
    store.create_file("/a", b"a1")
    store.create_file("/b", b"b1")


def make_leases_cluster(**kwargs):
    return build_cluster(policy=FixedTermPolicy(10.0), **kwargs)


SERVERS = [
    pytest.param(make_leases_cluster, id="leases"),
    pytest.param(make_ttl_cluster, id="ttl"),
    pytest.param(make_dfs_lock_cluster, id="dfs"),
]


@pytest.mark.parametrize("make", SERVERS)
def test_a_batching_client_reads_two_files_in_one_instant(make):
    cluster = make(
        n_clients=1, setup_store=setup_store, client_config=ClientConfig(batching=True)
    )
    (c,) = cluster.clients
    ops = [c.read(cluster.store.file_datum(path)) for path in ("/a", "/b")]
    cluster.run(until=1.0)
    assert [c.results[op].value for op in ops] == [(1, b"a1"), (1, b"b1")]
    assert cluster.network.stats["server"].received["lease/batch"] == 1


@pytest.mark.parametrize("make", SERVERS)
def test_a_relinquished_lease_holds_up_no_write(make):
    cluster = make(n_clients=2, setup_store=setup_store)
    a, b = cluster.clients
    datum = cluster.store.file_datum("/a")
    cluster.run_until_complete(a, a.read(datum))
    a.relinquish(datum)
    cluster.run(until=cluster.kernel.now + 1.0)
    w = cluster.run_until_complete(b, b.write(datum, b"a2"))
    assert w.ok and w.latency == pytest.approx(cluster.network.params.round_trip)
    r = cluster.run_until_complete(a, a.read(datum))
    assert r.latency > 0.0 and r.value == (2, b"a2")
    assert cluster.oracle.clean


@pytest.mark.parametrize("make", SERVERS)
def test_a_stale_cas_write_is_refused(make):
    cluster = make(n_clients=2, setup_store=setup_store)
    a, b = cluster.clients
    datum = cluster.store.file_datum("/a")
    assert cluster.run_until_complete(a, a.write(datum, b"a2", cas=1)).ok
    w = cluster.run_until_complete(b, b.write(datum, b"a3", cas=1))
    assert not w.ok and w.error.startswith("cas mismatch")
    assert cluster.store.file_at("/a").content == b"a2"
