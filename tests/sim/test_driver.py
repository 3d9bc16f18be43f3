"""End-to-end tests of the protocol over the simulated network."""

import pytest

from repro.analytic.params import V_PARAMS
from repro.lease.policy import InfiniteTermPolicy, ZeroTermPolicy
from repro.protocol.client import ClientConfig
from repro.protocol.server import ServerConfig
from repro.sim.driver import build_cluster, install_tree
from repro.sim.network import NetworkParams
from repro.storage.store import FileStore

RTT = V_PARAMS.round_trip


def setup_basic(store: FileStore) -> None:
    store.create_file("/doc.tex", b"v1")
    store.create_file("/other.txt", b"o1")


class TestReadWrite:
    def test_first_read_takes_one_round_trip(self):
        cluster = build_cluster(n_clients=1, setup_store=setup_basic)
        datum = cluster.store.file_datum("/doc.tex")
        c = cluster.clients[0]
        result = cluster.run_until_complete(c, c.read(datum))
        assert result.ok
        assert result.value == (1, b"v1")
        assert result.latency == pytest.approx(RTT)

    def test_cached_read_is_free(self):
        cluster = build_cluster(n_clients=1, setup_store=setup_basic)
        datum = cluster.store.file_datum("/doc.tex")
        c = cluster.clients[0]
        cluster.run_until_complete(c, c.read(datum))
        before = cluster.network.stats["c0"].handled()
        result = cluster.run_until_complete(c, c.read(datum))
        assert result.latency == 0.0
        assert cluster.network.stats["c0"].handled() == before

    def test_read_after_expiry_extends(self):
        cluster = build_cluster(n_clients=1, setup_store=setup_basic)
        datum = cluster.store.file_datum("/doc.tex")
        c = cluster.clients[0]
        cluster.run_until_complete(c, c.read(datum))
        cluster.run(until=cluster.kernel.now + 15.0)
        result = cluster.run_until_complete(c, c.read(datum))
        assert result.ok
        assert result.latency == pytest.approx(RTT)
        assert cluster.network.stats["server"].received["lease/extend"] == 1

    def test_unshared_write_round_trip(self):
        cluster = build_cluster(n_clients=1, setup_store=setup_basic)
        datum = cluster.store.file_datum("/doc.tex")
        c = cluster.clients[0]
        result = cluster.run_until_complete(c, c.write(datum, b"v2"))
        assert result.ok
        assert result.value == 2
        assert result.latency == pytest.approx(RTT)
        assert cluster.store.file_at("/doc.tex").content == b"v2"

    def test_shared_write_pays_approval_time(self):
        """t_w = 2*m_prop + (S+2)*m_proc beyond the basic round trip."""
        n = 4
        cluster = build_cluster(n_clients=n, setup_store=setup_basic)
        datum = cluster.store.file_datum("/doc.tex")
        for c in cluster.clients:
            cluster.run_until_complete(c, c.read(datum))
        writer = cluster.clients[0]
        result = cluster.run_until_complete(writer, writer.write(datum, b"v2"))
        p = cluster.network.params
        s = n  # all clients hold leases; writer approval implicit
        t_w = 2 * p.m_prop + (s + 2) * p.m_proc
        assert result.latency == pytest.approx(RTT + t_w)

    def test_write_invalidates_other_caches(self):
        cluster = build_cluster(n_clients=2, setup_store=setup_basic)
        datum = cluster.store.file_datum("/doc.tex")
        a, b = cluster.clients
        cluster.run_until_complete(a, a.read(datum))
        cluster.run_until_complete(b, b.write(datum, b"v2"))
        result = cluster.run_until_complete(a, a.read(datum))
        assert result.value == (2, b"v2")
        assert cluster.oracle.clean

    def test_writer_keeps_own_cache_entry(self):
        cluster = build_cluster(n_clients=1, setup_store=setup_basic)
        datum = cluster.store.file_datum("/doc.tex")
        c = cluster.clients[0]
        cluster.run_until_complete(c, c.read(datum))
        cluster.run_until_complete(c, c.write(datum, b"v2"))
        result = cluster.run_until_complete(c, c.read(datum))
        assert result.value == (2, b"v2")
        assert result.latency == 0.0  # served from its own cache

    def test_concurrent_writers_serialize(self):
        cluster = build_cluster(n_clients=3, setup_store=setup_basic)
        datum = cluster.store.file_datum("/doc.tex")
        for c in cluster.clients:
            cluster.run_until_complete(c, c.read(datum))
        ops = [c.write(datum, f"from-{c.host.name}".encode()) for c in cluster.clients]
        for c, op in zip(cluster.clients, ops):
            result = cluster.run_until_complete(c, op)
            assert result.ok
        assert cluster.store.file_at("/doc.tex").version == 4
        assert cluster.oracle.clean


class TestTermPolicies:
    def test_zero_term_checks_every_read(self):
        cluster = build_cluster(
            n_clients=1, policy=ZeroTermPolicy(), setup_store=setup_basic
        )
        datum = cluster.store.file_datum("/doc.tex")
        c = cluster.clients[0]
        for _ in range(5):
            cluster.run_until_complete(c, c.read(datum))
        assert cluster.network.stats["server"].received["lease/read"] == 5

    def test_infinite_term_never_extends(self):
        cluster = build_cluster(
            n_clients=1, policy=InfiniteTermPolicy(), setup_store=setup_basic
        )
        datum = cluster.store.file_datum("/doc.tex")
        c = cluster.clients[0]
        cluster.run_until_complete(c, c.read(datum))
        cluster.run(until=cluster.kernel.now + 3600.0)
        result = cluster.run_until_complete(c, c.read(datum))
        assert result.latency == 0.0
        assert cluster.network.stats["server"].received["lease/extend"] == 0

    def test_infinite_term_write_uses_callbacks(self):
        cluster = build_cluster(
            n_clients=2, policy=InfiniteTermPolicy(), setup_store=setup_basic
        )
        datum = cluster.store.file_datum("/doc.tex")
        a, b = cluster.clients
        cluster.run_until_complete(a, a.read(datum))
        result = cluster.run_until_complete(b, b.write(datum, b"v2"))
        assert result.ok
        assert cluster.network.stats["server"].received["lease/approve"] == 1
        assert cluster.oracle.clean


class TestNamespaceOps:
    def test_mkdir_bind_read(self):
        cluster = build_cluster(n_clients=1, setup_store=setup_basic)
        c = cluster.clients[0]
        r = cluster.run_until_complete(c, c.namespace_op("mkdir", ("/src",)))
        assert r.ok
        r = cluster.run_until_complete(
            c, c.namespace_op("bind", ("/src/main.c", b"int main;", "normal"))
        )
        assert r.ok
        datum = cluster.store.file_datum("/src/main.c")
        result = cluster.run_until_complete(c, c.read(datum))
        assert result.value[1] == b"int main;"

    def test_rename_invalidates_cached_directory(self):
        cluster = build_cluster(n_clients=2, setup_store=setup_basic)
        root = cluster.store.dir_datum("/")
        a, b = cluster.clients
        r1 = cluster.run_until_complete(a, a.read(root))
        names = [name for name, *_ in r1.value[1]]
        assert "doc.tex" in names
        r = cluster.run_until_complete(b, b.namespace_op("rename", ("/doc.tex", "/paper.tex")))
        assert r.ok
        r2 = cluster.run_until_complete(a, a.read(root))
        names = [name for name, *_ in r2.value[1]]
        assert "paper.tex" in names and "doc.tex" not in names
        assert cluster.oracle.clean


class TestInstalledFiles:
    def make_installed_cluster(self, n_clients=3):
        holder = {}

        def setup(store: FileStore) -> None:
            holder.update(install_tree(store, "/bin", {"latex": b"latex-v1", "cc": b"cc-v1"}))

        cluster = build_cluster(
            n_clients=n_clients,
            setup_store=setup,
            server_config=ServerConfig(announce_period=5.0),
            cover_term=10.0,
        )
        return cluster, holder

    def test_covered_reads_stay_cached_indefinitely(self):
        """Announcements keep covers alive: no extensions, ever (§4)."""
        cluster, datums = self.make_installed_cluster(n_clients=2)
        latex = datums["/bin/latex"]
        c = cluster.clients[0]
        cluster.run_until_complete(c, c.read(latex))
        cluster.run(until=cluster.kernel.now + 120.0)
        result = cluster.run_until_complete(c, c.read(latex))
        assert result.latency == 0.0
        assert cluster.network.stats["server"].received["lease/extend"] == 0
        assert cluster.server.engine.table.lease_count() == 0  # no per-client record

    def test_installed_update_needs_no_callbacks(self):
        cluster, datums = self.make_installed_cluster(n_clients=3)
        latex = datums["/bin/latex"]
        for c in cluster.clients:
            cluster.run_until_complete(c, c.read(latex))
        writer = cluster.clients[0]
        result = cluster.run_until_complete(
            writer, writer.write(latex, b"latex-v2"), limit=60.0
        )
        assert result.ok
        assert cluster.network.stats["server"].received["lease/approve"] == 0
        # delayed update: committed only after the announced term ran out
        assert result.latency > 1.0

    def test_installed_readers_see_new_version_after_update(self):
        cluster, datums = self.make_installed_cluster(n_clients=2)
        latex = datums["/bin/latex"]
        a, b = cluster.clients
        cluster.run_until_complete(a, a.read(latex))
        cluster.run_until_complete(b, b.write(latex, b"latex-v2"), limit=60.0)
        result = cluster.run_until_complete(a, a.read(latex), limit=60.0)
        assert result.value == (2, b"latex-v2")
        assert cluster.oracle.clean


class TestMulticastAblation:
    def test_unicast_approvals_cost_more_messages(self):
        def run(use_multicast):
            cluster = build_cluster(
                n_clients=5, setup_store=setup_basic, use_multicast=use_multicast
            )
            datum = cluster.store.file_datum("/doc.tex")
            for c in cluster.clients:
                cluster.run_until_complete(c, c.read(datum))
            w = cluster.clients[0]
            cluster.run_until_complete(w, w.write(datum, b"v2"))
            return cluster.network.stats["server"].handled(["lease/approve"])

        multicast_msgs = run(True)
        unicast_msgs = run(False)
        # multicast: 1 send + (S-1) replies = S; unicast: 2(S-1)
        assert multicast_msgs == 5
        assert unicast_msgs == 8


class TestRetransmissionOverLossyNetwork:
    def test_reads_survive_heavy_loss(self):
        cluster = build_cluster(
            n_clients=1,
            setup_store=setup_basic,
            network_params=NetworkParams(m_prop=0.27e-3, m_proc=0.5e-3, loss_rate=0.3),
            client_config=ClientConfig(rpc_timeout=0.5, max_retries=50),
            seed=3,
        )
        datum = cluster.store.file_datum("/doc.tex")
        c = cluster.clients[0]
        for _ in range(10):
            result = cluster.run_until_complete(c, c.read(datum), limit=120.0)
            assert result.ok
            cluster.run(until=cluster.kernel.now + 15.0)  # let the lease lapse
        assert cluster.oracle.clean

    def test_writes_commit_exactly_once_under_loss(self):
        cluster = build_cluster(
            n_clients=2,
            setup_store=setup_basic,
            network_params=NetworkParams(m_prop=0.27e-3, m_proc=0.5e-3, loss_rate=0.25),
            client_config=ClientConfig(rpc_timeout=0.5, write_timeout=2.0, max_retries=60),
            seed=11,
        )
        datum = cluster.store.file_datum("/doc.tex")
        a, b = cluster.clients
        for i in range(5):
            result = cluster.run_until_complete(a, a.write(datum, b"w%d" % i), limit=300.0)
            assert result.ok
        # 5 writes -> exactly 5 commits despite retransmissions
        assert cluster.store.file_at("/doc.tex").version == 6
        assert cluster.oracle.clean
