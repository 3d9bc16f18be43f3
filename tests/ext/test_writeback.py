"""Tests for the write-back extension (exclusive write leases + recall)."""


from repro.ext import build_writeback_cluster
from repro.ext.writeback import WriteBackClientConfig
from repro.lease.policy import FixedTermPolicy

TERM = 10.0


def make(n_clients=3, term=TERM, **kwargs):
    kwargs.setdefault("policy", FixedTermPolicy(term))
    kwargs.setdefault("setup_store", lambda s: s.create_file("/data", b"v1"))
    kwargs.setdefault(
        "client_config",
        WriteBackClientConfig(rpc_timeout=1.0, max_retries=30, flush_margin=2.0),
    )
    return build_writeback_cluster(n_clients=n_clients, **kwargs)


class TestAcquisition:
    def test_acquire_returns_data_and_lease(self):
        cluster = make()
        datum = cluster.store.file_datum("/data")
        a = cluster.clients[0]
        r = cluster.run_until_complete(a, a.acquire_write(datum))
        assert r.ok
        assert r.value == (1, b"v1")
        assert a.engine.holds_write_lease(datum, a.host.clock.now())
        assert cluster.server.engine.write_lease_owner(datum) == "c0"

    def test_acquire_gates_on_read_leaseholders(self):
        """Granting exclusivity needs approval (or expiry) of every read
        lease, exactly like a write (§2)."""
        cluster = make()
        datum = cluster.store.file_datum("/data")
        a, b, c = cluster.clients
        cluster.run_until_complete(b, b.read(datum))
        cluster.run_until_complete(c, c.read(datum))
        r = cluster.run_until_complete(a, a.acquire_write(datum), limit=30.0)
        assert r.ok
        assert cluster.network.stats["server"].handled(["lease/approve"]) >= 3

    def test_acquire_blocked_by_unreachable_reader_at_most_one_term(self):
        cluster = make()
        datum = cluster.store.file_datum("/data")
        a, b, _ = cluster.clients
        cluster.run_until_complete(b, b.read(datum))
        cluster.faults.isolate_host("c1")
        r = cluster.run_until_complete(a, a.acquire_write(datum), limit=60.0)
        assert r.ok
        assert r.latency <= TERM + 0.1

    def test_renewal_by_owner(self):
        cluster = make()
        datum = cluster.store.file_datum("/data")
        a = cluster.clients[0]
        cluster.run_until_complete(a, a.acquire_write(datum))
        cluster.run(until=cluster.kernel.now + TERM / 2)
        r = cluster.run_until_complete(a, a.acquire_write(datum))
        assert r.ok
        assert a.engine.holds_write_lease(datum, a.host.clock.now())

    def test_zero_term_policy_refuses_write_lease(self):
        from repro.lease.policy import ZeroTermPolicy

        cluster = make(policy=ZeroTermPolicy())
        datum = cluster.store.file_datum("/data")
        a = cluster.clients[0]
        r = cluster.run_until_complete(a, a.acquire_write(datum), limit=30.0)
        assert not r.ok

    def test_missing_datum_fails(self):
        from repro.types import DatumId

        cluster = make()
        a = cluster.clients[0]
        r = cluster.run_until_complete(a, a.acquire_write(DatumId.file("file:999")))
        assert not r.ok


class TestLocalWrites:
    def test_local_writes_are_instant_and_absorbed(self):
        cluster = make()
        datum = cluster.store.file_datum("/data")
        a = cluster.clients[0]
        cluster.run_until_complete(a, a.acquire_write(datum))
        before = cluster.network.stats["c0"].handled()
        for i in range(10):
            r = cluster.run_until_complete(a, a.local_write(datum, b"d%d" % i))
            assert r.ok and r.latency == 0.0
        assert cluster.network.stats["c0"].handled() == before  # zero messages
        assert a.engine.local_writes_absorbed == 9

    def test_owner_reads_its_own_writes(self):
        cluster = make()
        datum = cluster.store.file_datum("/data")
        a = cluster.clients[0]
        cluster.run_until_complete(a, a.acquire_write(datum))
        cluster.run_until_complete(a, a.local_write(datum, b"draft"))
        r = cluster.run_until_complete(a, a.read(datum))
        assert r.value[1] == b"draft"
        assert r.latency == 0.0

    def test_local_write_without_lease_falls_back_to_write_through(self):
        cluster = make()
        datum = cluster.store.file_datum("/data")
        a = cluster.clients[0]
        r = cluster.run_until_complete(a, a.local_write(datum, b"direct"), limit=30.0)
        assert r.ok
        assert cluster.store.file_at("/data").content == b"direct"

    def test_explicit_flush_commits_and_keeps_lease(self):
        cluster = make()
        datum = cluster.store.file_datum("/data")
        a = cluster.clients[0]
        cluster.run_until_complete(a, a.acquire_write(datum))
        cluster.run_until_complete(a, a.local_write(datum, b"draft"))
        r = cluster.run_until_complete(a, a.flush(datum))
        assert r.ok
        assert cluster.store.file_at("/data").content == b"draft"
        assert a.engine.holds_write_lease(datum, a.host.clock.now())
        assert not a.engine.dirty_datums()

    def test_flush_with_nothing_dirty_is_local_noop(self):
        cluster = make()
        datum = cluster.store.file_datum("/data")
        a = cluster.clients[0]
        cluster.run_until_complete(a, a.acquire_write(datum))
        r = cluster.run_until_complete(a, a.flush(datum))
        assert r.ok and r.latency == 0.0


class TestRecall:
    def test_reader_triggers_recall_and_sees_dirty_data(self):
        cluster = make()
        datum = cluster.store.file_datum("/data")
        a, b, _ = cluster.clients
        cluster.run_until_complete(a, a.acquire_write(datum))
        cluster.run_until_complete(a, a.local_write(datum, b"draft"))
        r = cluster.run_until_complete(b, b.read(datum), limit=30.0)
        assert r.value == (2, b"draft")
        assert cluster.server.engine.write_lease_owner(datum) is None
        assert cluster.oracle.clean

    def test_writer_triggers_recall(self):
        cluster = make()
        datum = cluster.store.file_datum("/data")
        a, b, _ = cluster.clients
        cluster.run_until_complete(a, a.acquire_write(datum))
        cluster.run_until_complete(a, a.local_write(datum, b"draft"))
        r = cluster.run_until_complete(b, b.write(datum, b"other"), limit=30.0)
        assert r.ok
        # the recall flush committed first, then b's write
        assert cluster.store.file_at("/data").content == b"other"
        assert cluster.store.file_at("/data").version == 3

    def test_recalled_owner_loses_lease_and_refetches(self):
        cluster = make()
        datum = cluster.store.file_datum("/data")
        a, b, _ = cluster.clients
        cluster.run_until_complete(a, a.acquire_write(datum))
        cluster.run_until_complete(a, a.local_write(datum, b"draft"))
        cluster.run_until_complete(b, b.read(datum), limit=30.0)
        assert not a.engine.holds_write_lease(datum, a.host.clock.now())
        r = cluster.run_until_complete(a, a.read(datum), limit=30.0)
        assert r.value == (2, b"draft")

    def test_clean_recall_commits_nothing(self):
        cluster = make()
        datum = cluster.store.file_datum("/data")
        a, b, _ = cluster.clients
        cluster.run_until_complete(a, a.acquire_write(datum))
        cluster.run_until_complete(b, b.read(datum), limit=30.0)
        assert cluster.store.file_at("/data").version == 1  # nothing dirty

    def test_former_owner_reads_after_a_clean_recall_in_one_request(self):
        """Regression (found by reading the invalidation sites): a recall
        invalidates the owner's copy anticipating a commit, but with
        nothing dirty nothing commits — the recall site never recorded
        when it invalidated, so the former owner's next read refused the
        still-current v1 forever (11 812 ``ReadRequest``s in 30 simulated
        seconds, then ``TimeoutError``)."""
        cluster = make()
        datum = cluster.store.file_datum("/data")
        a, b, _ = cluster.clients
        cluster.run_until_complete(a, a.acquire_write(datum))
        cluster.run_until_complete(b, b.read(datum), limit=30.0)
        sent_before = sum(cluster.network.stats["c0"].sent.values())
        r = cluster.run_until_complete(a, a.read(datum), limit=30.0)
        assert r.value == (1, b"v1")
        assert sum(cluster.network.stats["c0"].sent.values()) == sent_before + 1
        assert cluster.oracle.clean

    def test_batched_foreign_write_commits_after_the_surrender(self):
        """Regression: the recall used to be triggered by a scan of
        top-level messages, so a write batched with another op went
        straight to an approval round the owner answered; it committed
        while the owner held its lease and dirty data, and the owner's
        background flush then overwrote it (final content ``a-dirty``)."""
        def setup(store):
            store.create_file("/data", b"v1")
            store.create_file("/other", b"o1")

        cluster = make(
            setup_store=setup,
            client_config=WriteBackClientConfig(rpc_timeout=1.0, max_retries=30, batching=True),
        )
        datum = cluster.store.file_datum("/data")
        a, b, _ = cluster.clients
        cluster.run_until_complete(a, a.acquire_write(datum))
        cluster.run_until_complete(a, a.local_write(datum, b"a-dirty"))
        write = b.write(datum, b"b-write")
        b.read(cluster.store.file_datum("/other"))  # same instant: one batch
        assert cluster.run_until_complete(b, write, limit=30.0).ok
        cluster.run(until=cluster.kernel.now + 2 * TERM)  # past every flush timer
        record = cluster.store.file_at("/data")
        assert (record.version, record.content) == (3, b"b-write")  # a-dirty was v2
        assert not a.engine.dirty_datums()
        assert cluster.oracle.clean

    def test_read_deferred_behind_an_acquisition_needs_no_retransmission(self):
        """Regression: a read that waited behind an acquisition stayed
        deferred after the grant until its retransmission recalled the
        new owner (2.005 s with a 2-s RPC timeout); now the grant replays
        it and the replay starts the recall."""
        cluster = make(client_config=WriteBackClientConfig(rpc_timeout=2.0, max_retries=30))
        datum = cluster.store.file_datum("/data")
        a, b, c = cluster.clients
        cluster.run_until_complete(c, c.read(datum))
        acquire = a.acquire_write(datum)
        read = b.read(datum)  # arrives while the acquisition awaits c
        assert cluster.run_until_complete(a, acquire, limit=30.0).ok
        r = cluster.run_until_complete(b, read, limit=30.0)
        assert r.value == (1, b"v1")
        assert b.engine.metrics.retransmissions == 0
        assert r.latency < 0.1
        assert cluster.oracle.clean

    def test_competing_acquirer_triggers_recall(self):
        cluster = make()
        datum = cluster.store.file_datum("/data")
        a, b, _ = cluster.clients
        cluster.run_until_complete(a, a.acquire_write(datum))
        cluster.run_until_complete(a, a.local_write(datum, b"from-a"))
        r = cluster.run_until_complete(b, b.acquire_write(datum), limit=30.0)
        assert r.ok
        assert cluster.server.engine.write_lease_owner(datum) == "c1"
        assert r.value == (2, b"from-a")


class TestFailureSemantics:
    def test_unreachable_owner_delays_readers_one_term(self):
        cluster = make()
        datum = cluster.store.file_datum("/data")
        a, b, _ = cluster.clients
        cluster.run_until_complete(a, a.acquire_write(datum))
        cluster.faults.isolate_host("c0")
        r = cluster.run_until_complete(b, b.read(datum), limit=60.0)
        assert r.ok
        assert r.latency <= TERM + 0.1
        assert cluster.oracle.clean

    def test_crashed_owner_loses_unflushed_writes(self):
        """The documented write-back cost: dirty data dies with the owner
        (write-through 'gives clean failure semantics' precisely because
        it avoids this, §2)."""
        cluster = make()
        datum = cluster.store.file_datum("/data")
        a, b, _ = cluster.clients
        cluster.run_until_complete(a, a.acquire_write(datum))
        cluster.run_until_complete(a, a.local_write(datum, b"precious"))
        a.host.crash()
        r = cluster.run_until_complete(b, b.read(datum), limit=60.0)
        assert r.value == (1, b"v1")  # the buffered write is gone
        assert cluster.oracle.clean  # but consistency holds

    def test_background_flush_bounds_the_loss_window(self):
        """Dirty data is auto-flushed before the lease's final margin, so
        a crash after the margin loses nothing."""
        cluster = make(
            client_config=WriteBackClientConfig(
                rpc_timeout=1.0, max_retries=30, flush_margin=TERM - 1.0
            )
        )
        datum = cluster.store.file_datum("/data")
        a, b, _ = cluster.clients
        cluster.run_until_complete(a, a.acquire_write(datum))
        cluster.run_until_complete(a, a.local_write(datum, b"precious"))
        # the background timer first fires at flush_margin/2 = 4.5 s
        cluster.run(until=cluster.kernel.now + 5.0)
        assert cluster.store.file_at("/data").content == b"precious"
        a.host.crash()
        r = cluster.run_until_complete(b, b.read(datum), limit=60.0)
        assert r.value[1] == b"precious"

    def test_flush_after_losing_lease_is_rejected(self):
        cluster = make()
        datum = cluster.store.file_datum("/data")
        a, b, _ = cluster.clients
        cluster.run_until_complete(a, a.acquire_write(datum))
        cluster.run_until_complete(a, a.local_write(datum, b"mine"))
        # the lease is recalled while we hold dirty data
        cluster.run_until_complete(b, b.read(datum), limit=30.0)
        # a manual flush now must fail: we no longer own the datum
        op, effects = a.engine.flush(datum, a.host.clock.now())
        assert effects[0].__class__.__name__ == "Complete"  # nothing dirty anymore


class TestEconomics:
    def test_write_absorption_reduces_server_traffic(self):
        """N local writes cost one commit; write-through costs N."""

        def run(write_back: bool) -> int:
            cluster = make(n_clients=1)
            datum = cluster.store.file_datum("/data")
            a = cluster.clients[0]
            if write_back:
                cluster.run_until_complete(a, a.acquire_write(datum))
                for i in range(20):
                    cluster.run_until_complete(a, a.local_write(datum, b"%d" % i))
                cluster.run_until_complete(a, a.flush(datum))
            else:
                for i in range(20):
                    cluster.run_until_complete(a, a.write(datum, b"%d" % i), limit=30.0)
            return cluster.network.stats["server"].handled()

        assert run(True) < run(False) / 3

    def test_oracle_clean_through_mixed_workload(self):
        cluster = make(n_clients=3)
        datum = cluster.store.file_datum("/data")
        a, b, c = cluster.clients
        for round_no in range(5):
            cluster.run_until_complete(a, a.acquire_write(datum), limit=60.0)
            cluster.run_until_complete(a, a.local_write(datum, b"r%d" % round_no))
            cluster.run_until_complete(b, b.read(datum), limit=60.0)
            cluster.run_until_complete(c, c.write(datum, b"w%d" % round_no), limit=60.0)
            cluster.run(until=cluster.kernel.now + 3.0)
        assert cluster.oracle.clean
        assert cluster.oracle.reads_checked >= 5


class TestAssembly:
    """Write-back clients come out of build_cluster's one client loop, so
    they get the cluster's trace bus and client clocks like any other."""

    def test_clients_get_the_configured_clocks(self):
        cluster = make(client_clock_params=lambda i: (0.0, 0.5))
        assert [c.host.clock.drift for c in cluster.clients] == [0.5] * 3

    def test_clients_are_traced(self):
        from repro.obs import TraceBus
        from repro.obs.events import LOCAL_HIT

        bus = TraceBus(capacity=None)
        cluster = make(obs=bus)
        a = cluster.clients[0]
        assert a.engine.obs is bus and a._timers._obs is bus
        datum = cluster.store.file_datum("/data")
        cluster.run_until_complete(a, a.read(datum))
        assert cluster.run_until_complete(a, a.read(datum)).latency == 0.0
        assert [e["host"] for e in bus.events(LOCAL_HIT)] == ["c0"]
