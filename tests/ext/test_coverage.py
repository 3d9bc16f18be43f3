"""Tests for §7 adaptive coverage: promotion, demotion, and their safety."""


from repro.ext.coverage import AdaptiveCoverageServerEngine, CoveragePolicy
from repro.lease.policy import FixedTermPolicy
from repro.sim.driver import build_cluster

TERM = 10.0


class FastCoverageEngine(AdaptiveCoverageServerEngine):
    # Thresholds are against *server-observed* rates: a leased hot file
    # only touches the server once per term per client (that is the whole
    # point), so observable read rates are N/term-sized.
    coverage_policy = CoveragePolicy(
        period=5.0,
        promote_read_rate=0.1,
        promote_max_write_rate=0.001,
        demote_write_rate=0.01,
    )


def make(n_clients=4, seed=0):
    return build_cluster(
        n_clients=n_clients,
        policy=FixedTermPolicy(TERM),
        setup_store=lambda s: (
            s.create_file("/hot-binary", b"bin"),
            s.create_file("/quiet-file", b"quiet"),
        ),
        server_engine_factory=FastCoverageEngine,
        seed=seed,
    )


def drive_reads(cluster, datum, period=1.0, duration=60.0):
    for i, client in enumerate(cluster.clients):
        t = 0.1 + 0.01 * i
        while t < duration:
            cluster.kernel.schedule_at(t, lambda c=client, d=datum: c.host.up and c.read(d))
            t += period


class TestPromotion:
    def test_hot_readonly_file_gets_promoted(self):
        cluster = make()
        datum = cluster.store.file_datum("/hot-binary")
        drive_reads(cluster, datum)
        cluster.run(until=65.0)
        engine = cluster.server.engine
        assert engine.promotions >= 1
        assert datum in engine.covered_datums()
        assert cluster.oracle.clean

    def test_quiet_file_stays_uncovered(self):
        cluster = make()
        quiet = cluster.store.file_datum("/quiet-file")
        hot = cluster.store.file_datum("/hot-binary")
        drive_reads(cluster, hot)
        c = cluster.clients[0]
        cluster.kernel.schedule_at(1.0, lambda: c.read(quiet))
        cluster.run(until=65.0)
        assert quiet not in cluster.server.engine.covered_datums()

    def test_promotion_ends_extension_traffic(self):
        """Once covered, announcements replace per-client extensions."""
        cluster = make()
        datum = cluster.store.file_datum("/hot-binary")
        drive_reads(cluster, datum, duration=120.0)
        cluster.run(until=60.0)
        mid = cluster.network.stats["server"].received.get("lease/extend", 0)
        cluster.run(until=125.0)
        late = cluster.network.stats["server"].received.get("lease/extend", 0)
        # extensions happened before promotion, then stop almost entirely
        assert late - mid <= mid / 2

    def test_write_after_promotion_honors_old_leases(self):
        """A datum promoted while per-client leases are outstanding must
        not commit a write before those leases expire."""
        cluster = make()
        datum = cluster.store.file_datum("/hot-binary")
        drive_reads(cluster, datum, duration=20.0)
        cluster.run(until=21.0)  # promoted by now; last leases granted ~20
        assert datum in cluster.server.engine.covered_datums()
        writer = cluster.clients[0]
        result = cluster.run_until_complete(writer, writer.write(datum, b"v2"), limit=60.0)
        assert result.ok
        assert cluster.oracle.clean
        # readers see the new version afterwards
        r = cluster.run_until_complete(
            cluster.clients[1], cluster.clients[1].read(datum), limit=60.0
        )
        assert r.value == (2, b"v2")


class TestDemotion:
    def warmed_cluster(self):
        """Promote /hot-binary, then let clients cache under the cover."""
        cluster = make()
        datum = cluster.store.file_datum("/hot-binary")
        drive_reads(cluster, datum, duration=150.0)
        cluster.run(until=30.0)
        assert datum in cluster.server.engine.covered_datums()
        return cluster, datum

    def test_writes_trigger_demotion(self):
        cluster, datum = self.warmed_cluster()
        writer = cluster.clients[0]
        # a burst of writes lifts the observed write rate
        for k in range(8):
            cluster.kernel.schedule_at(
                31.0 + 12.0 * k, lambda w=writer, d=datum, k=k: w.write(d, b"w%d" % k)
            )
        cluster.run(until=140.0)
        engine = cluster.server.engine
        assert engine.demotions >= 1
        assert datum not in engine.covered_datums()
        assert cluster.oracle.clean

    def test_consistency_preserved_across_demotion(self):
        """The crucial window: clients still hold old-generation cover
        leases while the datum is written post-demotion.  The demotion
        barrier plus generation bump must keep every read fresh."""
        cluster, datum = self.warmed_cluster()
        writer = cluster.clients[0]
        for k in range(10):
            cluster.kernel.schedule_at(
                31.0 + 10.0 * k, lambda w=writer, d=datum, k=k: w.write(d, b"w%d" % k)
            )
        cluster.run(until=200.0)
        # every read during the whole run was oracle-checked
        assert cluster.oracle.reads_checked > 100
        assert cluster.oracle.clean

    def test_old_generation_stops_being_announced(self):
        cluster, datum = self.warmed_cluster()
        manager = cluster.server.engine.installed
        old_id = manager.cover_of(datum)
        manager.unregister(datum)
        covers, _ = manager.announcement(now=31.0)
        assert old_id not in covers


class TestCrash:
    def test_promotions_survive_a_server_crash(self):
        """Coverage is installed-file membership, which is configuration:
        the engine's own manager chains through ``fresh()`` from boot to
        boot, like one passed in."""
        cluster = make()
        datum = cluster.store.file_datum("/hot-binary")
        drive_reads(cluster, datum, duration=30.0)
        cluster.run(until=30.0)
        assert datum in cluster.server.engine.covered_datums()
        cluster.faults.crash_window("server", start=30.5, duration=1.0)
        cluster.run(until=32.0)
        assert datum in cluster.server.engine.covered_datums()
