"""Fault-tolerance scenarios from §5 of the paper.

Non-Byzantine failures — message loss, partitions, client crashes, server
crashes — must affect performance only, never consistency.  Each test
drives a failure scenario end-to-end and asserts (a) the quantitative
bound the paper states (delays bounded by the lease term) and (b) that the
consistency oracle stays clean.
"""

import pytest

from repro.lease.policy import FixedTermPolicy, InfiniteTermPolicy
from repro.protocol.client import ClientConfig
from repro.sim.driver import build_cluster
from repro.storage.store import FileStore

TERM = 10.0


def setup_store(store: FileStore) -> None:
    store.create_file("/shared.txt", b"v1")


def make(n_clients=2, **kwargs):
    kwargs.setdefault("policy", FixedTermPolicy(TERM))
    kwargs.setdefault("setup_store", setup_store)
    return build_cluster(n_clients=n_clients, **kwargs)


class TestPartition:
    def test_partitioned_leaseholder_delays_write_at_most_one_term(self):
        cluster = make()
        datum = cluster.store.file_datum("/shared.txt")
        a, b = cluster.clients
        cluster.run_until_complete(a, a.read(datum))
        cluster.faults.isolate_host("c0")
        result = cluster.run_until_complete(b, b.write(datum, b"v2"), limit=60.0)
        assert result.ok
        assert result.latency <= TERM + 0.1
        assert result.latency > TERM - 1.0  # it did have to wait
        assert cluster.oracle.clean

    def test_partitioned_client_cannot_read_stale_after_expiry(self):
        """During the partition the client serves cached reads only while
        its lease is valid; afterwards reads fail rather than return stale
        data."""
        cluster = make(
            client_config=ClientConfig(rpc_timeout=0.5, max_retries=3)
        )
        datum = cluster.store.file_datum("/shared.txt")
        a, b = cluster.clients
        cluster.run_until_complete(a, a.read(datum))
        cluster.faults.isolate_host("c0")
        # within the term: cached read succeeds (still consistent: the
        # write cannot commit until the lease expires)
        early = cluster.run_until_complete(a, a.read(datum))
        assert early.ok and early.value == (1, b"v1")
        # b's write commits after expiry
        cluster.run_until_complete(b, b.write(datum, b"v2"), limit=60.0)
        # a's post-expiry read cannot reach the server and must fail
        late = cluster.run_until_complete(a, a.read(datum), limit=60.0)
        assert not late.ok
        assert cluster.oracle.clean

    def test_heal_restores_service(self):
        cluster = make()
        datum = cluster.store.file_datum("/shared.txt")
        a, b = cluster.clients
        cluster.run_until_complete(a, a.read(datum))
        part = cluster.faults.isolate_host("c0")
        cluster.run_until_complete(b, b.write(datum, b"v2"), limit=60.0)
        cluster.faults.heal(part)
        result = cluster.run_until_complete(a, a.read(datum), limit=60.0)
        assert result.value == (2, b"v2")
        assert cluster.oracle.clean

    def test_partition_during_approval_falls_back_to_expiry(self):
        """The approval request is lost; the write waits out the lease."""
        cluster = make()
        datum = cluster.store.file_datum("/shared.txt")
        a, b = cluster.clients
        cluster.run_until_complete(a, a.read(datum))
        grant_time = cluster.kernel.now
        cluster.faults.partition(["c0"], ["server"])
        result = cluster.run_until_complete(b, b.write(datum, b"v2"), limit=60.0)
        assert result.ok
        assert result.completed_at == pytest.approx(grant_time + TERM, abs=0.2)
        assert cluster.oracle.clean


    def test_write_waits_for_the_unanswered_holder_not_the_longest_asked(self):
        """A write shared by a partitioned holder and a live one leased
        later waits out the *partitioned* holder's remaining term only:
        the live one approves, and its longer lease stops counting the
        moment it does (at the parent the deadline moved but its timer
        did not, and the write took the live holder's full term)."""
        cluster = make(n_clients=3)
        datum = cluster.store.file_datum("/shared.txt")
        a, b, c = cluster.clients
        cluster.run_until_complete(a, a.read(datum))  # lease to ~TERM
        cluster.run(until=4.0)
        cluster.run_until_complete(b, b.read(datum))  # lease to ~4 + TERM
        cluster.faults.isolate_host("c0")
        cluster.run(until=5.0)
        result = cluster.run_until_complete(c, c.write(datum, b"v2"), limit=60.0)
        assert result.ok
        assert result.completed_at == pytest.approx(TERM, abs=0.2)
        assert cluster.oracle.clean


class TestClientCrash:
    def test_crashed_leaseholder_delays_write_one_term(self):
        cluster = make()
        datum = cluster.store.file_datum("/shared.txt")
        a, b = cluster.clients
        cluster.run_until_complete(a, a.read(datum))
        a.host.crash()
        result = cluster.run_until_complete(b, b.write(datum, b"v2"), limit=60.0)
        assert result.ok
        assert result.latency <= TERM + 0.1
        assert cluster.oracle.clean

    def test_client_restart_starts_cold_and_consistent(self):
        cluster = make()
        datum = cluster.store.file_datum("/shared.txt")
        a, b = cluster.clients
        cluster.run_until_complete(a, a.read(datum))
        a.host.crash()
        cluster.run_until_complete(b, b.write(datum, b"v2"), limit=60.0)
        a.host.restart()
        result = cluster.run_until_complete(a, a.read(datum), limit=60.0)
        assert result.value == (2, b"v2")
        assert result.latency > 0.0  # cold cache: remote fetch
        assert cluster.oracle.clean

    def test_infinite_term_blocks_write_on_crashed_client(self):
        """The availability loss of the callback scheme (§6): with an
        infinite term, a crashed leaseholder blocks writers forever."""
        cluster = make(policy=InfiniteTermPolicy())
        datum = cluster.store.file_datum("/shared.txt")
        a, b = cluster.clients
        cluster.run_until_complete(a, a.read(datum))
        a.host.crash()
        op = b.write(datum, b"v2")
        with pytest.raises(TimeoutError):
            cluster.run_until_complete(b, op, limit=120.0)


class TestServerCrash:
    def test_server_recovery_honors_precrash_leases(self):
        """After restart the server delays writes for the maximum granted
        term, so pre-crash leaseholders stay consistent (§2)."""
        cluster = make()
        datum = cluster.store.file_datum("/shared.txt")
        a, b = cluster.clients
        cluster.run_until_complete(a, a.read(datum))
        grant_time = cluster.kernel.now
        crash_at = grant_time + 0.5
        cluster.faults.crash_window("server", start=crash_at, duration=1.0)
        cluster.run(until=crash_at + 1.1)
        result = cluster.run_until_complete(b, b.write(datum, b"v2"), limit=120.0)
        assert result.ok
        # committed no earlier than restart + max term
        assert result.completed_at >= crash_at + 1.0 + TERM - 0.01
        assert cluster.oracle.clean

    @pytest.mark.parametrize("term", [2.0, 10.0, 25.0])
    def test_write_delay_tracks_precrash_max_term(self, term):
        """Property over terms: whatever the largest granted term was, the
        restarted server holds writes for exactly that long — the bound
        ``LeaseTable.clear()`` hands back at crash time."""
        from repro.obs import TraceBus

        bus = TraceBus(capacity=None)
        cluster = make(policy=FixedTermPolicy(term), obs=bus)
        datum = cluster.store.file_datum("/shared.txt")
        a, b = cluster.clients
        cluster.run_until_complete(a, a.read(datum))
        crash_at = cluster.kernel.now + 0.5
        restart_at = crash_at + 1.0
        cluster.faults.crash_window("server", start=crash_at, duration=1.0)
        cluster.run(until=restart_at + 0.1)
        assert cluster.server._persisted_max_term == term
        result = cluster.run_until_complete(b, b.write(datum, b"v2"), limit=200.0)
        assert result.ok
        assert result.completed_at >= restart_at + term - 0.01
        assert cluster.oracle.clean
        # the trace shows the whole recovery arc
        (begin,) = bus.events("recovery.begin")[-1:]
        assert begin["until"] == pytest.approx(restart_at + term, abs=0.1)
        assert bus.events("recovery.hold")
        assert bus.events("recovery.end")

    def test_committed_data_survives_crash(self):
        cluster = make()
        datum = cluster.store.file_datum("/shared.txt")
        a, b = cluster.clients
        cluster.run_until_complete(a, a.write(datum, b"v2"))
        cluster.faults.crash_window("server", start=cluster.kernel.now + 0.1, duration=0.5)
        cluster.run(until=cluster.kernel.now + 1.0)
        result = cluster.run_until_complete(b, b.read(datum), limit=60.0)
        assert result.value == (2, b"v2")

    def test_reads_resume_immediately_after_restart(self):
        """Recovery delays writes, not reads/lease grants."""
        cluster = make()
        datum = cluster.store.file_datum("/shared.txt")
        a, _ = cluster.clients
        cluster.run_until_complete(a, a.read(datum))
        cluster.faults.crash_window("server", start=cluster.kernel.now + 0.1, duration=0.5)
        cluster.run(until=cluster.kernel.now + 20.0)  # leases lapse
        result = cluster.run_until_complete(a, a.read(datum), limit=30.0)
        assert result.ok
        assert result.latency < 1.0

    def test_client_write_retransmits_across_server_crash(self):
        cluster = make(
            client_config=ClientConfig(rpc_timeout=0.5, write_timeout=2.0, max_retries=60)
        )
        datum = cluster.store.file_datum("/shared.txt")
        a, _ = cluster.clients
        cluster.faults.crash_window("server", start=0.0005, duration=2.0)
        result = cluster.run_until_complete(a, a.write(datum, b"v2"), limit=120.0)
        assert result.ok
        assert cluster.store.file_at("/shared.txt").version == 2


class TestAvailability:
    def test_unreachable_client_only_briefly_delays_others(self):
        """§5: 'availability is not reduced by the caches' — the delay is
        bounded and service continues."""
        cluster = make(n_clients=3)
        datum = cluster.store.file_datum("/shared.txt")
        a, b, c = cluster.clients
        cluster.run_until_complete(a, a.read(datum))
        a.host.crash()
        w = cluster.run_until_complete(b, b.write(datum, b"v2"), limit=60.0)
        assert w.ok
        # after the write, other clients proceed at full speed
        r = cluster.run_until_complete(c, c.read(datum))
        assert r.value == (2, b"v2")
        assert r.latency < 0.1
        assert cluster.oracle.clean
