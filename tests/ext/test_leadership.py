"""Tests for leadership leases (write leases with surrender_on_recall=False).

The property that matters is **no split brain**: at every instant, at most
one node believes (per its own clock-safe expiry) that it holds the lease,
except the benign case where the old holder's belief has provably ended
before the server granted the successor.
"""

import pytest

from repro.ext import build_writeback_cluster
from repro.ext.writeback import WriteBackClientConfig
from repro.lease.policy import FixedTermPolicy

TERM = 5.0


def make(n_clients=3):
    return build_writeback_cluster(
        n_clients=n_clients,
        policy=FixedTermPolicy(TERM),
        setup_store=lambda s: s.create_file("/leader", b"none"),
        client_config=WriteBackClientConfig(
            rpc_timeout=0.5,
            max_retries=60,
            write_timeout=3.0,
            surrender_on_recall=False,
        ),
    )


def holds(cluster, node, datum):
    return node.engine.holds_write_lease(datum, node.host.clock.now())


class TestLeadership:
    def test_challenger_waits_out_the_incumbent(self):
        cluster = make()
        datum = cluster.store.file_datum("/leader")
        a, b, _ = cluster.clients
        cluster.run_until_complete(a, a.acquire_write(datum), limit=30.0)
        result = cluster.run_until_complete(b, b.acquire_write(datum), limit=60.0)
        assert result.ok
        assert result.latency == pytest.approx(TERM, abs=0.2)

    def test_foreign_write_waits_out_the_incumbent(self):
        """Regression: a write is a challenge too.  It used to reach the
        incumbent as an approval request, which the incumbent's client
        approved, so the write committed after 6 ms under a live
        leadership lease."""
        cluster = make()
        datum = cluster.store.file_datum("/leader")
        a, b, _ = cluster.clients
        cluster.run_until_complete(a, a.acquire_write(datum), limit=30.0)
        result = cluster.run_until_complete(b, b.write(datum, b"usurper"), limit=60.0)
        assert result.ok
        assert result.latency == pytest.approx(TERM, abs=0.2)
        assert not holds(cluster, a, datum)
        assert cluster.oracle.clean

    def test_renewal_refused_once_challenged(self):
        cluster = make()
        datum = cluster.store.file_datum("/leader")
        a, b, _ = cluster.clients
        cluster.run_until_complete(a, a.acquire_write(datum), limit=30.0)
        b.acquire_write(datum)  # challenge in flight
        cluster.run(until=cluster.kernel.now + 0.5)
        denied = cluster.run_until_complete(a, a.acquire_write(datum), limit=30.0)
        assert not denied.ok
        assert "recall" in denied.error

    def test_unchallenged_leader_renews_forever(self):
        cluster = make()
        datum = cluster.store.file_datum("/leader")
        a = cluster.clients[0]
        cluster.run_until_complete(a, a.acquire_write(datum), limit=30.0)
        for _ in range(6):
            cluster.run(until=cluster.kernel.now + TERM / 2)
            hb = cluster.run_until_complete(a, a.acquire_write(datum), limit=30.0)
            assert hb.ok
        assert holds(cluster, a, datum)

    def test_crash_failover_within_one_term(self):
        cluster = make()
        datum = cluster.store.file_datum("/leader")
        a, b, _ = cluster.clients
        cluster.run_until_complete(a, a.acquire_write(datum), limit=30.0)
        crash_at = cluster.kernel.now
        a.host.crash()
        result = cluster.run_until_complete(b, b.acquire_write(datum), limit=60.0)
        assert result.ok
        assert result.completed_at - crash_at <= TERM + 0.2

    def test_no_split_brain_across_handover(self):
        """The incumbent's self-belief ends no later than the successor's
        grant — checked at fine granularity across the handover."""
        cluster = make()
        datum = cluster.store.file_datum("/leader")
        a, b, _ = cluster.clients
        cluster.run_until_complete(a, a.acquire_write(datum), limit=30.0)
        op = b.acquire_write(datum)
        acquired_at = None
        overlap = []
        t = cluster.kernel.now
        while acquired_at is None and t < 30.0:
            t += 0.05
            cluster.run(until=t)
            a_holds = holds(cluster, a, datum)
            b_holds = holds(cluster, b, datum)
            if a_holds and b_holds:
                overlap.append(t)
            if op in b.results and b.results[op].ok:
                acquired_at = t
        assert acquired_at is not None
        assert not overlap, f"split brain at {overlap}"

    def test_partitioned_leader_loses_leadership_safely(self):
        cluster = make()
        datum = cluster.store.file_datum("/leader")
        a, b, _ = cluster.clients
        cluster.run_until_complete(a, a.acquire_write(datum), limit=30.0)
        cluster.faults.isolate_host("c0")
        result = cluster.run_until_complete(b, b.acquire_write(datum), limit=60.0)
        assert result.ok
        # by the time b is leader, a no longer believes it is
        assert not holds(cluster, a, datum)

    def test_published_leader_identity_stays_consistent(self):
        cluster = make()
        datum = cluster.store.file_datum("/leader")
        a, b, c = cluster.clients
        cluster.run_until_complete(a, a.acquire_write(datum), limit=30.0)
        cluster.run_until_complete(a, a.write(datum, b"c0"), limit=30.0)
        r = cluster.run_until_complete(c, c.read(datum), limit=60.0)
        assert r.value[1] == b"c0"
        # handover to b, republish
        cluster.run_until_complete(b, b.acquire_write(datum), limit=60.0)
        cluster.run_until_complete(b, b.write(datum, b"c1"), limit=30.0)
        r = cluster.run_until_complete(c, c.read(datum), limit=60.0)
        assert r.value[1] == b"c1"
        assert cluster.oracle.clean
