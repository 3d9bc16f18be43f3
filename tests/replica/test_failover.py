"""DES failover scenarios: crash, succession, clock steps, aborted writes.

The scenario-level regressions for ISSUE 10's satellites:

* a master crash fails over — a later write completes through the new
  master and the rebooted corpse abstains instead of usurping;
* (satellite 1) a backward clock step on the freshly elected master
  during its handoff wait delays serving by the stepped amount — the
  ``handoff`` timer re-arms instead of serving early;
* (satellite 3) a write approved (copy invalidated, its version awaited)
  under master A that dies with A must not livelock the approving reader:
  the post-abort answer arrives from the *successor* master B, and the
  cache admission rule (``FileCache`` docstring) looks only at the reply
  and the request it answers, never at who sent it.
"""

import pytest

from repro.clock.sync import safe_waitout
from repro.lease.policy import FixedTermPolicy
from repro.obs.bus import TraceBus
from repro.obs.events import REPLICA_ELECTED, REPLICA_SERVE
from repro.protocol.client import ClientConfig
from repro.replica.engine import restart_join_delay
from repro.sim.driver import build_cluster
from repro.storage.store import FileStore

MASTER_TERM = 1.0
FILE_TERM = 2.0

CLIENT_CONFIG = ClientConfig(
    rpc_timeout=1.0, write_timeout=45.0, max_retries=10
)


def setup_basic(store: FileStore) -> None:
    store.create_file("/doc", b"v1")


def make_cluster(n_clients=2, obs=None, seed=0):
    return build_cluster(
        n_clients,
        replicas=3,
        policy=FixedTermPolicy(FILE_TERM),
        master_term=MASTER_TERM,
        client_config=CLIENT_CONFIG,
        setup_store=setup_basic,
        strict_oracle=False,
        seed=seed,
        obs=obs,
    )


def handoff_wait(cluster) -> float:
    config = cluster.groups[0][0].config
    return safe_waitout(
        config.master_term + config.max_file_term, config.epsilon, config.drift_bound
    )


class TestCrashFailover:
    def test_write_completes_through_the_successor(self):
        cluster = make_cluster()
        datum = cluster.store.file_datum("/doc")
        a, b = cluster.clients
        assert cluster.run_until_complete(a, a.read(datum)).ok

        master = cluster.master_of()
        assert master is not None
        dead = master.host.name
        cluster.faults.crash_at(dead, cluster.kernel.now + 0.01)
        cluster.run(until=cluster.kernel.now + 0.1)

        result = cluster.run_until_complete(b, b.write(datum, b"v2"), limit=60.0)
        assert result.ok and result.value == 2
        successor = cluster.master_of()
        assert successor is not None and successor.host.name != dead

        result = cluster.run_until_complete(a, a.read(datum), limit=60.0)
        assert result.ok and result.value == (2, b"v2")
        assert cluster.oracle.clean

    def test_rebooted_master_abstains_through_its_join_delay(self):
        """A restarted (diskless) replica must not re-enter mastership
        until ``restart_join_delay`` has passed — even though it comes
        back up long before the failover completes.  Afterwards it may
        legitimately win again; the standing invariant is at most one
        master at any instant."""
        cluster = make_cluster()
        datum = cluster.store.file_datum("/doc")
        a, b = cluster.clients
        cluster.run(until=2.0)
        master = cluster.master_of()
        dead = master.host.name
        now = cluster.kernel.now
        cluster.faults.crash_at(dead, now + 0.01)
        cluster.faults.restart_at(dead, now + 0.5)
        delay = restart_join_delay(cluster.groups[0][0].config)
        # For the whole join delay the corpse is up but abstains.
        for frac in (0.25, 0.6, 0.95):
            cluster.run(until=now + 0.5 + delay * frac)
            revived = next(r for r in cluster.servers if r.host.name == dead)
            assert revived.host.up
            assert revived.engine.state == "follower"
        # The failover still completes and yields exactly one master.
        assert cluster.run_until_complete(b, b.write(datum, b"v2"), limit=60.0).ok
        masters = [
            r.host.name for r in cluster.servers
            if r.host.up and r.engine is not None
            and r.engine.master_valid(r.host.clock.now())
        ]
        assert len(masters) == 1
        assert cluster.oracle.clean

    def test_majority_loss_stalls_minority_heals_on_restart(self):
        """With 2 of 3 replicas down no election can finish; service
        resumes once a majority is back."""
        cluster = make_cluster()
        datum = cluster.store.file_datum("/doc")
        a, b = cluster.clients
        cluster.run(until=2.0)
        names = [r.host.name for r in cluster.groups[0]]
        now = cluster.kernel.now
        cluster.faults.crash_window(names[0], now + 0.01, 20.0)
        cluster.faults.crash_window(names[1], now + 0.01, 20.0)
        cluster.run(until=now + 10.0)
        assert cluster.master_of() is None  # minority cannot elect
        # After both return (t=now+20) a master emerges and serves.
        result = cluster.run_until_complete(b, b.write(datum, b"v2"), limit=120.0)
        assert result.ok
        assert cluster.master_of() is not None


class TestClockStepDuringHandoff:
    def test_backward_step_on_elect_winner_delays_serving(self):
        """Satellite 1: the handoff timer must re-arm after a backward
        step, pushing the serve out by the stepped amount on the kernel
        clock — never serving early."""
        bus = TraceBus(capacity=None)
        cluster = make_cluster(obs=bus)
        # Event ``ts`` is the emitting replica's *local* clock, which
        # this test deliberately steps; record kernel time on the side.
        timeline = []
        bus.subscribe(lambda e: timeline.append((cluster.kernel.now, e)))
        cluster.run(until=2.0)  # virgin cold-start master
        first = cluster.master_of()
        assert first is not None
        cluster.faults.crash_at(first.host.name, cluster.kernel.now + 0.01)

        # Run until the successor wins its (non-virgin) election.
        deadline = cluster.kernel.now + 30.0
        elected = None
        while elected is None:
            cluster.run(until=cluster.kernel.now + 0.05)
            assert cluster.kernel.now < deadline, "no successor elected"
            for kt, event in timeline:
                if (
                    event["type"] == REPLICA_ELECTED
                    and event["host"] != first.host.name
                ):
                    elected = (kt, event)
                    break
        t_elected, event = elected
        winner = event["host"]
        wait = handoff_wait(cluster)
        step = -1.0
        cluster.faults.step_clock_at(winner, t_elected + wait / 2, step)
        cluster.run(until=t_elected + wait + 2 * abs(step) + 5.0)

        serves = [
            (kt, e) for kt, e in timeline
            if e["type"] == REPLICA_SERVE and e["host"] == winner
        ]
        assert serves, "successor never served"
        # The serve happened at least one full wait after election, PLUS
        # the backward step the re-armed timer had to absorb.
        assert serves[0][0] >= t_elected + wait + abs(step) - 0.05
        assert cluster.master_of() is not None


class TestAbortFloorAcrossMasters:
    @pytest.mark.parametrize("crash_delay", [0.0, 0.01, 0.03, 0.06, 0.12])
    def test_approving_reader_never_livelocks(self, crash_delay):
        """Satellite 3: client A approves client B's write (A's cache now
        awaits the write's future version); the master dies before
        committing.  The awaited version never lands, so A's reads must
        be admitted from the successor's replies — the admission rule
        holds even though the lease reply now comes from a different
        replica than the one that asked for the approval."""
        cluster = make_cluster()
        datum = cluster.store.file_datum("/doc")
        a, b = cluster.clients
        assert cluster.run_until_complete(a, a.read(datum)).ok  # A holds a lease

        master = cluster.master_of()
        dead = master.host.name
        now = cluster.kernel.now
        # B's write reaches the master, the approval round reaches A; the
        # master crashes somewhere inside that window (swept by the
        # parametrize) — possibly after A approved but before commit.
        write_op = b.write(datum, b"v2")
        cluster.faults.crash_at(dead, now + crash_delay)
        cluster.run(until=now + 0.5)

        # A's reads must complete and converge, whatever happened to the
        # write: either it committed (v2) or it died with the master (v1
        # remains current and what A awaits must not wedge it out).
        result = cluster.run_until_complete(a, a.read(datum), limit=60.0)
        assert result.ok
        version, _payload = result.value
        assert 1 <= version <= cluster.store.version_of(datum)
        # The write op either committed, failed, or was lost with the
        # crash window; if it reported success the store must show it.
        cluster.run(until=cluster.kernel.now + 30.0)
        if write_op in b.results and b.results[write_op].ok:
            assert cluster.store.version_of(datum) >= 2
        # Liveness after the dust settles: both clients still make progress.
        assert cluster.run_until_complete(a, a.read(datum), limit=60.0).ok
        assert cluster.run_until_complete(b, b.write(datum, b"v3"), limit=60.0).ok
        assert cluster.oracle.clean
