"""The replicated lease authority over the asyncio runtime.

The acceptance test here is the runtime mirror of the simulator's
failover scenarios: ``build_cluster(Topology(replicas=3))`` elects a
master over a real (hub) fabric, an unmodified
:class:`~repro.runtime.node.LeaseClientNode` talks to the group through
``NotMaster`` redirects, and the elected master is SIGKILL'd mid-workload
while :class:`~repro.runtime.chaos.ChaosTransport` eats 20% of the
client's traffic.  The workload must complete, every read must
linearize against the shared store, and the rebooted ex-master must
abstain (the diskless restart rule) instead of stealing mastership back.
"""

import asyncio

from repro.lease.policy import FixedTermPolicy
from repro.obs.bus import TraceBus
from repro.obs.events import REPLICA_ELECTED, REPLICA_REDIRECT
from repro.protocol.client import ClientConfig
from repro.protocol.messages import ReadRequest
from repro.protocol.server import ServerConfig
from repro.replica.engine import ReplicaConfig, restart_join_delay
from repro.runtime import ChaosTransport, LeaseClientNode
from repro.topology import Topology

from tests.runtime import create_doc, elected, run_cluster

#: Small real-time terms so elections and handoffs finish in ~a second.
MASTER_TERM = 0.4
FILE_TERM = 0.4

CLIENT_CONFIG = ClientConfig(
    epsilon=0.01, rpc_timeout=0.2, write_timeout=10.0, max_retries=40
)
REPLICA_CONFIG = ReplicaConfig(
    hosts=(),  # filled in per replica by build_cluster
    index=0,
    master_term=MASTER_TERM,
    max_file_term=FILE_TERM,
    epsilon=0.01,
    drift_bound=0.0,
    tick=0.05,
    round_timeout=0.2,
    server=ServerConfig(epsilon=0.01, announce_period=0.2, sweep_period=5.0),
)


#: Wall-clock budget per op in the SIGKILL test.  A write lost to the 20%
#: chaos (or sent to the corpse) is retransmitted after 0.2, 0.4, 0.8, ...
#: seconds, doubling up to ``write_timeout`` = 10 s, so a failover costs
#: a few seconds; 20 s leaves room for a second unlucky leg.
OP_BUDGET = 20.0


def on_group(scenario, clients=0, obs=None):
    """Run ``scenario(cluster)`` on three replicas sharing a store that holds ``/doc``."""
    run_cluster(
        scenario,
        Topology(replicas=3, clients=clients),
        policy=FixedTermPolicy(FILE_TERM),
        client_config=CLIENT_CONFIG,
        replica_config=REPLICA_CONFIG,
        setup_store=create_doc,
        obs=obs,
    )


class TestReplicaRuntime:
    def test_group_elects_exactly_one_master_and_serves(self):
        async def scenario(cluster):
            await elected(cluster)
            assert sum(1 for n in cluster.servers if n.is_master()) == 1

            client = cluster.client(0)
            datum = cluster.store.file_datum("/doc")
            assert await asyncio.wait_for(client.read(datum), 10.0) == (1, b"v1")
            assert await asyncio.wait_for(client.write(datum, b"v2"), 10.0) == 2
            assert await asyncio.wait_for(client.read(datum), 10.0) == (2, b"v2")

        on_group(scenario, clients=1)

    def test_killed_replica_is_silent(self):
        """A SIGKILL'd node ignores traffic and timers — no goodbye, no error."""

        async def scenario(cluster):
            master = await elected(cluster)
            master.kill()
            assert not master.alive
            assert master.status() == {"state": "down"}
            master.kill()  # idempotent
            # Direct traffic at the corpse: it must be dropped in silence.
            probe = cluster.hub.endpoint("probe")
            replies = []
            probe.set_handler(lambda msg, src: replies.append((msg, src)))
            await probe.send(master.name, ReadRequest(req_id=1, datum=None))
            await asyncio.sleep(0.1)
            assert replies == []

        on_group(scenario)

    def test_restarted_replica_abstains(self):
        """Reboot honors the diskless restart rule: join_delay covers the
        full drift-stretched master + file term before any Paxos reply."""

        async def scenario(cluster):
            master = await elected(cluster)
            master.kill()
            master.restart()
            assert master.alive
            status = master.status()
            assert status["state"] == "follower"
            expected = restart_join_delay(REPLICA_CONFIG)
            assert master.engine._join_at >= master.clock.now() - 0.01
            assert expected > MASTER_TERM + FILE_TERM
            # A new master emerges among the survivors (or the whole group,
            # once the abstention lapses) while the rebooted node waits.
            new_master = await elected(cluster)
            assert new_master.is_master()

        on_group(scenario)

    def test_sigkill_master_failover_under_loss(self):
        """The ISSUE's acceptance test: SIGKILL the elected master while a
        chaos transport eats 20% of the client's packets; the workload
        completes via failover and every read linearizes."""

        bus = TraceBus(capacity=None)

        async def scenario(cluster):
            clock, oracle = cluster.clock, cluster.oracle
            datum = cluster.store.file_datum("/doc")
            chaos = ChaosTransport(cluster.hub.endpoint("c0"), loss=0.2, seed=7, obs=bus)
            client = LeaseClientNode(
                chaos, cluster.topology.server_address(), config=CLIENT_CONFIG, obs=bus
            )

            async def checked_read(expect_version=None):
                invoked = clock.now()
                version, payload = await asyncio.wait_for(client.read(datum), OP_BUDGET)
                oracle.check_read(client.name, datum, version, invoked, clock.now())
                if expect_version is not None:
                    assert version == expect_version
                return version, payload

            master = await elected(cluster)
            await checked_read(expect_version=1)
            assert await asyncio.wait_for(client.write(datum, b"v2"), OP_BUDGET) == 2

            master.kill()  # SIGKILL: no goodbye, the group must fail over

            assert await asyncio.wait_for(client.write(datum, b"v3"), OP_BUDGET) == 3
            await checked_read(expect_version=3)

            new_master = await elected(cluster)
            assert new_master is not master and new_master.alive

            # The corpse reboots mid-workload and must abstain, not usurp.
            master.restart()
            assert await asyncio.wait_for(client.write(datum, b"v4"), OP_BUDGET) == 4
            await checked_read(expect_version=4)
            assert not master.is_master()

            assert oracle.clean
            assert oracle.reads_checked >= 3
            assert bus.events(REPLICA_ELECTED), "elections must be observable"
            assert bus.events(REPLICA_REDIRECT), "failover implies redirects"
            await client.close()

        on_group(scenario, obs=bus)


class TestReplicaNodeErrors:
    def test_killed_replica_ignores_traffic(self):
        async def scenario(cluster):
            node = cluster.server
            node.kill()
            assert node.engine is None and not node._timers
            node._on_message(ReadRequest(1, cluster.store.file_datum("/doc")), "c0")
            node._on_timer("paxos:tick")
            assert node.engine is None and not node._timers
            assert node.status() == {"state": "down"}

        on_group(scenario)
