"""The replicated lease authority over the asyncio runtime.

The acceptance test here is the runtime mirror of the simulator's
failover scenarios: N :class:`~repro.replica.node.ReplicaServerNode`
hosts elect a master over a real (hub) fabric, an unmodified
:class:`~repro.runtime.node.LeaseClientNode` talks to the group through
``NotMaster`` redirects, and the elected master is SIGKILL'd mid-workload
while :class:`~repro.runtime.chaos.ChaosTransport` eats 20% of the
client's traffic.  The workload must complete, every read must
linearize against the shared store, and the rebooted ex-master must
abstain (the diskless restart rule) instead of stealing mastership back.
"""

import asyncio

from repro.clock.system import MonotonicClock
from repro.lease.policy import FixedTermPolicy
from repro.obs.bus import TraceBus
from repro.obs.events import REPLICA_ELECTED, REPLICA_REDIRECT
from repro.protocol.client import ClientConfig
from repro.protocol.messages import ReadRequest
from repro.protocol.server import ServerConfig
from repro.replica.engine import ReplicaConfig, restart_join_delay
from repro.replica.node import ReplicaServerNode
from repro.runtime import ChaosTransport, InMemoryHub, LeaseClientNode
from repro.sim.oracle import ConsistencyOracle
from repro.storage.store import FileStore

HOSTS = ("r0", "r1", "r2")

#: Small real-time terms so elections and handoffs finish in ~a second.
MASTER_TERM = 0.4
FILE_TERM = 0.4

CLIENT_CONFIG = ClientConfig(
    epsilon=0.01, rpc_timeout=0.2, write_timeout=10.0, max_retries=40
)


#: Wall-clock budget per op in the SIGKILL test.  A write lost to the 20%
#: chaos (or sent to the corpse) is retransmitted only after
#: ``write_timeout`` = 10 s, so two unlucky legs used to overrun a 20 s
#: budget about one run in eight; 60 s covers five.
OP_BUDGET = 60.0


def run(coro):
    return asyncio.run(coro)


class _WallKernel:
    """Adapts a wall clock to the oracle's ``kernel.now`` attribute."""

    def __init__(self, clock):
        self._clock = clock

    @property
    def now(self):
        return self._clock.now()


def replica_config(index: int) -> ReplicaConfig:
    return ReplicaConfig(
        hosts=HOSTS,
        index=index,
        master_term=MASTER_TERM,
        max_file_term=FILE_TERM,
        epsilon=0.01,
        drift_bound=0.0,
        tick=0.05,
        round_timeout=0.2,
        server=ServerConfig(epsilon=0.01, announce_period=0.2, sweep_period=5.0),
    )


def make_group(hub: InMemoryHub, store: FileStore, obs=None) -> list[ReplicaServerNode]:
    return [
        ReplicaServerNode(
            hub.endpoint(host),
            store,
            FixedTermPolicy(FILE_TERM),
            replica_config(i),
            obs=obs,
        )
        for i, host in enumerate(HOSTS)
    ]


async def wait_for_master(
    nodes: list[ReplicaServerNode], timeout: float = 10.0
) -> ReplicaServerNode:
    """Poll until some live replica holds a valid master lease."""
    deadline = asyncio.get_running_loop().time() + timeout
    while True:
        for node in nodes:
            if node.alive and node.is_master():
                return node
        assert asyncio.get_running_loop().time() < deadline, "no master elected"
        await asyncio.sleep(0.02)


async def close_all(nodes, clients=()):
    for client in clients:
        await client.close()
    for node in nodes:
        await node.close()


class TestReplicaRuntime:
    def test_group_elects_exactly_one_master_and_serves(self):
        async def scenario():
            hub = InMemoryHub()
            store = FileStore()
            store.create_file("/doc", b"v1")
            nodes = make_group(hub, store)
            await wait_for_master(nodes)
            assert sum(1 for n in nodes if n.is_master()) == 1

            client = LeaseClientNode(
                hub.endpoint("c0"), HOSTS, config=CLIENT_CONFIG
            )
            datum = store.file_datum("/doc")
            assert await asyncio.wait_for(client.read(datum), 10.0) == (1, b"v1")
            assert await asyncio.wait_for(client.write(datum, b"v2"), 10.0) == 2
            assert await asyncio.wait_for(client.read(datum), 10.0) == (2, b"v2")
            await close_all(nodes, [client])

        run(scenario())

    def test_killed_replica_is_silent(self):
        """A SIGKILL'd node ignores traffic and timers — no goodbye, no error."""

        async def scenario():
            hub = InMemoryHub()
            store = FileStore()
            store.create_file("/doc", b"v1")
            nodes = make_group(hub, store)
            master = await wait_for_master(nodes)
            master.kill()
            assert not master.alive
            assert master.status() == {"state": "down"}
            master.kill()  # idempotent
            # Direct traffic at the corpse: it must be dropped in silence.
            probe = hub.endpoint("probe")
            replies = []
            probe.set_handler(lambda msg, src: replies.append((msg, src)))
            await probe.send(master.name, ReadRequest(req_id=1, datum=None))
            await asyncio.sleep(0.1)
            assert replies == []
            await close_all(nodes, [])

        run(scenario())

    def test_restarted_replica_abstains(self):
        """Reboot honors the diskless restart rule: join_delay covers the
        full drift-stretched master + file term before any Paxos reply."""

        async def scenario():
            hub = InMemoryHub()
            store = FileStore()
            store.create_file("/doc", b"v1")
            nodes = make_group(hub, store)
            master = await wait_for_master(nodes)
            master.kill()
            master.restart()
            assert master.alive
            status = master.status()
            assert status["state"] == "follower"
            expected = restart_join_delay(replica_config(HOSTS.index(master.name)))
            assert master.engine._join_at >= master.clock.now() - 0.01
            assert expected > MASTER_TERM + FILE_TERM
            # A new master emerges among the survivors (or the whole group,
            # once the abstention lapses) while the rebooted node waits.
            new_master = await wait_for_master(nodes)
            assert new_master.is_master()
            await close_all(nodes, [])

        run(scenario())

    def test_sigkill_master_failover_under_loss(self):
        """The ISSUE's acceptance test: SIGKILL the elected master while a
        chaos transport eats 20% of the client's packets; the workload
        completes via failover and every read linearizes."""

        async def scenario():
            bus = TraceBus(capacity=None)
            hub = InMemoryHub()
            store = FileStore()
            store.create_file("/doc", b"v1")
            datum = store.file_datum("/doc")
            clock = MonotonicClock()
            oracle = ConsistencyOracle(_WallKernel(clock), store, strict=True, obs=bus)

            nodes = make_group(hub, store, obs=bus)
            chaos = ChaosTransport(hub.endpoint("c0"), loss=0.2, seed=7, obs=bus)
            client = LeaseClientNode(chaos, HOSTS, config=CLIENT_CONFIG, obs=bus)

            async def checked_read(expect_version=None):
                invoked = clock.now()
                version, payload = await asyncio.wait_for(client.read(datum), OP_BUDGET)
                oracle.check_read(client.name, datum, version, invoked, clock.now())
                if expect_version is not None:
                    assert version == expect_version
                return version, payload

            master = await wait_for_master(nodes)
            await checked_read(expect_version=1)
            assert await asyncio.wait_for(client.write(datum, b"v2"), OP_BUDGET) == 2

            master.kill()  # SIGKILL: no goodbye, the group must fail over

            assert await asyncio.wait_for(client.write(datum, b"v3"), OP_BUDGET) == 3
            await checked_read(expect_version=3)

            survivors = [n for n in nodes if n.alive]
            new_master = await wait_for_master(survivors)
            assert new_master is not master

            # The corpse reboots mid-workload and must abstain, not usurp.
            master.restart()
            assert await asyncio.wait_for(client.write(datum, b"v4"), OP_BUDGET) == 4
            await checked_read(expect_version=4)
            assert not master.is_master()

            assert oracle.clean
            assert oracle.reads_checked >= 3
            assert bus.events(REPLICA_ELECTED), "elections must be observable"
            assert bus.events(REPLICA_REDIRECT), "failover implies redirects"
            await close_all(nodes, [client])

        run(scenario())


class TestReplicaNodeErrors:
    def test_killed_replica_ignores_traffic(self):
        async def scenario():
            hub = InMemoryHub()
            store = FileStore()
            store.create_file("/doc", b"v1")
            node = ReplicaServerNode(
                hub.endpoint("r0"),
                store,
                FixedTermPolicy(FILE_TERM),
                ReplicaConfig(hosts=("r0",), index=0),
            )
            node.kill()
            assert node.engine is None and not node._timers
            node._on_message(ReadRequest(1, store.file_datum("/doc")), "c0")
            node._on_timer("paxos:tick")
            assert node.engine is None and not node._timers
            assert node.status() == {"state": "down"}
            await node.close()

        run(scenario())
