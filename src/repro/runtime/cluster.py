"""The one runtime assembler: any :class:`~repro.topology.Topology` on asyncio.

:func:`build_cluster` is the wall-clock twin of
:func:`repro.sim.driver.build_cluster` and follows its rules: host names
from the topology, one :class:`FileStore` per shard behind a
:class:`ShardedStore` when there are several, a :class:`ReplicaEngine`
authority when ``replicas > 1``, a :class:`ShardedClientEngine` when
``shards > 1``, and one :class:`ConsistencyOracle` over every shard.
The fabric decides only how hosts reach each other.  On the hub every
host reaches every other, so every shape works.  On ``tcp``/``udp`` each
shard server listens on its own socket and each client dials one client
transport per shard, composed by a :class:`FanoutTransport` when there
are several.  A socket server talks only to the clients that dialled it
and cannot reach its peer replicas, so ``replicas > 1`` is refused there.
"""

from __future__ import annotations

import asyncio
import dataclasses
from dataclasses import dataclass
from typing import Callable

from repro.clock.system import MonotonicClock
from repro.lease.installed import InstalledFileManager, installed_covers
from repro.lease.policy import FixedTermPolicy, TermPolicy
from repro.protocol.client import ClientConfig, ClientEngine
from repro.protocol.server import ServerConfig, ServerEngine
from repro.replica.engine import ReplicaConfig, ReplicaEngine
from repro.runtime.node import LeaseClientNode, _ServerNode
from repro.runtime.tcp import TcpClientTransport, TcpServerTransport
from repro.runtime.transport import InMemoryHub
from repro.runtime.udp import UdpClientTransport, UdpServerTransport
from repro.shard.client import ShardedClientEngine
from repro.shard.router import ShardRouter
from repro.shard.store import ShardedStore
from repro.shard.transport import FanoutTransport
from repro.sim.driver import checked_store, replica_template
from repro.sim.oracle import ConsistencyOracle
from repro.storage.store import FileStore
from repro.topology import Assembled, Topology

#: (server, client) transport classes of each socket fabric.
_SOCKETS = {
    "tcp": (TcpServerTransport, TcpClientTransport),
    "udp": (UdpServerTransport, UdpClientTransport),
}


class WallKernel:
    """Adapts a clock to the oracle's ``kernel.now`` attribute."""

    def __init__(self, clock):
        self._clock = clock

    @property
    def now(self) -> float:
        """The clock's current reading."""
        return self._clock.now()


@dataclass
class Cluster(Assembled):
    """A started asyncio world, the twin of :class:`repro.sim.driver.Cluster`.

    Every name the two share means the same (``server``, ``servers``,
    ``master_of`` and ``client`` are :class:`~repro.topology.Assembled`'s).
    The oracle runs on :attr:`clock`; ``hub`` is None on a socket fabric.
    """

    topology: Topology
    groups: list[list[_ServerNode]]
    clients: list[LeaseClientNode]
    store: FileStore | ShardedStore
    oracle: ConsistencyOracle
    clock: MonotonicClock
    router: ShardRouter | None = None
    hub: InMemoryHub | None = None
    #: The cluster-wide trace bus (None when tracing is off).
    obs: object | None = None

    async def close(self) -> None:
        """Close every client, then every server; a node closed already is
        closed again harmlessly."""
        for node in self.clients + self.servers:
            await node.close()
        await asyncio.sleep(0)  # let the transports' last callbacks run


async def build_cluster(
    topology: Topology,
    *,
    fabric: str = "hub",
    policy: TermPolicy | None = None,
    server_config: ServerConfig | None = None,
    client_config: ClientConfig | None = None,
    replica_config: ReplicaConfig | None = None,
    cover_term: float | None = None,
    setup_store: Callable[[FileStore | ShardedStore], None] | None = None,
    obs=None,
) -> Cluster:
    """Assemble and start an asyncio cluster of any shape.

    Args:
        fabric: ``"hub"`` (one in-process :class:`InMemoryHub`), or
            ``"tcp"`` / ``"udp"`` on loopback sockets.
        policy: term policy of every authority node (default: fixed 10 s).
        replica_config: template each replica's ``hosts`` and ``index``
            are filled into; by default the simulator's
            :func:`~repro.sim.driver.replica_template`.
        cover_term: term of the one authority node's installed-file
            covers, as in :func:`repro.sim.driver.build_cluster`.
        setup_store: populates the store before any node starts.
        obs: optional :class:`~repro.obs.bus.TraceBus` for every node,
            transport and the oracle.

    Raises:
        ValueError: an unknown fabric, replicas on sockets, installed
            files on more than one authority node, or an unbounded term
            policy under replication.
    """
    shards, replicas = topology.shards, topology.replicas
    if fabric != "hub" and fabric not in _SOCKETS:
        raise ValueError(f"unknown fabric {fabric!r}: hub, tcp or udp")
    if fabric != "hub" and replicas > 1:
        raise ValueError(
            f"replicas need the hub: a {fabric} server cannot reach its peer replicas"
        )
    policy = policy or FixedTermPolicy(10.0)
    template = replica_template(topology, policy, cover_term, client_config, server_config)
    clock = MonotonicClock()
    store, router, shard_stores, oracle = checked_store(
        topology, setup_store, WallKernel(clock), obs=obs
    )
    installed = None
    if cover_term is not None:
        installed = InstalledFileManager(installed_covers(store), cover_term)
    hub = InMemoryHub(obs=obs, clock=clock) if fabric == "hub" else None

    cluster = Cluster(topology, [], [], store, oracle, clock, router, hub, obs)
    ports, legs = {}, {}
    try:  # a failed start closes what has started
        for shard_store, hosts in zip(shard_stores, topology.groups()):
            group = []
            cluster.groups.append(group)
            for index, name in enumerate(hosts):
                if hub is not None:
                    transport = hub.endpoint(name)
                else:
                    transport = _SOCKETS[fabric][0](name, obs=obs, clock=clock)
                    await transport.start()
                    ports[name] = transport.port
                if replicas > 1:
                    config = dataclasses.replace(
                        replica_config or template, hosts=hosts, index=index
                    )
                    engine = ReplicaEngine(name, shard_store, policy, config, clock.now(), obs)
                else:
                    engine = ServerEngine(
                        name, shard_store, policy, config=server_config,
                        installed=installed, now=clock.now(), obs=obs,
                    )
                group.append(_ServerNode(transport, engine, clock, obs=obs))

        for name in topology.client_hosts():
            if hub is not None:
                transport = hub.endpoint(name)
            else:
                for server, port in ports.items():
                    legs[server] = _SOCKETS[fabric][1](name, server, obs=obs, clock=clock)
                    await legs[server].connect(port=port)
                if shards > 1:
                    transport = FanoutTransport(name, legs, obs=obs, clock=clock)
                else:
                    transport = legs[topology.server_address()]
                legs = {}
            cluster.clients.append(LeaseClientNode(
                transport, topology.server_address(), config=client_config, clock=clock,
                obs=obs, engine_cls=ShardedClientEngine if shards > 1 else ClientEngine,
            ))
    except BaseException:
        for leg in legs.values():
            await leg.close()
        await cluster.close()
        raise
    return cluster
