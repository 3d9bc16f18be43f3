"""Binds the sans-io protocol engines to the simulated network.

:class:`SimServer` and :class:`SimClient` execute engine effects against
the :class:`~repro.sim.network.Network`, convert engine timer requests
into kernel events (compensating for clock drift), drop the engine on a
crash and run its ``reboot`` on restart, and surface completed
operations to workloads and tests.

:func:`build_cluster` is the one assembler: kernel, network, store,
oracle, one authority group per shard, clients, fault injector.  The
cluster's shape is a :class:`~repro.topology.Topology`; the classic
one-server cluster is its smallest case, not a separate path.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field
from typing import Callable

from repro.lease.installed import InstalledFileManager
from repro.lease.policy import FixedTermPolicy, TermPolicy, longest_finite_term
from repro.obs.events import TIMER_FIRE
from repro.protocol.client import REBOOT_ID_STEP, ClientConfig, ClientEngine
from repro.protocol.effects import Broadcast, CancelTimer, Complete, Effect, Send, SetTimer
from repro.protocol.messages import Message
from repro.protocol.server import ServerConfig, ServerEngine
from repro.replica.engine import ReplicaConfig, ReplicaEngine
from repro.shard.client import ShardedClientEngine
from repro.shard.router import ShardRouter
from repro.shard.store import ShardedStore
from repro.sim.faults import FaultInjector
from repro.sim.host import Host
from repro.sim.kernel import EventHandle, Kernel
from repro.sim.network import Network, NetworkParams
from repro.sim.oracle import ConsistencyOracle
from repro.storage.store import FileStore
from repro.topology import Assembled, Topology
from repro.types import DatumId, FileClass, HostId


class _TimerBank:
    """Named engine timers mapped onto kernel events.

    Engine delays are in the host's *local* seconds; with a drifting clock
    the kernel delay is scaled by ``1/(1 + drift)`` so the timer fires when
    the local clock has advanced by the requested amount.
    """

    def __init__(self, host: Host, on_fire: Callable[[str], None], obs=None):
        self._host = host
        self._on_fire = on_fire
        self._handles: dict[str, EventHandle] = {}
        self._obs = obs

    def set(self, key: str, local_delay: float) -> None:
        self.cancel(key)
        kernel = self._host.kernel
        kernel_delay = local_delay / (1.0 + self._host.clock.drift)
        if local_delay > 0.0 and kernel.now + kernel_delay <= kernel.now:
            # Too small for the kernel's clock to represent at this instant:
            # firing at ``now`` would hand the engine the same local time and
            # it would re-arm the same remainder forever.  Floor it at one ulp.
            kernel_delay = math.nextafter(kernel.now, math.inf) - kernel.now
        self._handles[key] = kernel.schedule(max(0.0, kernel_delay), self._fire, key)

    def cancel(self, key: str) -> None:
        handle = self._handles.pop(key, None)
        if handle is not None:
            handle.cancel()

    def cancel_all(self) -> None:
        for key in list(self._handles):
            self.cancel(key)

    def _fire(self, key: str) -> None:
        self._handles.pop(key, None)
        if self._host.up:
            obs = self._obs
            if obs is not None and obs.active:
                obs.emit(TIMER_FIRE, self._host.clock.now(), self._host.name, key=key)
            self._on_fire(key)


class _SimNode:
    """A protocol engine bound to a simulated host.

    Owns what every node kind shares: the timer bank, message and timer
    dispatch into the engine, effect execution, and the driver's half of
    a crash.  A crash drops the engine; a restart runs the dropped
    engine's own ``reboot``, which carries forward whatever survives.
    """

    #: False fans a :class:`Broadcast` out as unicasts (footnote-6 ablation).
    use_multicast = True

    def __init__(self, host: Host, network: Network, engine, obs=None):
        self.host = host
        self.network = network
        self.obs = obs
        #: The live engine; None while the host is down.
        self.engine = engine
        self._crashed = None
        self._timers = _TimerBank(host, self._on_timer, obs=obs)
        host.set_handler(self._on_message)
        host.on_crash(self._on_crash)
        host.on_restart(self._on_restart)
        self._run_effects(engine.startup_effects(host.clock.now()))

    def _on_crash(self) -> None:
        self._crashed, self.engine = self.engine, None
        self._timers.cancel_all()

    def _on_restart(self) -> None:
        now = self.host.clock.now()
        self.engine, self._crashed = self._crashed.reboot(now), None
        self._run_effects(self.engine.startup_effects(now))

    def _on_message(self, payload: Message, src: HostId) -> None:
        self._run_effects(
            self.engine.handle_message(payload, src, self.host.clock.now())
        )

    def _on_timer(self, key: str) -> None:
        self._run_effects(self.engine.handle_timer(key, self.host.clock.now()))

    def _run_effects(self, effects: list[Effect]) -> None:
        name, network = self.host.name, self.network
        for effect in effects:
            if isinstance(effect, Send):
                network.unicast(name, effect.dst, effect.message, kind=effect.message.kind)
            elif isinstance(effect, SetTimer):
                self._timers.set(effect.key, effect.delay)
            elif isinstance(effect, CancelTimer):
                self._timers.cancel(effect.key)
            elif isinstance(effect, Complete):
                self._on_complete(effect)
            elif isinstance(effect, Broadcast):
                message = effect.message
                if self.use_multicast:
                    network.multisend(name, effect.dsts, message, kind=message.kind)
                else:
                    for dst in effect.dsts:
                        network.unicast(name, dst, message, kind=message.kind)
            else:
                raise TypeError(f"{name} cannot execute effect {effect!r}")

    def _on_complete(self, effect: Complete) -> None:
        raise TypeError(f"{self.host.name} cannot execute effect {effect!r}")


class SimServer(_SimNode):
    """A lease authority bound to a simulated host.

    It drives whatever authority engine it is handed: a
    :class:`ServerEngine` (or a §6 baseline's substitute) for an
    unreplicated shard, a :class:`ReplicaEngine` for one member of a
    PaxosLease group.
    """

    def __init__(
        self, host: Host, network: Network, engine, use_multicast: bool = True, obs=None
    ):
        self.use_multicast = use_multicast
        super().__init__(host, network, engine, obs=obs)

    def is_master(self) -> bool:
        """True while the engine serves its shard: whenever it is up, for
        an unreplicated server; while it holds a valid master lease on its
        own clock, for a replica."""
        return self.engine is not None and self.engine.master_valid(
            self.host.clock.now()
        )


@dataclass
class OpResult:
    """Completion record of one client operation."""

    op_id: int
    ok: bool
    value: object
    error: str | None
    submitted_at: float
    completed_at: float

    @property
    def latency(self) -> float:
        """Seconds from submission to completion, in simulated time."""
        return self.completed_at - self.submitted_at


class SimClient(_SimNode):
    """A client cache bound to a simulated host."""

    #: The engine :func:`build_cluster` gives an unsharded client.
    engine_cls: type[ClientEngine] = ClientEngine

    def __init__(
        self,
        host: Host,
        network: Network,
        engine: ClientEngine | ShardedClientEngine,
        oracle: ConsistencyOracle | None = None,
        obs=None,
    ):
        self.oracle = oracle
        self.results: dict[int, OpResult] = {}
        self._submit_times: dict[int, float] = {}
        self._op_datum: dict[int, DatumId] = {}
        self._callbacks: dict[int, Callable[[OpResult], None]] = {}
        super().__init__(host, network, engine, obs=obs)

    def _on_crash(self) -> None:
        """A crash loses every piece of volatile state: cache, leases,
        pending operations (their results will never arrive)."""
        super()._on_crash()
        self._submit_times.clear()
        self._op_datum.clear()
        self._callbacks.clear()

    # -- application API ----------------------------------------------------------

    def read(
        self, datum: DatumId, callback: Callable[[OpResult], None] | None = None
    ) -> int:
        """Submit a read; returns the op id (result lands in ``results``)."""
        op_id, effects = self.engine.read(datum, self.host.clock.now())
        self._register(op_id, datum, callback)
        self._run_effects(effects)
        return op_id

    def write(
        self,
        datum: DatumId,
        content: bytes,
        callback: Callable[[OpResult], None] | None = None,
        cas: int | None = None,
    ) -> int:
        """Submit a write-through; returns the op id."""
        op_id, effects = self.engine.write(
            datum, content, self.host.clock.now(), cas=cas
        )
        self._register(op_id, None, callback)
        self._run_effects(effects)
        return op_id

    def relinquish(self, datum: DatumId) -> None:
        """Voluntarily give up a lease (client option, §4)."""
        self._run_effects(self.engine.relinquish(datum))

    def namespace_op(
        self,
        op_name: str,
        args: tuple,
        callback: Callable[[OpResult], None] | None = None,
    ) -> int:
        """Submit a namespace mutation; returns the op id."""
        op_id, effects = self.engine.namespace_op(op_name, args, self.host.clock.now())
        self._register(op_id, None, callback)
        self._run_effects(effects)
        return op_id

    def _register(
        self,
        op_id: int,
        datum: DatumId | None,
        callback: Callable[[OpResult], None] | None,
    ) -> None:
        self._submit_times[op_id] = self.host.kernel.now
        if datum is not None:
            self._op_datum[op_id] = datum
        if callback is not None:
            self._callbacks[op_id] = callback
        # The engine may have completed the op synchronously (cache hit);
        # _run_effects is invoked after registration by the caller, but a
        # synchronous Complete was already part of the returned effects.

    def _on_complete(self, effect: Complete) -> None:
        now = self.host.kernel.now
        submitted = self._submit_times.pop(effect.op_id, now)
        result = OpResult(
            op_id=effect.op_id,
            ok=effect.ok,
            value=effect.value,
            error=effect.error,
            submitted_at=submitted,
            completed_at=now,
        )
        self.results[effect.op_id] = result
        datum = self._op_datum.pop(effect.op_id, None)
        if effect.ok and datum is not None and self.oracle is not None:
            version, _payload = effect.value
            self.oracle.check_read(
                self.host.name, datum, version, submitted, now
            )
        callback = self._callbacks.pop(effect.op_id, None)
        if callback is not None:
            callback(result)


@dataclass
class Cluster(Assembled):
    """A fully wired simulated world.

    ``groups[k]`` is shard ``k``'s lease authority: one :class:`SimServer`,
    or one per member of its PaxosLease group; ``server``, ``servers``,
    ``master_of`` and ``client`` come from
    :class:`~repro.topology.Assembled`.  ``store`` is a plain
    :class:`FileStore` for one shard and the
    :class:`~repro.shard.store.ShardedStore` facade (with ``router``) for
    several.
    """

    kernel: Kernel
    network: Network
    topology: Topology
    groups: list[list[SimServer]]
    clients: list[SimClient]
    store: FileStore | ShardedStore
    oracle: ConsistencyOracle
    router: ShardRouter | None = None
    #: The cluster-wide trace bus (None when tracing is off).
    obs: object | None = None
    faults: FaultInjector = field(init=False)

    def __post_init__(self) -> None:
        self.faults = FaultInjector(self.network)

    def live_clients(self) -> list[SimClient]:
        """Clients whose hosts are currently up."""
        return [c for c in self.clients if c.host.up]

    def schedule_op(
        self, at: float, client_index: int, submit: Callable[[SimClient], object]
    ) -> None:
        """Schedule ``submit(client)`` at virtual time ``at``.

        The submission is silently skipped if the client's host is down at
        fire time — a user at a crashed workstation submits nothing.  This
        is the scenario-driven workload idiom extracted from the random
        stress test; :mod:`repro.check.runner` schedules every scenario op
        through it.
        """
        client = self.clients[client_index]

        def fire() -> None:
            if client.host.up:
                submit(client)

        self.kernel.schedule_at(at, fire)

    def run(self, until: float | None = None) -> None:
        """Advance the simulation."""
        self.kernel.run(until=until)

    def run_until_complete(self, client: SimClient, op_id: int, limit: float = 300.0) -> OpResult:
        """Step the kernel until the given operation completes.

        Raises:
            TimeoutError: the op did not finish within ``limit`` virtual
                seconds (e.g. blocked behind an infinite lease).
        """
        deadline = self.kernel.now + limit
        while op_id not in client.results:
            if self.kernel.now > deadline or not self.kernel.step():
                if op_id in client.results:
                    break
                raise TimeoutError(
                    f"op {op_id} on {client.host.name} incomplete at t={self.kernel.now:.3f}"
                )
        return client.results[op_id]


def build_cluster(
    n_clients: int = 2,
    *,
    shards: int = 1,
    replicas: int = 1,
    master_term: float = 2.0,
    policy: TermPolicy | None = None,
    network_params: NetworkParams | None = None,
    client_config: ClientConfig | None = None,
    server_config: ServerConfig | None = None,
    installed: InstalledFileManager | None = None,
    use_multicast: bool = True,
    seed: int = 0,
    strict_oracle: bool = True,
    setup_store: Callable[[FileStore | ShardedStore], None] | None = None,
    client_clock_params: Callable[[int], tuple[float, float]] | None = None,
    server_clock_params: tuple[float, float] = (0.0, 0.0),
    server_engine_factory: Callable[..., ServerEngine] | None = None,
    client_cls: type[SimClient] = SimClient,
    obs=None,
) -> Cluster:
    """Assemble a simulated cluster of any :class:`~repro.topology.Topology`.

    What varies with the topology is host naming (see
    :mod:`repro.topology`), the authority engine (:class:`ReplicaEngine`
    when ``replicas > 1``), the store (one :class:`FileStore` per shard, behind
    a :class:`ShardedStore` when ``shards > 1``) and the client engine
    (:class:`ShardedClientEngine` when ``shards > 1``).  Everything else —
    kernel, network, oracle, clocks, fault surface — is the same code for
    every shape.

    Args:
        n_clients: number of client hosts (``c0 .. c{n-1}``).
        shards: lease authorities the namespace is consistent-hashed
            across; each has its own store, lease table and recovery.
        replicas: members of each authority's PaxosLease group over that
            shard's store (the *authority* is replicated, not the data).
        master_term: duration of the PaxosLease master lease
            (``replicas > 1`` only).
        policy: term policy shared by every authority node (default:
            fixed 10 s — the paper's pick).  With ``replicas > 1`` it must
            state a finite :meth:`~repro.lease.policy.TermPolicy.
            longest_term`: the handoff wait-out is sized by it.
        network_params: message timing (default: the V parameter set).
        server_config: config of every server engine; under replication
            its ``recovery_delay`` is ignored (the handoff wait-out
            subsumes crash recovery).
        installed: optional installed-files manager (register datums on it
            after the store is set up, or pass a preconfigured one).
        use_multicast: False fans approvals/announcements out as unicasts
            (the paper's footnote-6 ablation).
        strict_oracle: raise on the first stale read (set False in clock-
            failure experiments that *expect* violations).
        setup_store: callback to populate the store before clients start;
            through the sharded facade, files land on their hash-owned
            shards.
        client_clock_params: maps client index to (offset, drift).
        server_clock_params: (offset, drift) of every authority host;
            per-host clock faults go through the fault injector.
        server_engine_factory: substitute server engine (baselines, §6).
        client_cls: the client node class; an unsharded client drives its
            ``engine_cls`` (the write-back extension's client, for one).
        obs: optional :class:`~repro.obs.bus.TraceBus` threaded through
            every layer (kernel, network, engines, timers, oracle) so one
            stream observes the whole cluster.

    Raises:
        ValueError: a combination the nodes cannot honour — installed
            files on more than one authority node, a substitute engine or
            an unbounded term policy under replication.
    """
    topology = Topology(shards=shards, replicas=replicas, clients=n_clients)
    policy = policy or FixedTermPolicy(10.0)
    template = replica_template(
        topology, policy, installed, client_config, server_config, master_term
    )
    if template is not None and server_engine_factory is not None:
        raise ValueError("replicas build their own inner server engine")

    kernel = Kernel(seed=seed, obs=obs)
    network = Network(kernel, network_params or NetworkParams(), obs=obs)
    store, router, shard_stores, oracle = checked_store(
        topology, setup_store, kernel, strict=strict_oracle, obs=obs
    )

    offset, drift = server_clock_params
    server_cls = server_engine_factory or ServerEngine
    groups = []
    for shard_store, group_hosts in zip(shard_stores, topology.groups()):
        group = []
        for index, name in enumerate(group_hosts):
            host = Host(name, kernel, clock_offset=offset, clock_drift=drift)
            network.attach(host)
            now = host.clock.now()
            if replicas > 1:
                config = dataclasses.replace(template, hosts=group_hosts, index=index)
                engine = ReplicaEngine(name, shard_store, policy, config, now=now, obs=obs)
            else:
                engine = server_cls(
                    name,
                    shard_store,
                    policy,
                    config=server_config,
                    installed=installed,
                    now=now,
                    obs=obs,
                )
            group.append(
                SimServer(host, network, engine, use_multicast=use_multicast, obs=obs)
            )
        groups.append(group)

    client_engine_cls = client_cls.engine_cls if shards == 1 else ShardedClientEngine
    clients = []
    for i, name in enumerate(topology.client_hosts()):
        offset, drift = (0.0, 0.0)
        if client_clock_params is not None:
            offset, drift = client_clock_params(i)
        host = Host(name, kernel, clock_offset=offset, clock_drift=drift)
        network.attach(host)
        # The first incarnation counts from one step in, as every reboot does.
        engine = client_engine_cls(
            name,
            topology.server_address(),
            config=client_config,
            id_base=REBOOT_ID_STEP,
            obs=obs,
        )
        clients.append(client_cls(host, network, engine, oracle=oracle, obs=obs))
    return Cluster(
        kernel=kernel,
        network=network,
        topology=topology,
        groups=groups,
        clients=clients,
        store=store,
        oracle=oracle,
        router=router,
        obs=obs,
    )


def replica_template(
    topology: Topology,
    policy: TermPolicy,
    installed: InstalledFileManager | None = None,
    client_config: ClientConfig | None = None,
    server_config: ServerConfig | None = None,
    master_term: float = 2.0,
) -> ReplicaConfig | None:
    """Both assemblers' authority rules: the config each replica's is
    filled from (placeholder ``hosts`` and ``index``; None unreplicated).

    Raises:
        ValueError: installed files on more than one authority node, or an
            unbounded term policy under replication.
    """
    if installed is not None and topology.shards * topology.replicas > 1:
        raise ValueError(
            "installed files need a single authority node (shards=1, replicas=1)"
        )
    if topology.replicas == 1:
        return None
    clocks = client_config or ClientConfig()
    return ReplicaConfig(
        hosts=(), index=0, master_term=master_term, max_file_term=longest_finite_term(policy),
        epsilon=clocks.epsilon, drift_bound=clocks.drift_bound,
        server=server_config or ServerConfig(),
    )


def checked_store(topology: Topology, setup_store, kernel, strict=True, obs=None) -> tuple:
    """Both assemblers' store: ``(store, router, shard_stores, oracle)``.

    One :class:`FileStore` per shard, behind the :class:`ShardedStore`
    facade (and its ``router``) when there are several, populated by
    ``setup_store`` before any node starts; one oracle on ``kernel``
    (anything with a ``now``) over every shard.
    """
    if topology.shards == 1:
        store, router = FileStore(), None
        shard_stores = [store]
    else:
        store = ShardedStore(topology.shards)
        router, shard_stores = store.router, store.shards
    if setup_store is not None:
        setup_store(store)
    # Shard 0 seeds the oracle's history; the rest attach with prefixed
    # directory ids (every shard's namespace has its own root and counter).
    oracle = ConsistencyOracle(kernel, shard_stores[0], strict=strict, obs=obs)
    for k in range(1, topology.shards):
        oracle.attach_store(shard_stores[k], dir_prefix=f"s{k}/")
    return store, router, shard_stores, oracle


def install_tree(
    store: FileStore,
    installed: InstalledFileManager,
    directory: str,
    files: dict[str, bytes],
) -> dict[str, DatumId]:
    """Create ``directory`` full of installed files under one cover lease.

    Intermediate directories are created as needed.

    Returns a mapping from path to file datum.
    """
    parts = [p for p in directory.split("/") if p]
    for depth in range(1, len(parts) + 1):
        prefix = "/" + "/".join(parts[:depth])
        try:
            store.namespace.resolve_dir(prefix)
        except Exception:
            store.namespace.mkdir(prefix)
    cover = f"cover:{directory}"
    datums = {}
    for name, content in files.items():
        path = f"{directory}/{name}"
        record = store.create_file(path, content, file_class=FileClass.INSTALLED)
        datum = DatumId.file(record.file_id)
        installed.register(cover, datum)
        datums[path] = datum
    return datums
