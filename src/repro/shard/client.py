"""The shard-aware client engine.

:class:`ShardedClientEngine` duck-types the sans-io
:class:`~repro.protocol.client.ClientEngine` interface the drivers bind
to (``SimClient`` in the DES, ``LeaseClientNode`` in the asyncio
runtime), but multiplexes one *inner* ``ClientEngine`` per shard.  Every
application operation is routed by datum hash to its owning shard's
engine; everything below the routing decision — lease bookkeeping,
retransmission, the pipelined batching layer, CAS writes — runs the
unmodified single-server protocol against that shard.

Per-shard batch splitting falls out of the structure: each inner engine
owns its own :class:`~repro.protocol.pipeline.BatchPipeline`, so ops
issued in one instant ship as one ``BatchRequest`` *per shard touched*,
and per-file op order is preserved because a file maps to exactly one
shard (ops on one datum never cross pipelines).  Batched lease
extensions (§3.1) likewise cover exactly the leases granted by the
extension's target shard.

Multiplexing invariants:

* **timer keys** — inner engine ``k``'s timers are namespaced as
  ``"{k}:{key}"`` on the way out and stripped on the way back in, so the
  shards' ``rpc:{id}`` / ``pipeline.flush`` / ``anticipate`` timers
  coexist in one driver timer bank;
* **id spaces** — engine ``k`` counts ops/requests/write-seqs from
  ``id_base + k * SHARD_ID_SPAN``, so op ids are globally unique and the
  driver's completion tables need no shard awareness;
* **message routing** — inbound messages are dispatched by source host
  (each shard replies from its own name); a message from an unknown host
  is dropped with a ``shard.miss`` event rather than crashing the node.

Namespace operations route to shard 0: path resolution is a directory
read, and directory datums are not yet hash-partitioned (cross-shard
rename in particular would need a transaction across two lease
authorities).  Scenario workloads and benchmarks only address files.
"""

from __future__ import annotations

from repro.obs.bus import NULL_BUS
from repro.obs.events import SHARD_MISS, SHARD_ROUTE
from repro.protocol.client import REBOOT_ID_STEP, ClientConfig, ClientEngine, ClientMetrics
from repro.protocol.effects import CancelTimer, Effect, SetTimer
from repro.protocol.messages import Message
from repro.shard.router import SHARD_ID_SPAN, ShardRouter
from repro.types import DatumId, HostId, Version


class ShardedClientEngine:
    """One client-side protocol engine per shard, behind one interface."""

    def __init__(
        self,
        name: HostId,
        server: tuple[HostId, ...],
        config: ClientConfig | None = None,
        id_base: int = 0,
        obs=None,
        router: ShardRouter | None = None,
        engine_cls: type[ClientEngine] = ClientEngine,
    ):
        """Args:
            server: the shard server host names, in shard order.  (Named
                ``server`` so drivers can pass it positionally exactly
                where they pass the single server's name today.)  An
                element may itself be a tuple — the replica group of
                that shard's lease authority; the inner engine then
                follows ``NotMaster`` redirects within its group.
            router: placement override; by default a fresh
                :class:`ShardRouter` over ``server`` — deterministic, so
                every independently constructed party agrees.
        """
        self.name = name
        self.servers = tuple(server)
        #: Per-shard replica groups (singleton groups when unreplicated).
        self.groups: tuple[tuple[HostId, ...], ...] = tuple(
            g if isinstance(g, tuple) else (g,) for g in self.servers
        )
        self.config = config or ClientConfig()
        self.obs = obs or NULL_BUS
        self.id_base = id_base
        self.router = router or ShardRouter(
            len(self.groups), hosts=tuple(group[0] for group in self.groups)
        )
        self.engines: list[ClientEngine] = [
            engine_cls(
                name,
                group if len(group) > 1 else group[0],
                config=self.config,
                id_base=id_base + k * SHARD_ID_SPAN,
                obs=obs,
            )
            for k, group in enumerate(self.groups)
        ]
        #: Any replica of shard ``k`` replies as shard ``k``.
        self._by_host = {
            host: k for k, group in enumerate(self.groups) for host in group
        }
        #: Operations routed to each shard (the per-shard breakdown the
        #: load harness reports).
        self.shard_counts: list[int] = [0] * len(self.servers)

    # -- routing ----------------------------------------------------------------

    def shard_of(self, datum: DatumId) -> int:
        """The shard index owning ``datum``."""
        return self.router.shard_of(datum)

    def _route(self, datum: DatumId, kind: str, now: float) -> int:
        shard = self.router.shard_of(datum)
        self.shard_counts[shard] += 1
        if self.obs.active:
            self.obs.emit(
                SHARD_ROUTE, now, self.name,
                datum=str(datum), shard=shard, kind=kind,
            )
        return shard

    def _wrap(self, shard: int, effects: list[Effect]) -> list[Effect]:
        """Namespace inner timer keys; sends/completions pass through
        (each inner engine already targets its own shard's host)."""
        out: list[Effect] = []
        for effect in effects:
            if isinstance(effect, SetTimer):
                out.append(SetTimer(f"{shard}:{effect.key}", effect.delay))
            elif isinstance(effect, CancelTimer):
                out.append(CancelTimer(f"{shard}:{effect.key}"))
            else:
                out.append(effect)
        return out

    # -- lifecycle ---------------------------------------------------------------

    def startup_effects(self, now: float) -> list[Effect]:
        """Concatenated startup effects of every shard engine."""
        effects: list[Effect] = []
        for shard, engine in enumerate(self.engines):
            effects.extend(self._wrap(shard, engine.startup_effects(now)))
        return effects

    def reboot(self, now: float) -> "ShardedClientEngine":
        """The next incarnation after a crash, as
        :meth:`ClientEngine.reboot`: every shard engine starts empty, and
        the id space moves on by ``REBOOT_ID_STEP``."""
        return type(self)(
            self.name,
            self.servers,
            config=self.config,
            id_base=self.id_base + REBOOT_ID_STEP,
            obs=self.obs,
            router=self.router,
            engine_cls=type(self.engines[0]),
        )

    # -- application API -----------------------------------------------------------

    def read(self, datum: DatumId, now: float) -> tuple[int, list[Effect]]:
        """Read a datum via its owning shard's engine."""
        shard = self._route(datum, "read", now)
        op_id, effects = self.engines[shard].read(datum, now)
        return op_id, self._wrap(shard, effects)

    def write(
        self,
        datum: DatumId,
        content: bytes,
        now: float,
        cas: Version | None = None,
    ) -> tuple[int, list[Effect]]:
        """Write a datum through its owning shard."""
        shard = self._route(datum, "write", now)
        op_id, effects = self.engines[shard].write(datum, content, now, cas=cas)
        return op_id, self._wrap(shard, effects)

    def namespace_op(
        self, op_name: str, args: tuple, now: float
    ) -> tuple[int, list[Effect]]:
        """Submit a namespace mutation (routed to shard 0 — see module doc)."""
        shard = 0
        self.shard_counts[shard] += 1
        if self.obs.active:
            self.obs.emit(
                SHARD_ROUTE, now, self.name, datum="", shard=shard, kind="ns",
            )
        op_id, effects = self.engines[shard].namespace_op(op_name, args, now)
        return op_id, self._wrap(shard, effects)

    def relinquish(self, datum: DatumId) -> list[Effect]:
        """Voluntarily give up a lease on the owning shard (§4)."""
        shard = self.router.shard_of(datum)
        return self._wrap(shard, self.engines[shard].relinquish(datum))

    def relinquish_all(self, now: float) -> list[Effect]:
        """Give up every held lease, on every shard."""
        effects: list[Effect] = []
        for shard, engine in enumerate(self.engines):
            effects.extend(self._wrap(shard, engine.relinquish_all(now)))
        return effects

    def write_temp(self, path: str, content: bytes) -> None:
        """Write a temporary file locally (client-local, shard-agnostic)."""
        self.engines[0].write_temp(path, content)

    def read_temp(self, path: str) -> bytes | None:
        """Read a locally stored temporary file."""
        return self.engines[0].read_temp(path)

    # -- inbound dispatch ------------------------------------------------------------

    def handle_message(self, msg: Message, src: HostId, now: float) -> list[Effect]:
        """Dispatch an inbound message to the engine bound to ``src``."""
        shard = self._by_host.get(src)
        if shard is None:
            if self.obs.active:
                self.obs.emit(SHARD_MISS, now, self.name, src=src, kind=msg.kind)
            return []
        return self._wrap(shard, self.engines[shard].handle_message(msg, src, now))

    def handle_timer(self, key: str, now: float) -> list[Effect]:
        """Strip the shard prefix and dispatch to the owning engine."""
        prefix, _, inner = key.partition(":")
        shard = int(prefix)
        return self._wrap(shard, self.engines[shard].handle_timer(inner, now))

    # -- introspection ----------------------------------------------------------------

    @property
    def metrics(self) -> ClientMetrics:
        """Aggregated counters across every shard engine."""
        total = ClientMetrics()
        for engine in self.engines:
            m = engine.metrics
            total.reads += m.reads
            total.writes += m.writes
            total.local_hits += m.local_hits
            total.extend_requests += m.extend_requests
            total.read_requests += m.read_requests
            total.approvals_granted += m.approvals_granted
            total.retransmissions += m.retransmissions
            total.failures += m.failures
            total.cas_conflicts += m.cas_conflicts
            total.redirects += m.redirects
        return total

    def outstanding_requests(self) -> int:
        """RPCs currently awaiting a reply, across every shard."""
        return sum(engine.outstanding_requests() for engine in self.engines)

    def pipeline_stats(self) -> tuple[int, int]:
        """Summed ``(batched frames, ops shipped in them)`` across shards."""
        batches = ops = 0
        for engine in self.engines:
            b, o = engine.pipeline_stats()
            batches += b
            ops += o
        return batches, ops
