"""Write-back caching via exclusive write leases with recall.

The paper limits its presentation to write-through caches but notes that
"extending the mechanism to support non-write-through caches is
straightforward" (§2) and points at the token schemes of Burrows's MFS
and the Echo file system (§6), "which can be regarded as limited-term
leases, but supporting non-write-through caches."  This module is that
extension:

* a **write lease** is exclusive: granting one uses the same
  approval-or-expiry gate as a write, so it coexists with no other lease;
* the owner buffers writes locally (``local_write``) and serves its own
  reads from the dirty copy — repeated writes are *absorbed* into one
  eventual flush;
* when any other client touches the datum the server **recalls** the
  lease with one more write gate, whose one awaited holder is the owner:
  the owner's surrender (its recall reply, carrying the dirty bytes) is
  the approval, and the server commits those bytes before serving anyone
  else;
* an unreachable owner delays others at most one term — but its unflushed
  writes are **lost**, the failure-semantics cost the paper's
  write-through design deliberately avoids.  A background timer flushes
  dirty data before the lease can expire to shrink that window.

Everything is built as engine subclasses; the wire messages live with the
rest of the vocabulary in :mod:`repro.protocol.messages`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.clock.sync import safe_local_expiry
from repro.protocol.client import ClientConfig, ClientEngine
from repro.lease.table import PendingWrite
from repro.protocol.effects import (
    CancelTimer,
    Complete,
    Effect,
    Send,
    SetTimer,
)
from repro.protocol.messages import (
    ExtendRequest,
    FlushRequest,
    Message,
    ReadRequest,
    RecallReply,
    RecallRequest,
    WriteLeaseReply,
    WriteLeaseRequest,
    WriteReply,
    WriteRequest,
)
from repro.protocol.server import ServerEngine, _Gate
from repro.sim.driver import Cluster, SimClient, build_cluster
from repro.types import DatumId, DatumKind, HostId


# -- server ---------------------------------------------------------------------


class WriteBackServerEngine(ServerEngine):
    """Lease server extended with exclusive write leases and recall.

    A recall is one more write gate (``repro.protocol.server._Gate``):
    the first request from anyone but the owner — alone, batched or
    replayed from ``_deferred`` — enters a gate that awaits the owner
    alone, asks it with a :class:`RecallRequest`, takes its
    :class:`RecallReply` as the approval and, when the wait is over,
    commits what was surrendered and releases the owner.  Everything
    else on the datum queues behind it.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        #: datum -> current write-lease owner.
        self._wlease_owner: dict[DatumId, HostId] = {}
        self._dispatch[WriteLeaseRequest] = self._handle_write_lease
        self._dispatch[FlushRequest] = self._handle_flush
        self._dispatch[RecallReply] = self._handle_recall_reply

    # -- requests on owned datums ------------------------------------------------

    def _handle_read(self, msg: ReadRequest, src: HostId, now: float) -> list[Effect]:
        return self._recall(msg.datum, src, now) + super()._handle_read(msg, src, now)

    def _handle_extend(self, msg: ExtendRequest, src: HostId, now: float) -> list[Effect]:
        effects: list[Effect] = []
        for datum, _ in msg.items:
            effects.extend(self._recall(datum, src, now))
        effects.extend(super()._handle_extend(msg, src, now))
        return effects

    def _handle_write(self, msg: WriteRequest, src: HostId, now: float) -> list[Effect]:
        if self._wlease_owner.get(msg.datum) == src:
            # The owner wrote through explicitly: commit under exclusivity.
            flush = FlushRequest(msg.req_id, msg.datum, msg.content, write_seq=msg.write_seq)
            return self._handle_flush(flush, src, now)
        return self._recall(msg.datum, src, now) + super()._handle_write(msg, src, now)

    def _grant(self, datum: DatumId, src: HostId, now: float) -> tuple[float, str | None]:
        if self._wlease_owner.get(datum) == src:
            # The owner's own read is served (e.g. a refetch after local
            # eviction of a clean copy) under its write lease: term 0,
            # and no read lease stretches the one a recall waits out.
            return 0.0, None
        return super()._grant(datum, src, now)

    # -- write-lease acquisition ----------------------------------------------------------

    def _handle_write_lease(
        self, msg: WriteLeaseRequest, src: HostId, now: float
    ) -> list[Effect]:
        datum = msg.datum
        if datum.kind is not DatumKind.FILE:
            return [Send(src, WriteLeaseReply(msg.req_id, datum, error="not a file datum"))]
        if not self.store.datum_exists(datum):
            return [Send(src, WriteLeaseReply(msg.req_id, datum, error="no such datum"))]
        if self._wlease_owner.get(datum) == src:
            if self.table.write_pending(datum):
                # The starvation guard: once anyone waits on the datum the
                # owner may not renew, so the recall's deadline holds.
                return [Send(src, WriteLeaseReply(msg.req_id, datum, error="lease being recalled"))]
            return self._grant_wlease(msg, src, now)  # renewal
        effects = self._recall(datum, src, now)
        if self._write_blocked(datum):
            self._deferred.setdefault(datum, []).append((msg, src))
            return effects
        # Gate on the read holders exactly like a write would (§2): the
        # same gate, entered the same way, with a grant for an ending
        # (at once when nobody else holds a lease).  It announces the
        # datum's current version — nothing is committed.
        gate = _Gate(src, msg, (datum,), src, self._grant_from_gate, bump=0)
        return effects + self._enter(gate, now)

    def _grant_from_gate(self, gate: _Gate, now: float) -> list[Effect]:
        """An acquisition's ending (the gate has left the lease table)."""
        datum = gate.msg.datum
        if self.table.write_pending(datum):
            # An ordinary write queued up behind our gate; it runs next,
            # and the acquisition is retried once the datum drains.
            self._deferred.setdefault(datum, []).append((gate.msg, gate.src))
            return []
        return self._grant_wlease(gate.msg, gate.src, now)

    def _grant_wlease(
        self, msg: WriteLeaseRequest, src: HostId, now: float
    ) -> list[Effect]:
        """Grant or renew; no gate is waiting on the datum."""
        datum = msg.datum
        term = self.policy.term(
            datum, src, now, stats=self.stats.get(datum), file_class=self._class_of(datum)
        )
        if term <= 0:
            error = "zero-term policy: write lease refused"
            return [Send(src, WriteLeaseReply(msg.req_id, datum, error=error))]
        self._wlease_owner[datum] = src
        self.table.grant(datum, src, now, term)
        version, payload = self.store.read_datum(datum)
        self._record_read(datum, now)
        return [
            Send(
                src,
                WriteLeaseReply(
                    msg.req_id,
                    datum,
                    version=version,
                    payload=None if msg.cached_version == version else payload,
                    term=term,
                ),
            )
        ]

    # -- recall ------------------------------------------------------------------------------

    def _recall(self, datum: DatumId, src: HostId, now: float) -> list[Effect]:
        """``src`` needs ``datum``: if someone else owns it and nothing waits
        on it yet, enter the recall gate.  Until the owner surrenders, the
        gate holds an empty surrender (what a silent owner leaves)."""
        owner = self._wlease_owner.get(datum)
        if owner is None or owner == src or self.table.write_pending(datum):
            return []
        surrender = RecallReply(datum, 0)
        gate = _Gate(src, surrender, (datum,), src, self._end_recall, only=owner)
        return self._enter(gate, now)

    def _approval_request(self, gate: _Gate, pending: PendingWrite) -> Message:
        if isinstance(gate.msg, RecallReply):
            return RecallRequest(pending.datum, pending.write_id)
        return super()._approval_request(gate, pending)

    def _handle_recall_reply(
        self, msg: RecallReply, src: HostId, now: float
    ) -> list[Effect]:
        """The owner's surrender: its approval of the recall gate."""
        if self._wlease_owner.get(msg.datum) != src:
            return []
        pending = self.table.approve(msg.datum, src, msg.recall_id)
        if pending is None:
            return []  # stale or duplicate recall reply
        gate = self._gates[pending.write_id]
        gate.msg = msg
        return self._look(gate, now)

    def _end_recall(self, gate: _Gate, now: float) -> list[Effect]:
        """A recall's ending: release the owner and commit what it
        surrendered.  A silent owner surrendered nothing: its dirty data
        is lost (the write-back failure-semantics cost)."""
        datum = gate.datums[0]
        owner = self._wlease_owner.pop(datum)
        self.table.release(datum, owner, now)
        dirty = gate.msg.dirty
        if dirty is not None:
            self._commit(datum, dirty, owner, now, 1)
        return []

    # -- flushes -----------------------------------------------------------------------------

    def _handle_flush(self, msg: FlushRequest, src: HostId, now: float) -> list[Effect]:
        dedup = self._check_dedup(src, msg)
        if dedup is not None:
            return dedup
        if msg.datum.kind is not DatumKind.FILE:
            return [Send(src, WriteReply(msg.req_id, msg.datum, error="not a file datum"))]
        if self._wlease_owner.get(msg.datum) != src:
            return [
                Send(src, WriteReply(msg.req_id, msg.datum, error="write lease lost"))
            ]
        version = self._commit(msg.datum, msg.content, src, now, 1)
        self._record_commit(src, msg.write_seq, version, None)
        return [Send(src, WriteReply(msg.req_id, msg.datum, version=version))]

    # -- introspection -------------------------------------------------------------------------

    def write_lease_owner(self, datum: DatumId) -> HostId | None:
        """The current write-lease owner of ``datum``, if any."""
        return self._wlease_owner.get(datum)


# -- client ----------------------------------------------------------------------------------


@dataclass(frozen=True)
class WriteBackClientConfig(ClientConfig):
    """Client config with write-back knobs.

    Attributes:
        flush_margin: dirty data is flushed once its lease has less than
            this long to live (bounds the loss window); also the period of
            the background flush timer.
        surrender_on_recall: True (the file-cache behaviour) flushes and
            relinquishes on a recall.  False ignores recalls: the server
            then waits out the lease, and renewals are refused once a
            recall is pending — which is exactly a *leadership lease*
            (§7; compare Chubby/ZooKeeper master leases).
    """

    flush_margin: float = 2.0
    surrender_on_recall: bool = True


class WriteBackClientEngine(ClientEngine):
    """Client engine with write-lease acquisition and local writes."""

    config: WriteBackClientConfig

    def __init__(self, name, server, config: WriteBackClientConfig | None = None, **kwargs):
        super().__init__(name, server, config=config or WriteBackClientConfig(), **kwargs)
        #: datum -> local-clock expiry of our write lease.
        self._wleases: dict[DatumId, float] = {}
        #: datum -> locally buffered (unflushed) contents.
        self._dirty: dict[DatumId, bytes] = {}
        self.local_writes_absorbed = 0

    def startup_effects(self, now: float) -> list[Effect]:
        effects = super().startup_effects(now)
        effects.append(SetTimer("wbflush", self.config.flush_margin / 2))
        return effects

    # -- application API ------------------------------------------------------------------------

    def acquire_write(self, datum: DatumId, now: float) -> tuple[int, list[Effect]]:
        """Acquire (or renew) an exclusive write lease on ``datum``."""
        op_id = self._new_op()
        entry = self.cache.peek(datum)
        cached = entry.version if entry is not None and entry.valid else None
        msg = WriteLeaseRequest(self._next_req, datum, cached_version=cached)
        self._next_req += 1
        effects = self._send_request(
            msg, {datum: [op_id]}, now, self.config.write_timeout, track_datums=False
        )
        return op_id, effects

    def holds_write_lease(self, datum: DatumId, now: float) -> bool:
        """True while we may buffer writes to ``datum`` locally."""
        return now < self._wleases.get(datum, -1.0)

    def local_write(self, datum: DatumId, content: bytes, now: float) -> tuple[int, list[Effect]]:
        """Buffer a write locally under our write lease.

        Falls back to ordinary write-through when no valid write lease is
        held.
        """
        if not self.holds_write_lease(datum, now):
            return self.write(datum, content, now)
        self.metrics.writes += 1
        if datum in self._dirty:
            self.local_writes_absorbed += 1
        self._dirty[datum] = content
        entry = self.cache.peek(datum)
        version = entry.version if entry is not None else 0
        self.cache.put(datum, version, content)
        op_id = self._take_op_id()
        return op_id, [Complete(op_id, ok=True, value=None)]

    def flush(self, datum: DatumId, now: float) -> tuple[int, list[Effect]]:
        """Write dirty contents through to the server, keeping the lease."""
        content = self._dirty.get(datum)
        if content is None:
            op_id = self._take_op_id()
            return op_id, [Complete(op_id, ok=True, value=None)]
        op_id = self._new_op()
        msg = FlushRequest(self._next_req, datum, content, write_seq=self._next_write_seq)
        self._next_req += 1
        self._next_write_seq += 1
        effects = self._send_request(
            msg, {datum: [op_id]}, now, self.config.write_timeout, track_datums=False
        )
        return op_id, effects

    def dirty_datums(self) -> set[DatumId]:
        """Datums with locally buffered, unflushed writes."""
        return set(self._dirty)

    # -- reads of owned datums --------------------------------------------------------------------

    def read(self, datum: DatumId, now: float) -> tuple[int, list[Effect]]:
        """As :meth:`ClientEngine.read`, with a write lease standing in for
        the read lease: the owner is served its own (possibly dirty) copy."""
        if self.holds_write_lease(datum, now):
            entry = self.cache.get(datum)
            if entry is not None:
                return self._hit(datum, now, entry.version, entry.payload)
            if datum in self._dirty:
                # The cache evicted the entry but the dirty bytes are ours
                # and authoritative while the lease holds.
                return self._hit(datum, now, 0, self._dirty[datum])
            return self._fetch(datum, now)  # looked up once: no second miss
        return super().read(datum, now)

    # -- message handling ----------------------------------------------------------------------------

    def handle_message(self, msg: Message, src: HostId, now: float) -> list[Effect]:
        if isinstance(msg, WriteLeaseReply):
            return self._on_wlease_reply(msg, now)
        if isinstance(msg, RecallRequest):
            return self._on_recall(msg, now)
        if isinstance(msg, WriteReply):
            req = self._requests.get(msg.req_id)
            flushed = (
                req is not None
                and isinstance(req.message, FlushRequest)
                and msg.error is None
            )
            content = req.message.content if flushed else None
            effects = self._on_write_reply(msg, now)
            if flushed and self._dirty.get(msg.datum) == content:
                del self._dirty[msg.datum]
            return effects
        return super().handle_message(msg, src, now)

    def handle_timer(self, key: str, now: float) -> list[Effect]:
        if key == "wbflush":
            return self._on_flush_timer(now)
        return super().handle_timer(key, now)

    def _on_wlease_reply(self, msg: WriteLeaseReply, now: float) -> list[Effect]:
        req = self._close_request(msg.req_id)
        if req is None:
            return []
        effects: list[Effect] = [CancelTimer(f"rpc:{msg.req_id}")]
        op_ids = req.waiters.get(msg.datum, [])
        if msg.error is not None:
            effects.extend(self._fail_ops(op_ids, msg.error))
            return effects
        self._wleases[msg.datum] = safe_local_expiry(
            req.sent_local, msg.term, self.config.epsilon, self.config.drift_bound
        )
        if msg.payload is not None:
            self.cache.put(msg.datum, msg.version, msg.payload, lease_req=req.req_id)
        entry = self.cache.peek(msg.datum)
        for op_id in op_ids:
            self._ops.discard(op_id)
            effects.append(
                Complete(
                    op_id,
                    ok=True,
                    value=(entry.version if entry else msg.version,
                           entry.payload if entry else None),
                )
            )
        return effects

    def _on_recall(self, msg: RecallRequest, now: float) -> list[Effect]:
        if not self.config.surrender_on_recall:
            # Leadership mode: hold the lease to its natural expiry.  This
            # is safe — the recall gate waits the lease out — but any
            # dirty data will be lost, so leaders should write through.
            return []
        dirty = self._dirty.pop(msg.datum, None)
        self._wleases.pop(msg.datum, None)
        # Our copy may be committed under a version we do not know yet
        # (or, with nothing dirty, under none at all): invalidate it and
        # refetch on next use.
        self.cache.invalidate(msg.datum, stamp=self._next_req)
        return [Send(self.server, RecallReply(msg.datum, msg.recall_id, dirty=dirty))]

    def _on_flush_timer(self, now: float) -> list[Effect]:
        """Background safety flush: never let dirty data ride a lease into
        its final ``flush_margin`` seconds."""
        effects: list[Effect] = [SetTimer("wbflush", self.config.flush_margin / 2)]
        for datum in list(self._dirty):
            expiry = self._wleases.get(datum)
            if expiry is None or expiry - now <= self.config.flush_margin:
                _, flush_effects = self.flush(datum, now)
                effects.extend(flush_effects)
        return effects


# -- simulation driver ------------------------------------------------------------------------------


class WriteBackSimClient(SimClient):
    """SimClient with the write-back application API."""

    engine_cls = WriteBackClientEngine

    def acquire_write(self, datum: DatumId, callback: Callable | None = None) -> int:
        """Acquire an exclusive write lease; returns the op id."""
        op_id, effects = self.engine.acquire_write(datum, self.host.clock.now())
        self._register(op_id, None, callback)
        self._run_effects(effects)
        return op_id

    def local_write(self, datum: DatumId, content: bytes) -> int:
        """Buffer a write locally under the write lease."""
        op_id, effects = self.engine.local_write(datum, content, self.host.clock.now())
        self._register(op_id, None, None)
        self._run_effects(effects)
        return op_id

    def flush(self, datum: DatumId) -> int:
        """Flush dirty data through to the server."""
        op_id, effects = self.engine.flush(datum, self.host.clock.now())
        self._register(op_id, None, None)
        self._run_effects(effects)
        return op_id


def build_writeback_cluster(
    n_clients: int = 2,
    client_config: WriteBackClientConfig | None = None,
    **kwargs,
) -> Cluster:
    """A cluster whose server and clients speak the write-back extension."""
    kwargs.setdefault("server_engine_factory", WriteBackServerEngine)
    return build_cluster(
        n_clients,
        client_config=client_config or WriteBackClientConfig(),
        client_cls=WriteBackSimClient,
        **kwargs,
    )
