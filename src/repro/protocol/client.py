"""The client-side protocol engine (sans-io).

A cache using leases requires a *valid lease* on the datum (in addition to
holding the datum) before serving a read locally (paper §2).  This engine
implements the client half of the protocol:

* local read hits complete with **zero** messages while the lease is valid;
* a miss on a known datum is answered with one **batched** extension
  (§3.1) that asks for what the cache lacks — the datum itself, every held
  lease that is due for renewal, and every resident copy an approval or an
  own write invalidated — and for nothing it already has
  (:meth:`repro.lease.holder.LeaseSet.refresh_set`);
* writes are written through with per-client sequence numbers for
  exactly-once commit under retransmission;
* approval callbacks invalidate the local copy and reply immediately — the
  client never blocks an approval, so there is no distributed deadlock;
  what a later reply may put back is one rule, stated and decided in
  :class:`repro.cache.filecache.FileCache` — the engine only says *when*
  it invalidated (the next request id) and *which request* a reply answers;
* installed-file cover leases are refreshed by unsolicited multicast
  announcements;
* optional anticipatory extension renews leases shortly before expiry (§4),
  trading server load for read latency;
* temporary files live in a client-local store and never touch the server
  (the V design that makes write-through affordable).

Lease expiry is tracked conservatively with
:func:`repro.clock.sync.safe_local_expiry`, anchored at the *send* time of
the request that produced the lease.
"""

from __future__ import annotations

from bisect import insort
from dataclasses import dataclass, field
from typing import Callable

from repro.cache.eviction import make_policy
from repro.cache.filecache import FileCache, TempFileStore
from repro.clock.sync import safe_local_expiry
from repro.errors import ReproError
from repro.lease.holder import LeaseSet
from repro.obs.bus import NULL_BUS
from repro.obs.events import LOCAL_HIT, RETRANSMIT, RPC_FAIL
from repro.protocol.effects import CancelTimer, Complete, Effect, Send, SetTimer
from repro.protocol.pipeline import FLUSH_TIMER, BatchPipeline
from repro.protocol.messages import (
    ApprovalReply,
    ApprovalRequest,
    BatchReply,
    BatchRequest,
    ExtendGrant,
    ExtendReply,
    ExtendRequest,
    InstalledAnnounce,
    Message,
    NamespaceReply,
    NamespaceRequest,
    NotMaster,
    ReadReply,
    ReadRequest,
    RelinquishRequest,
    WriteReply,
    WriteRequest,
)
from repro.types import DatumId, HostId, Version

#: How far a reboot moves a client's ``id_base``.  Consecutive
#: incarnations share no id as long as each issues fewer than this many.
REBOOT_ID_STEP = 1_000_000


@dataclass(frozen=True)
class ClientConfig:
    """Client tuning knobs.

    Attributes:
        epsilon: clock-uncertainty allowance (must match the server's).
        drift_bound: bound on this clock's rate error, for duration-based
            expiry (§5).
        announce_delay_bound: assumed maximum delivery delay of an
            announce multicast; subtracted from cover-lease terms because
            announcements have no request send-time to anchor on.
        rpc_timeout: retransmission timeout for reads/extensions; against
            a replica group, the first wait of every request.
        write_timeout: retransmission timeout for writes and namespace
            ops — generous, because a write is *designed* to wait up to a
            lease term; against a group, the cap of the doubling wait.
        max_retries: the failure budget, in request timeouts (see
            :meth:`ClientEngine._on_rpc_timeout`).
        batching: pipeline *all* outbound requests issued within one
            instant into :class:`~repro.protocol.messages.BatchRequest`
            frames (see :mod:`repro.protocol.pipeline`).  Off by default:
            disabled, the wire traffic is bit-for-bit identical to the
            pre-pipeline protocol.
        max_batch: most ops per batched frame.
        anticipatory: renew leases before they expire (§4).
        anticipate_margin: how long before expiry the anticipatory renewal
            fires, and the period of its timer.
        cache_capacity: maximum resident cache entries.
        eviction: victim-selection policy — ``"lru"`` (the default; byte-
            identical to the seed behaviour) or ``"lru-lfu"`` (hybrid
            score-based eviction, :mod:`repro.cache.eviction`).  With
            ``"lru-lfu"`` the policy is wired to the engine's lease set
            so lease-held entries are shielded from eviction.
    """

    epsilon: float = 0.1
    drift_bound: float = 0.0
    announce_delay_bound: float = 0.05
    rpc_timeout: float = 2.0
    write_timeout: float = 45.0
    max_retries: int = 8
    batching: bool = False
    max_batch: int = 64
    anticipatory: bool = False
    anticipate_margin: float = 2.0
    cache_capacity: int = 4096
    eviction: str = "lru"


@dataclass
class _OpCtx:
    """One application-visible operation in flight."""

    op_id: int
    kind: str  # "read" | "write" | "ns"
    datum: DatumId | None
    submitted_local: float


@dataclass
class _ReqCtx:
    """One outstanding RPC (may serve several operations)."""

    req_id: int
    message: Message
    sent_local: float
    timeout: float
    #: The rpc wait armed for the current transmission.
    delay: float
    retries: int = 0
    #: Sum of the rpc waits that have fired, in units of ``timeout``.
    waited: float = 0.0
    #: NotMaster redirects answered with an *immediate* resend since the
    #: last (re)transmission; bounded so a hint loop between confused
    #: replicas degrades to ordinary timeout-paced retries, never a storm.
    redirects: int = 0
    #: op_ids waiting on each datum this request covers.
    waiters: dict[DatumId, list[int]] = field(default_factory=dict)


@dataclass
class ClientMetrics:
    """Counters used by experiments and examples."""

    reads: int = 0
    writes: int = 0
    local_hits: int = 0
    extend_requests: int = 0
    read_requests: int = 0
    approvals_granted: int = 0
    retransmissions: int = 0
    failures: int = 0
    cas_conflicts: int = 0
    redirects: int = 0


class ClientEngine:
    """The client cache's protocol state machine."""

    def __init__(
        self,
        name: HostId,
        server: HostId | tuple[HostId, ...],
        config: ClientConfig | None = None,
        id_base: int = 0,
        obs=None,
    ):
        """Args:
            server: the lease authority — a single host, or the replica
                group of a replicated authority (``repro.replica``).
                With a group, requests go to one *current* target;
                :class:`~repro.protocol.messages.NotMaster` redirects and
                RPC timeouts rotate it.
            id_base: starting value for op/request/write-sequence counters.
                A restarted client needs a fresh base (a boot epoch;
                :meth:`reboot` steps it by ``REBOOT_ID_STEP``):
                otherwise its new requests collide with pre-crash ids —
                late replies would mis-match, and worst of all the server's
                write dedup table would swallow post-restart writes that
                reuse a pre-crash ``write_seq``.
            obs: optional :class:`~repro.obs.bus.TraceBus` receiving
                ``rpc.*``/``read.local_hit`` events.
        """
        self.name = name
        if isinstance(server, tuple):
            if not server:
                raise ReproError("empty server group")
            self.servers: tuple[HostId, ...] = server
            self.server = server[0]
        else:
            self.servers = (server,)
            self.server = server
        self.config = config or ClientConfig()
        self.obs = obs or NULL_BUS
        self.leases = LeaseSet()
        self.cache = FileCache(
            capacity=self.config.cache_capacity,
            policy=make_policy(self.config.eviction, protected=self.leases.held_datums),
        )
        self.temp = TempFileStore()
        self.metrics = ClientMetrics()
        self.id_base = id_base
        self._ops: dict[int, _OpCtx] = {}
        self._requests: dict[int, _ReqCtx] = {}
        #: datum -> req_id of the in-flight read/extend covering it.
        self._datum_req: dict[DatumId, int] = {}
        #: datum -> write_seqs of our outstanding write-type requests on it,
        #: ascending (sequence numbers only grow); no key when there are none.
        self._own_writes: dict[DatumId, list[int]] = {}
        self._next_op = id_base + 1
        self._next_req = id_base + 1
        self._next_write_seq = id_base + 1
        self._pipeline = (
            BatchPipeline(self._take_req_id, self.config.max_batch)
            if self.config.batching
            else None
        )
        #: Exact-type message dispatch.  Bound at init so subclass handler
        #: overrides win; message classes are final, so ``type(msg)`` lookup
        #: matches the isinstance chain it replaces.
        self._dispatch: dict[type, Callable] = {
            ReadReply: self._on_read_reply,
            ExtendReply: self._on_extend_reply,
            WriteReply: self._on_write_reply,
            NamespaceReply: self._on_ns_reply,
            ApprovalRequest: self._on_approval_request,
            InstalledAnnounce: self._on_announce,
            NotMaster: self._on_not_master,
            BatchReply: self._on_batch_reply,
        }

    # -- lifecycle -----------------------------------------------------------

    def startup_effects(self, now: float) -> list[Effect]:
        """Effects to run when the client starts (anticipatory timer)."""
        if self.config.anticipatory:
            return [SetTimer("anticipate", self.config.anticipate_margin / 2)]
        return []

    def reboot(self, now: float) -> "ClientEngine":
        """This client's next incarnation after a crash.

        Nothing survives — cache, leases, pending operations — except
        the id space moving on: the next incarnation counts from
        ``id_base + REBOOT_ID_STEP``, so none of its ids collide with
        this one's (see ``id_base``).
        """
        return type(self)(
            self.name,
            self.servers,
            config=self.config,
            id_base=self.id_base + REBOOT_ID_STEP,
            obs=self.obs,
        )

    # -- application API -------------------------------------------------------

    def read(self, datum: DatumId, now: float) -> tuple[int, list[Effect]]:
        """Read a datum; completes locally when lease and copy are valid.

        The hit is decided before an op context exists: a lease-valid read
        returns its lone :class:`Complete` having consumed an op id and
        nothing else; only a miss is entered in ``_ops``.
        """
        # No local hit while a write of ours on the datum awaits its reply:
        # the server exempts the *writer* from approval-based invalidation,
        # trusting the WriteReply to update its cache — so if that reply is
        # lost, our valid-lease copy may silently predate our own committed
        # write.  Until the write resolves the read goes to the server.
        if self.leases.valid(datum, now) and datum not in self._own_writes:
            entry = self.cache.get(datum)
            if entry is not None:
                return self._hit(datum, now, entry.version, entry.payload)
        return self._fetch(datum, now)

    def write(
        self,
        datum: DatumId,
        content: bytes,
        now: float,
        cas: Version | None = None,
    ) -> tuple[int, list[Effect]]:
        """Write a file datum through to the server.

        Args:
            cas: version this write was derived from; the server rejects
                the write with a ``cas mismatch`` error if the datum has
                moved past it (lost race with a concurrent writer).
        """
        op = self._new_op("write", datum, now)
        self.metrics.writes += 1
        # The write request carries this client's *implicit approval* (§3.1),
        # and granting approval invalidates the local copy (§2).  Without
        # this, the window between the server-side commit and the arrival of
        # the WriteReply would serve the pre-write value from our own cache.
        self.cache.invalidate(datum, stamp=self._next_req)
        msg = WriteRequest(
            self._next_req, datum, content, write_seq=self._next_write_seq, cas=cas
        )
        self._next_req += 1
        self._next_write_seq += 1
        effects = self._send_request(
            msg, {datum: [op.op_id]}, now, self.config.write_timeout, track_datums=False
        )
        return op.op_id, effects

    def namespace_op(self, op_name: str, args: tuple, now: float) -> tuple[int, list[Effect]]:
        """Submit a namespace mutation (bind/unbind/rename/mkdir)."""
        op = self._new_op("ns", None, now)
        msg = NamespaceRequest(
            self._next_req, op_name, args, write_seq=self._next_write_seq
        )
        self._next_req += 1
        self._next_write_seq += 1
        effects = self._send_request(
            msg, {}, now, self.config.write_timeout, op_ids=[op.op_id], track_datums=False
        )
        return op.op_id, effects

    def write_temp(self, path: str, content: bytes) -> None:
        """Write a temporary file locally; never touches the server."""
        self.temp.write(path, content)

    def read_temp(self, path: str) -> bytes | None:
        """Read a temporary file from the local store."""
        return self.temp.read(path)

    def relinquish(self, datum: DatumId) -> list[Effect]:
        """Voluntarily give up a lease (client option, §4).

        Drops the holding locally and tells the server (fire-and-forget),
        which removes its record and unblocks any write that was waiting
        on this client.  The cached data is kept — it can be revalidated
        cheaply with a versioned read later.
        """
        if datum not in self.leases:
            return []
        self.leases.drop(datum)
        return self._outbound(RelinquishRequest((datum,)))

    def relinquish_all(self, now: float) -> list[Effect]:
        """Give up every held lease (e.g. ahead of a planned shutdown)."""
        datums = tuple(sorted(self.leases.held_datums(), key=str))
        if not datums:
            return []
        for datum in datums:
            self.leases.drop(datum)
        return self._outbound(RelinquishRequest(datums))

    # -- message handling ----------------------------------------------------------

    def handle_message(self, msg: Message, src: HostId, now: float) -> list[Effect]:
        """Process one inbound message; returns the effects to execute."""
        handler = self._dispatch.get(type(msg))
        if handler is None:
            raise ReproError(f"client got unexpected message {type(msg).__name__}")
        return handler(msg, now)

    def handle_timer(self, key: str, now: float) -> list[Effect]:
        """Process a timer firing; returns the effects to execute."""
        if key.startswith("rpc:"):
            return self._on_rpc_timeout(int(key.split(":", 1)[1]), now)
        if key == FLUSH_TIMER:
            return self._flush_pipeline()
        if key == "anticipate":
            return self._on_anticipate(now)
        raise ReproError(f"client got unexpected timer {key!r}")

    # -- hit and fetch paths ------------------------------------------------------------

    def _hit(
        self, datum: DatumId, now: float, version: Version, payload: object
    ) -> tuple[int, list[Effect]]:
        """A read served on the spot: one op id, the counters, the event
        and the lone ``Complete`` — the only place a local hit is recorded."""
        op_id = self._next_op  # _take_op_id, inline: this is the hot path
        self._next_op = op_id + 1
        metrics = self.metrics
        metrics.reads += 1
        metrics.local_hits += 1
        if self.obs.active:
            self.obs.emit(LOCAL_HIT, now, self.name, datum=str(datum))
        return op_id, [Complete(op_id, True, (version, payload))]

    def _fetch(self, datum: DatumId, now: float) -> tuple[int, list[Effect]]:
        """A read that missed: obtain a fresh lease (and data if needed)."""
        op_id = self._new_op("read", datum, now).op_id
        self.metrics.reads += 1
        in_flight = self._datum_req.get(datum)
        if in_flight is not None:
            self._requests[in_flight].waiters.setdefault(datum, []).append(op_id)
            return op_id, []
        if datum in self.cache and datum in self.leases:
            return op_id, self._send_extend(datum, op_id, now)
        return op_id, self._send_read(datum, op_id, now)

    def _send_read(self, datum: DatumId, op_id: int | None, now: float) -> list[Effect]:
        entry = self.cache.peek(datum)
        cached_version = entry.version if entry is not None and entry.valid else None
        msg = ReadRequest(self._next_req, datum, cached_version=cached_version)
        self._next_req += 1
        self.metrics.read_requests += 1
        waiters = {datum: [op_id] if op_id is not None else []}
        return self._send_request(msg, waiters, now, self.config.rpc_timeout)

    def _send_extend(self, datum: DatumId, op_id: int | None, now: float) -> list[Effect]:
        """Batched extension (§3.1): ``datum`` plus the refresh set.

        The refresh set is what else the cache lacks — held (non-cover)
        leases due for renewal and resident copies that were invalidated;
        a fresh lease over a valid copy is not re-requested, and neither is
        one whose copy the cache chose to evict.  Batch order is the sorted
        (by ``str``) datum set and nothing else: the triggering datum is
        merged into sorted position, so equivalent client states always
        produce byte-identical requests regardless of the op history that
        led to them.
        """
        batch = self.leases.refresh_set(now, self.cache.invalidated)
        if datum not in batch:
            insort(batch, datum, key=str)
        items = []
        waiters: dict[DatumId, list[int]] = {}
        for d in batch:
            if d in self._datum_req:
                continue  # already being fetched by another request
            entry = self.cache.peek(d)
            version = entry.version if entry is not None and entry.valid else 0
            items.append((d, version))
            waiters[d] = []
        waiters.setdefault(datum, [])
        if op_id is not None:
            waiters[datum].append(op_id)
        msg = ExtendRequest(self._next_req, tuple(items))
        self._next_req += 1
        self.metrics.extend_requests += 1
        return self._send_request(msg, waiters, now, self.config.rpc_timeout)

    def _send_request(
        self,
        msg: Message,
        waiters: dict[DatumId, list[int]],
        now: float,
        timeout: float,
        op_ids: list[int] | None = None,
        track_datums: bool = True,
    ) -> list[Effect]:
        req = _ReqCtx(
            req_id=msg.req_id,
            message=msg,
            sent_local=now,
            timeout=timeout,
            delay=timeout
            if len(self.servers) <= 1
            else min(timeout, self.config.rpc_timeout),
            waiters=waiters,
        )
        if op_ids:
            req.waiters.setdefault(None, []).extend(op_ids)  # type: ignore[arg-type]
        self._requests[msg.req_id] = req
        if hasattr(msg, "content"):
            self._own_writes.setdefault(msg.datum, []).append(msg.write_seq)
        if track_datums:
            # Only fetch-type requests (read/extend) coalesce later reads;
            # writes and namespace ops must not capture readers.
            for datum in waiters:
                if datum is not None:
                    self._datum_req[datum] = msg.req_id
        return [*self._outbound(msg), SetTimer(f"rpc:{msg.req_id}", req.delay)]

    def _outbound(self, msg: Message) -> list[Effect]:
        """Route one outbound request: direct send, or into the pipeline.

        With batching on, the first buffered message of an instant arms a
        zero-delay flush timer; everything buffered before it fires ships
        as one batch.  Retry timers are armed by the caller either way, so
        op-level recovery is identical in both modes.
        """
        if self._pipeline is None or not BatchPipeline.wants(msg):
            return [Send(self.server, msg)]
        if self._pipeline.add(msg):
            return [SetTimer(FLUSH_TIMER, 0.0)]
        return []

    def _flush_pipeline(self) -> list[Effect]:
        if self._pipeline is None:
            return []
        return [Send(self.server, m) for m in self._pipeline.flush()]

    # -- replies ------------------------------------------------------------------------

    def _on_read_reply(self, msg: ReadReply, now: float) -> list[Effect]:
        req = self._close_request(msg.req_id)
        if req is None:
            return []  # duplicate or late reply
        effects: list[Effect] = [CancelTimer(f"rpc:{msg.req_id}")]
        if msg.error is not None:
            return effects + self._fail_ops(req.waiters.get(msg.datum, []), msg.error)
        return effects + self._settle_grant(req, msg, now)

    def _on_extend_reply(self, msg: ExtendReply, now: float) -> list[Effect]:
        req = self._close_request(msg.req_id)
        if req is None:
            return []
        effects: list[Effect] = [CancelTimer(f"rpc:{msg.req_id}")]
        for grant in msg.grants:
            effects.extend(self._settle_grant(req, grant, now))
        for datum in msg.denied:
            # Write pending at the server (or datum gone): our lease is not
            # renewed.  Waiting readers fall back to a ReadRequest, which
            # the server defers until the write drains.
            self.leases.drop(datum)
            op_ids = req.waiters.get(datum, [])
            if op_ids:
                effects.extend(self._refetch(datum, op_ids, now))
        return effects

    def _settle_grant(
        self, req: _ReqCtx, grant: ReadReply | ExtendGrant, now: float
    ) -> list[Effect]:
        """One datum of a fetch reply, read or extend alike: add the lease,
        offer the payload, complete the waiting reads from a valid entry
        or refetch for them.

        ``grant.payload`` is None when the server found our copy unchanged.
        The entry can still be missing or invalid then (eviction, or an
        approval that raced the reply), and an offered payload can be
        refused (:meth:`FileCache.put`): either way the readers are not
        handed old data, they wait for a fresh ``ReadRequest``.
        """
        datum = grant.datum
        leased = grant.term > 0
        if leased:
            expires = safe_local_expiry(
                req.sent_local, grant.term, self.config.epsilon, self.config.drift_bound
            )
            self.leases.add(datum, expires, grant.cover, req.sent_local)
        if grant.payload is not None:
            self.cache.put(
                datum, grant.version, grant.payload,
                lease_req=req.req_id if leased else None,
            )
        op_ids = req.waiters.get(datum, [])
        entry = self.cache.peek(datum)
        if entry is not None and entry.valid:
            return [
                self._complete_read(op_id, entry.version, entry.payload)
                for op_id in op_ids
            ]
        if op_ids:
            return self._refetch(datum, op_ids, now)
        return []

    def _on_write_reply(self, msg: WriteReply, now: float) -> list[Effect]:
        if not hasattr(getattr(self._requests.get(msg.req_id), "message", None), "content"):
            # A WriteReply that does not answer one of our write-type
            # requests is a peer protocol violation; drop it without
            # touching the (unrelated) request it tried to impersonate.
            return []
        req = self._close_request(msg.req_id)
        effects: list[Effect] = [CancelTimer(f"rpc:{msg.req_id}")]
        op_ids = req.waiters.get(msg.datum, [])
        if msg.error is not None:
            if msg.error.startswith("cas mismatch"):
                self.metrics.cas_conflicts += 1
            effects.extend(self._fail_ops(op_ids, msg.error))
            return effects
        if self._newer_write_in_flight(msg.datum, req.message.write_seq):
            # A later write of ours on this datum is still outstanding, so
            # these bytes are already superseded at the server (writes
            # serialize per datum).  Caching them would let a valid lease
            # serve the old version as a local hit once the newer write
            # commits — await that write instead; its reply (or a refetch)
            # will repopulate the cache.
            self.cache.invalidate(
                msg.datum, stamp=self._next_req, expected=msg.version + 1
            )
        else:
            # Writes and write-back flushes both carry the committed bytes.
            # A WriteReply grants no lease, so only the version clauses of
            # the admission rule apply: an approval that overtook it wins.
            self.cache.put(msg.datum, msg.version, req.message.content)
        for op_id in op_ids:
            op = self._ops.pop(op_id, None)
            if op is not None:
                effects.append(Complete(op_id, ok=True, value=msg.version))
        return effects

    def _on_ns_reply(self, msg: NamespaceReply, now: float) -> list[Effect]:
        req = self._close_request(msg.req_id)
        if req is None:
            return []
        effects: list[Effect] = [CancelTimer(f"rpc:{msg.req_id}")]
        op_ids = req.waiters.get(None, [])  # type: ignore[arg-type]
        if msg.error is not None:
            effects.extend(self._fail_ops(op_ids, msg.error))
            return effects
        for op_id in op_ids:
            op = self._ops.pop(op_id, None)
            if op is not None:
                effects.append(Complete(op_id, ok=True, value=msg.result))
        return effects

    def _on_approval_request(self, msg: ApprovalRequest, now: float) -> list[Effect]:
        """Grant approval for another client's write (§2): invalidate the
        local copy, keep the lease, reply immediately."""
        self.cache.invalidate(
            msg.datum, stamp=self._next_req, expected=msg.new_version
        )
        self.metrics.approvals_granted += 1
        return self._outbound(ApprovalReply(msg.datum, msg.write_id))

    def _on_batch_reply(self, msg: BatchReply, now: float) -> list[Effect]:
        """Unpack a batched reply frame and dispatch each inner reply.

        Inner replies carry their own req_ids, so they route exactly as
        if they had arrived individually.  Nested batches are a protocol
        violation (the codec rejects them on the wire; an in-process peer
        could still construct one) and are skipped.
        """
        effects: list[Effect] = []
        for inner in msg.replies:
            if isinstance(inner, (BatchRequest, BatchReply)):
                continue
            handler = self._dispatch.get(type(inner))
            if handler is not None:
                effects.extend(handler(inner, now))
        return effects

    def _on_announce(self, msg: InstalledAnnounce, now: float) -> list[Effect]:
        """Refresh cover leases from a multicast announcement.

        Announcements are unsolicited, so there is no request send time to
        anchor the duration on; the configured delivery-delay bound is
        subtracted instead (see DESIGN.md §6).
        """
        term = max(0.0, msg.term - self.config.announce_delay_bound)
        for cover in msg.covers:
            expires = safe_local_expiry(
                now, term, self.config.epsilon, self.config.drift_bound
            )
            self.leases.extend_cover(cover, expires)
        return []

    # -- replica failover ---------------------------------------------------------------

    #: Immediate NotMaster-triggered resends per transmission before the
    #: request falls back to timeout pacing.
    _MAX_REDIRECT_RESENDS = 4

    def _on_not_master(self, msg: NotMaster, now: float) -> list[Effect]:
        """A replica we contacted is not the master: retarget and resend.

        A useful hint (a replica in our group that is not the current
        target) is followed with an immediate resend — failover costs one
        round trip, not a timeout.  No hint (election in progress), a
        stale self-referential hint, or too many immediate resends in a
        row just rotate the target and leave the retransmission to the
        request's rpc timer, so confused replicas can never drive an
        unbounded redirect storm.
        """
        req = self._requests.get(msg.req_id)
        if req is None:
            return []  # late redirect for a request already answered
        self.metrics.redirects += 1
        hint = msg.master
        useful = hint != "" and hint != self.server and hint in self.servers
        if useful:
            self.server = hint
        else:
            self._rotate_server()
        if not useful or req.redirects >= self._MAX_REDIRECT_RESENDS:
            return []  # rpc timer will retransmit to the new target
        req.redirects += 1
        return [*self._outbound(req.message), SetTimer(f"rpc:{msg.req_id}", req.delay)]

    def _rotate_server(self) -> None:
        if len(self.servers) <= 1:
            return
        try:
            idx = self.servers.index(self.server)
        except ValueError:
            idx = -1
        self.server = self.servers[(idx + 1) % len(self.servers)]

    # -- timers ---------------------------------------------------------------------------

    def _on_rpc_timeout(self, req_id: int, now: float) -> list[Effect]:
        """Retransmit, or fail the request.

        Against a single server every wait is the request's timeout: a
        live server holds a write silently for up to a lease term.
        Against a replica group silence is ambiguous (a holding master,
        or a dead one that sends nothing), so transmission *k* waits
        ``min(timeout, rpc_timeout * 2**k)``: a dead master is found
        within ``rpc_timeout``, and a holding one is not abandoned every
        ``rpc_timeout`` for a follower that redirects straight back.  A
        ``NotMaster`` resend re-arms the current wait; only a firing
        doubles it.  The request fails on the firing that takes its fired
        waits past ``max_retries`` timeouts — exactly ``max_retries``
        retransmissions against a single server.
        """
        req = self._requests.get(req_id)
        if req is None:
            return []
        req.retries += 1
        req.waited += req.delay / req.timeout
        if req.waited > self.config.max_retries:
            self._close_request(req_id)
            all_ops = [op for ops in req.waiters.values() for op in ops]
            self.metrics.failures += 1
            if self.obs.active:
                self.obs.emit(
                    RPC_FAIL, now, self.name, req_id=req_id, retries=req.retries - 1
                )
            return self._fail_ops(all_ops, "request timed out")
        self.metrics.retransmissions += 1
        if self.obs.active:
            self.obs.emit(
                RETRANSMIT, now, self.name, req_id=req_id, retries=req.retries
            )
        if len(self.servers) > 1:
            # The current target may be dead (a SIGKILLed master answers
            # nothing, not even NotMaster): try the next replica.
            self._rotate_server()
            req.redirects = 0
        req.delay = min(req.timeout, 2 * req.delay)
        return [*self._outbound(req.message), SetTimer(f"rpc:{req_id}", req.delay)]

    def _on_anticipate(self, now: float) -> list[Effect]:
        """Anticipatory extension (§4): renew soon-to-expire leases so
        reads never pay the extension delay — at the cost of extra load.

        One lease inside the margin triggers the request; what rides along
        is the same refresh set a miss would send, not every holding.
        """
        effects: list[Effect] = [
            SetTimer("anticipate", self.config.anticipate_margin / 2)
        ]
        deadline = now + self.config.anticipate_margin
        expiring = [
            d
            for d in self.leases.expiring_before(deadline)
            if d not in self._datum_req and self.leases.expires_at(d) is not None
        ]
        if expiring:
            effects.extend(self._send_extend(expiring[0], None, now))
        return effects

    # -- helpers ----------------------------------------------------------------------------

    def _newer_write_in_flight(self, datum: DatumId, write_seq: int) -> bool:
        """True when a write of ours on ``datum`` newer than ``write_seq``
        is still outstanding.

        Writes serialize per datum at the server, so a reply to the older
        write carries bytes the newer one has provably superseded (or is
        about to).  Note the asymmetry with read/extend replies: those may
        carry a version *newer* than an outstanding write's commit, so
        they must stay cacheable — ``FileCache.put`` refusing downgrades
        handles their ordering.
        """
        seqs = self._own_writes.get(datum)
        return seqs is not None and seqs[-1] > write_seq

    def _refetch(self, datum: DatumId, op_ids: list[int], now: float) -> list[Effect]:
        effects = self._send_read(datum, None, now)
        req_id = self._datum_req[datum]
        self._requests[req_id].waiters.setdefault(datum, []).extend(op_ids)
        return effects

    def _complete_read(self, op_id: int, version: int, payload: object) -> Complete:
        self._ops.pop(op_id, None)
        return Complete(op_id, ok=True, value=(version, payload))

    def _fail_ops(self, op_ids: list[int], error: str) -> list[Effect]:
        effects: list[Effect] = []
        for op_id in op_ids:
            op = self._ops.pop(op_id, None)
            if op is not None:
                effects.append(Complete(op_id, ok=False, error=error))
        return effects

    def _close_request(self, req_id: int) -> _ReqCtx | None:
        req = self._requests.pop(req_id, None)
        if req is None:
            return None
        for datum in req.waiters:
            if datum is not None and self._datum_req.get(datum) == req_id:
                del self._datum_req[datum]
        message = req.message
        if hasattr(message, "content"):
            seqs = self._own_writes[message.datum]
            seqs.remove(message.write_seq)
            if not seqs:
                del self._own_writes[message.datum]
        return req

    def _take_req_id(self) -> int:
        req_id = self._next_req
        self._next_req += 1
        return req_id

    def _take_op_id(self) -> int:
        op_id = self._next_op
        self._next_op += 1
        return op_id

    def _new_op(self, kind: str, datum: DatumId | None, now: float) -> _OpCtx:
        """Enter an operation that has to wait into ``_ops``; one finished
        on the spot takes only its id (:meth:`_take_op_id`)."""
        op = _OpCtx(op_id=self._take_op_id(), kind=kind, datum=datum, submitted_local=now)
        self._ops[op.op_id] = op
        return op

    # -- introspection ---------------------------------------------------------------------

    def outstanding_requests(self) -> int:
        """Number of RPCs currently awaiting a reply."""
        return len(self._requests)

    def pipeline_stats(self) -> tuple[int, int]:
        """(batched frames sent, ops shipped inside them); (0, 0) unbatched."""
        if self._pipeline is None:
            return (0, 0)
        return (self._pipeline.batches_sent, self._pipeline.ops_batched)
