"""The server-side protocol engine (sans-io).

Responsibilities (paper §2, §4, §5):

* grant and extend leases according to a term policy, refusing (deferring)
  while a write is pending on the datum — the write-starvation guard;
* collect leaseholder approvals (or wait out expiry) before committing a
  write; the writer's own approval is implicit in its request;
* serialize writes per datum, and defer reads/extensions that arrive while
  a write is pending so no client caches data that is about to change;
* run the installed-files optimization: periodic multicast extension of
  cover leases with delayed update on write and no per-client record;
* support namespace mutations as writes to directory datums;
* recover from a crash by delaying all writes for the maximum term it may
  have granted before crashing.

The engine performs no I/O and never reads a clock: every entry point takes
``now`` (this host's local clock) and returns a list of effects.
"""

from __future__ import annotations

from collections import OrderedDict, deque
from typing import Callable
from dataclasses import dataclass, field
from repro.errors import ReproError
from repro.lease.installed import InstalledFileManager
from repro.lease.policy import TermPolicy
from repro.lease.stats import DatumStats
from repro.lease.table import LeaseTable, PendingWrite
from repro.obs.bus import NULL_BUS
from repro.obs.events import (
    APPROVAL_REPLY,
    APPROVAL_REQUEST,
    RECOVERY_BEGIN,
    RECOVERY_END,
    RECOVERY_HOLD,
    WRITE_CAS_REJECT,
    WRITE_COMMIT,
    WRITE_DEFER,
)
from repro.protocol.effects import Broadcast, Effect, Send, SetTimer
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
    ReadReply,
    ReadRequest,
    RelinquishRequest,
    WriteReply,
    WriteRequest,
)
from repro.storage.store import FileStore
from repro.types import DatumId, DatumKind, FileClass, HostId


@dataclass(frozen=True)
class ServerConfig:
    """Server tuning knobs.

    Attributes:
        epsilon: clock-uncertainty allowance (must match the clients').
        announce_period: seconds between installed-cover multicasts.
        announce_grace: extra delay added to installed delayed updates to
            cover announce delivery/queueing slack (see DESIGN.md §6).
        recovery_delay: how long to defer writes after a restart — a
            recovering server passes the pre-crash ``max_term_granted``.
        sweep_period: how often expired lease records are reclaimed.
    """

    epsilon: float = 0.1
    announce_period: float = 5.0
    announce_grace: float = 0.05
    recovery_delay: float = 0.0
    sweep_period: float = 30.0


@dataclass
class _FileWriteCtx:
    """Bookkeeping for one in-flight file write."""

    src: HostId
    req_id: int
    datum: DatumId
    content: bytes
    write_seq: int
    pending: PendingWrite
    sharing_at_begin: int = 1
    cas: int | None = None


#: Sentinel "writer" for namespace mutations: never matches a client id,
#: so every live leaseholder of the directory — including the submitter —
#: is awaited for approval.
_NS_WRITER: HostId = "\x00namespace"


@dataclass
class _NsWriteCtx:
    """Bookkeeping for one in-flight namespace mutation."""

    src: HostId
    req_id: int
    op: str
    args: tuple
    write_seq: int
    datums: tuple[DatumId, ...] = ()
    pendings: dict[DatumId, PendingWrite] = field(default_factory=dict)
    active: bool = False

    def ready(self, now: float) -> bool:
        return all(p.ready(now) for p in self.pendings.values())


@dataclass
class _InstalledWriteCtx:
    """A delayed update of an installed file, waiting for cover expiry."""

    src: HostId
    req_id: int
    datum: DatumId
    content: bytes
    write_seq: int
    cas: int | None = None


class ServerEngine:
    """The file server's protocol state machine."""

    def __init__(
        self,
        name: HostId,
        store: FileStore,
        policy: TermPolicy,
        config: ServerConfig | None = None,
        installed: InstalledFileManager | None = None,
        now: float = 0.0,
        obs=None,
    ):
        self.name = name
        self.store = store
        self.policy = policy
        self.config = config or ServerConfig()
        self.installed = installed
        #: Trace bus for ``write.*``/``recovery.*`` events; shared with the
        #: lease table (``lease.*``).  NULL_BUS when tracing is off.
        self.obs = obs or NULL_BUS
        self.table = LeaseTable(obs=self.obs, owner=name)
        self.stats: dict[DatumId, DatumStats] = {}
        self.known_clients: set[HostId] = set()
        self._recovering_until = now + self.config.recovery_delay
        #: Last authoritative answer to "is the recovery window open?";
        #: refreshed by every ``now``-bearing check (see ``recovering``).
        self._recovery_open = self._recovering_until > now
        #: Reads/extend-items deferred behind a pending write, per datum.
        self._deferred: dict[DatumId, list[tuple[Message, HostId]]] = {}
        #: Writes deferred by crash recovery.
        self._recovery_queue: list[tuple[Message, HostId]] = []
        self._write_ctx: dict[int, _FileWriteCtx] = {}
        self._ns_queue: deque[_NsWriteCtx] = deque()
        self._installed_writes: dict[int, _InstalledWriteCtx] = {}
        #: Writes held behind a coverage-demotion barrier (§7).
        self._demotion_holds: dict[int, tuple[Message, HostId]] = {}
        self._next_installed_id = 1
        self._next_ns_id = 1
        self._ns_by_id: dict[int, _NsWriteCtx] = {}
        self._announce_seq = 0
        #: per-client write_seq -> committed result, for exactly-once
        #: writes; bounded per client (retransmission windows are short,
        #: and an unbounded map would leak on a long-lived server).
        self._write_dedup: dict[HostId, OrderedDict[int, tuple[int, str | None]]] = {}
        self._dedup_window = 256
        #: (src, write_seq) currently in flight (retransmissions ignored).
        self._inflight: set[tuple[HostId, int]] = set()
        #: Exact-type message dispatch.  Bound at init so subclass handler
        #: overrides win; message classes are final, so ``type(msg)`` lookup
        #: matches the isinstance chain it replaces.
        self._dispatch: dict[type, Callable] = {
            ReadRequest: self._handle_read,
            ExtendRequest: self._handle_extend,
            WriteRequest: self._handle_write,
            NamespaceRequest: self._handle_namespace,
            ApprovalReply: self._handle_approval,
            RelinquishRequest: self._handle_relinquish,
            BatchRequest: self._handle_batch,
        }

    # -- lifecycle -------------------------------------------------------------

    def startup_effects(self, now: float) -> list[Effect]:
        """Effects to execute when the server comes up: arm housekeeping
        timers and (when recovering) the end-of-recovery timer."""
        effects: list[Effect] = [SetTimer("sweep", self.config.sweep_period)]
        if self.installed is not None:
            effects.extend(self._announce(now))
        if self._recovering_until > now:
            if self.obs.active:
                self.obs.emit(
                    RECOVERY_BEGIN, now, self.name, until=self._recovering_until
                )
            effects.append(SetTimer("recovery", self._recovering_until - now))
        return effects

    def crash(self) -> float:
        """Drop the lease table and return the §2 crash rule's bound.

        The largest term a lease of this incarnation may still run for —
        over the table's grants and the installed-file cover term — is the
        one datum a server must keep across a crash: the next incarnation
        takes it as ``recovery_delay`` and commits nothing before it has
        passed.  Computed here, once, for every driver that restarts us.
        """
        bound = self.table.clear()
        if self.installed is not None:
            bound = max(bound, self.installed.term)
        return bound

    @property
    def recovering(self) -> bool:
        """True while post-crash write delay is in force.

        Time-insensitive view reflecting the last authoritative check (the
        authoritative checks take ``now`` and go through
        :meth:`_in_recovery`); also True while recovery-deferred writes
        are still queued for replay.
        """
        return self._recovery_open or bool(self._recovery_queue)

    def _in_recovery(self, now: float) -> bool:
        """Authoritative recovery-window check; records the answer.

        The first check past the window flips the cached state used by
        :attr:`recovering` and emits the ``recovery.end`` trace event —
        previously the property reported True forever once
        ``recovery_delay`` was configured, long after the window passed.
        """
        open_ = now < self._recovering_until
        if self._recovery_open and not open_:
            self._recovery_open = False
            if self.obs.active:
                self.obs.emit(
                    RECOVERY_END, now, self.name, queued=len(self._recovery_queue)
                )
        return open_

    # -- dispatch -------------------------------------------------------------

    def handle_message(self, msg: Message, src: HostId, now: float) -> list[Effect]:
        """Process one inbound message; returns the effects to execute."""
        self.known_clients.add(src)
        handler = self._dispatch.get(type(msg))
        if handler is None:
            raise ReproError(f"server got unexpected message {type(msg).__name__}")
        return handler(msg, src, now)

    def handle_timer(self, key: str, now: float) -> list[Effect]:
        """Process a timer firing; returns the effects to execute."""
        if key == "sweep":
            self.table.expire_sweep(now)
            return [SetTimer("sweep", self.config.sweep_period)]
        if key == "announce":
            return self._announce(now)
        if key == "recovery":
            if self._in_recovery(now):
                # The clock stepped backward while the timer was armed, so
                # it fired with the window still open locally.  Re-arm for
                # the remainder — replaying now would re-queue every write
                # with no timer left to ever release them.
                return [SetTimer("recovery", self._recovering_until - now)]
            queued, self._recovery_queue = self._recovery_queue, []
            effects: list[Effect] = []
            for msg, src in queued:
                # The write was marked in flight when queued (so that
                # retransmissions during recovery are swallowed); unmark it
                # so the replay is not swallowed by its own dedup entry.
                self._inflight.discard((src, msg.write_seq))
                effects.extend(self.handle_message(msg, src, now))
            return effects
        if key.startswith("write:"):
            return self._on_write_deadline(int(key.split(":", 1)[1]), now)
        if key.startswith("nswrite:"):
            return self._on_ns_deadline(int(key.split(":", 1)[1]), now)
        if key.startswith("iwrite:"):
            return self._on_installed_ready(int(key.split(":", 1)[1]), now)
        if key.startswith("dmwrite:"):
            msg, src = self._demotion_holds.pop(int(key.split(":", 1)[1]))
            self._inflight.discard((src, msg.write_seq))
            return self.handle_message(msg, src, now)
        raise ReproError(f"server got unexpected timer {key!r}")

    # -- reads ------------------------------------------------------------------

    def _handle_read(self, msg: ReadRequest, src: HostId, now: float) -> list[Effect]:
        datum = msg.datum
        if not self.store.datum_exists(datum):
            return [Send(src, ReadReply(msg.req_id, datum, error="no such datum"))]
        if self._write_blocked(datum):
            self._deferred.setdefault(datum, []).append((msg, src))
            if self.obs.active:
                self.obs.emit(
                    WRITE_DEFER, now, self.name,
                    datum=str(datum), src=src, reason="write_pending",
                )
            return []
        version, payload = self.store.read_datum(datum)
        self._stats_of(datum).record_read(now)
        term, cover = self._grant(datum, src, now)
        return [
            Send(
                src,
                ReadReply(
                    msg.req_id,
                    datum,
                    version=version,
                    payload=None if msg.cached_version == version else payload,
                    term=term,
                    cover=cover,
                ),
            )
        ]

    def _handle_extend(self, msg: ExtendRequest, src: HostId, now: float) -> list[Effect]:
        grants: list[ExtendGrant] = []
        denied: list[DatumId] = []
        for datum, cached_version in msg.items:
            if not self.store.datum_exists(datum) or self._write_blocked(datum):
                denied.append(datum)
                continue
            term, cover = self._grant(datum, src, now)
            if term <= 0:
                denied.append(datum)
                continue
            # Extensions are the server's only ongoing visibility into a
            # leased datum's popularity; count them as read activity for
            # the adaptive policies (§4, §7).
            self._stats_of(datum).record_read(now)
            version, payload = self.store.read_datum(datum)
            changed = cached_version != version
            grants.append(
                ExtendGrant(
                    datum,
                    term,
                    version,
                    payload=payload if changed else None,
                    changed=changed,
                    cover=cover,
                )
            )
        return [Send(src, ExtendReply(msg.req_id, tuple(grants), tuple(denied)))]

    def _grant(self, datum: DatumId, src: HostId, now: float) -> tuple[float, str | None]:
        """Grant a lease; returns (term, cover id or None).

        Covered (installed) datums get the remaining validity of the
        cover's last announcement and **no per-client record** — the whole
        point of the optimization.  Everything else goes through the policy
        and the lease table.
        """
        if self.installed is not None:
            cover = self.installed.cover_of(datum)
            if cover is not None:
                expiry = self.installed._announced_expiry.get(cover)
                term = max(0.0, expiry - now) if expiry is not None else 0.0
                return term, cover
        file_class = self._class_of(datum)
        term = self.policy.term(
            datum, src, now, stats=self.stats.get(datum), file_class=file_class
        )
        if term > 0:
            self.table.grant(datum, src, now, term)
        return term, None

    # -- file writes --------------------------------------------------------------

    def _handle_write(self, msg: WriteRequest, src: HostId, now: float) -> list[Effect]:
        dedup = self._check_dedup(src, msg)
        if dedup is not None:
            return dedup
        datum = msg.datum
        if datum.kind is not DatumKind.FILE:
            return [
                Send(src, WriteReply(msg.req_id, datum, error="not a file datum"))
            ]
        if not self.store.datum_exists(datum):
            return [Send(src, WriteReply(msg.req_id, datum, error="no such datum"))]
        rejected = self._cas_reject(msg.cas, datum, src, msg.req_id, msg.write_seq, now)
        if rejected is not None:
            return rejected
        self._inflight.add((src, msg.write_seq))
        if self._in_recovery(now):
            self._recovery_queue.append((msg, src))
            if self.obs.active:
                self.obs.emit(
                    RECOVERY_HOLD, now, self.name, src=src, write_seq=msg.write_seq
                )
            return []
        if self.installed is not None:
            if self.installed.cover_of(datum) is not None:
                return self._begin_installed_write(msg, src, now)
            barrier = self.installed.demotion_barrier(datum)
            if barrier > now:
                # Recently demoted (§7): old cover announcements may still
                # be honored at some client; wait them out, then proceed
                # as a normal write.
                hold_id = self._next_installed_id
                self._next_installed_id += 1
                self._demotion_holds[hold_id] = (msg, src)
                if self.obs.active:
                    self.obs.emit(
                        WRITE_DEFER, now, self.name,
                        datum=str(datum), src=src, reason="demotion_barrier",
                    )
                return [SetTimer(f"dmwrite:{hold_id}", barrier - now)]
        return self._begin_file_write(msg, src, now)

    def _begin_file_write(self, msg: WriteRequest, src: HostId, now: float) -> list[Effect]:
        pending = self.table.begin_write(msg.datum, src, now)
        ctx = _FileWriteCtx(
            src=src,
            req_id=msg.req_id,
            datum=msg.datum,
            content=msg.content,
            write_seq=msg.write_seq,
            pending=pending,
            sharing_at_begin=len(pending.awaiting) + 1,
            cas=msg.cas,
        )
        self._write_ctx[pending.write_id] = ctx
        if self.table.head_write(msg.datum) is pending:
            return self._activate_file_write(ctx, now)
        return []  # queued behind an earlier write on the same datum

    def _activate_file_write(self, ctx: _FileWriteCtx, now: float) -> list[Effect]:
        """The write reached the head of its datum's queue: ask approvals
        or commit immediately."""
        if ctx.cas is not None and self.store.version_of(ctx.datum) != ctx.cas:
            # An earlier queued write committed first: this writer's basis
            # version is gone, so reject rather than clobber (the CAS
            # contract).  Checked at activation — once a file write is at
            # the head of its queue nothing else can commit to the datum,
            # so the predicate cannot change before our own commit.
            return self._reject_file_write(ctx, now)
        pending = ctx.pending
        if pending.ready(now):
            return self._commit_file_write(ctx, now)
        new_version = self.store.version_of(ctx.datum) + 1
        request = ApprovalRequest(ctx.datum, pending.write_id, new_version)
        if self.obs.active:
            self.obs.emit(
                APPROVAL_REQUEST, now, self.name,
                datum=str(ctx.datum), write_id=pending.write_id,
                awaiting=len(pending.awaiting),
            )
        effects: list[Effect] = [Broadcast(tuple(sorted(pending.awaiting)), request)]
        if pending.deadline != float("inf"):
            effects.append(
                SetTimer(f"write:{pending.write_id}", max(0.0, pending.deadline - now))
            )
        return effects

    def _commit_file_write(self, ctx: _FileWriteCtx, now: float) -> list[Effect]:
        version = self.store.commit_file_write(ctx.datum, ctx.content, now)
        if self.obs.active:
            self.obs.emit(
                WRITE_COMMIT, now, self.name,
                datum=str(ctx.datum), writer=ctx.src, version=version,
            )
        self._stats_of(ctx.datum).record_write(now, ctx.sharing_at_begin)
        self._record_commit(ctx.src, ctx.write_seq, version, None)
        self.table.finish_write(ctx.datum, ctx.pending.write_id)
        del self._write_ctx[ctx.pending.write_id]
        effects: list[Effect] = [
            Send(ctx.src, WriteReply(ctx.req_id, ctx.datum, version=version))
        ]
        effects.extend(self._after_write_drains(ctx.datum, now))
        return effects

    def _cas_reject(
        self,
        cas: int | None,
        datum: DatumId,
        src: HostId,
        req_id: int,
        write_seq: int,
        now: float,
    ) -> list[Effect] | None:
        """Reject a stale CAS write; None when the write may proceed.

        The rejection is recorded in the dedup window so retransmissions
        get the identical answer even if the datum's version later happens
        to equal the (bogus) expected one.
        """
        if cas is None:
            return None
        version = self.store.version_of(datum)
        if version == cas:
            return None
        error = f"cas mismatch: expected {cas}, datum at {version}"
        if self.obs.active:
            self.obs.emit(
                WRITE_CAS_REJECT, now, self.name,
                datum=str(datum), writer=src, expected=cas, found=version,
            )
        self._record_commit(src, write_seq, version, error)
        return [Send(src, WriteReply(req_id, datum, version=version, error=error))]

    def _reject_file_write(self, ctx: _FileWriteCtx, now: float) -> list[Effect]:
        """Tear down a queued write whose CAS guard failed at activation."""
        effects = self._cas_reject(
            ctx.cas, ctx.datum, ctx.src, ctx.req_id, ctx.write_seq, now
        )
        assert effects is not None
        self.table.finish_write(ctx.datum, ctx.pending.write_id)
        del self._write_ctx[ctx.pending.write_id]
        effects.extend(self._after_write_drains(ctx.datum, now))
        return effects

    def _on_write_deadline(self, write_id: int, now: float) -> list[Effect]:
        ctx = self._write_ctx.get(write_id)
        if ctx is None:
            return []  # already committed via approvals
        if self.table.head_write(ctx.datum) is not ctx.pending:
            return []  # stale timer; activation re-arms when it's our turn
        if ctx.pending.ready(now):
            return self._commit_file_write(ctx, now)
        if ctx.pending.deadline != float("inf"):
            # Fired before the local deadline: the clock stepped backward
            # (or its drift changed) while the timer was armed.  Re-arm
            # for the remainder — dropping the wait would wedge every
            # write and deferred read on this datum forever.
            return [
                SetTimer(f"write:{write_id}", max(0.0, ctx.pending.deadline - now))
            ]
        return []

    def _handle_approval(self, msg: ApprovalReply, src: HostId, now: float) -> list[Effect]:
        pending = self.table.approve(msg.datum, src, msg.write_id)
        if pending is None:
            return []
        if self.obs.active:
            self.obs.emit(
                APPROVAL_REPLY, now, self.name,
                datum=str(msg.datum), write_id=msg.write_id, holder=src,
            )
        if not pending.ready(now):
            return []
        return self._try_commit_head(msg.datum, now)

    def _handle_relinquish(
        self, msg: RelinquishRequest, src: HostId, now: float
    ) -> list[Effect]:
        """Drop the client's leases; any write they were blocking may now
        proceed (§4: relinquishing is a client option, and it is what lets
        a well-behaved cache shrink without waiting out terms)."""
        effects: list[Effect] = []
        for datum in msg.datums:
            self.table.release(datum, src, now)
            committed = self._try_commit_head(datum, now)
            effects.extend(committed)
            if not committed:
                # The departure may have pulled the expiry deadline in;
                # re-arm the pending write's timer to the new deadline.
                effects.extend(self._rearm_write_timer(datum, now))
        return effects

    def _handle_batch(self, msg: BatchRequest, src: HostId, now: float) -> list[Effect]:
        """Process one pipelined frame (see :mod:`repro.protocol.pipeline`).

        Each inner op runs through its normal handler; every immediate
        reply to the sender is coalesced into a single
        :class:`BatchReply`, while all other effects — approval
        broadcasts, timers, sends to other clients triggered by e.g. a
        deferred-read flush — pass through unchanged.  Ops the handlers
        defer (write pending, recovery) reply later as ordinary unbatched
        messages.  Nested batches and unknown members are protocol
        violations and are skipped.
        """
        passthrough: list[Effect] = []
        replies: list[Message] = []
        for op in msg.ops:
            if isinstance(op, (BatchRequest, BatchReply)):
                continue
            handler = self._dispatch.get(type(op))
            if handler is None:
                continue
            for effect in handler(op, src, now):
                if isinstance(effect, Send) and effect.dst == src:
                    replies.append(effect.message)
                else:
                    passthrough.append(effect)
        if replies:
            passthrough.append(Send(src, BatchReply(msg.batch_id, tuple(replies))))
        return passthrough

    def _rearm_write_timer(self, datum: DatumId, now: float) -> list[Effect]:
        """Refresh the expiry timer of a datum's head write (if any)."""
        pending = self.table.head_write(datum)
        if pending is None or not pending.awaiting or pending.deadline == float("inf"):
            return []
        delay = max(0.0, pending.deadline - now)
        if pending.write_id in self._write_ctx:
            return [SetTimer(f"write:{pending.write_id}", delay)]
        ns_ctx = self._ns_by_write_id(pending.write_id)
        if ns_ctx is not None:
            ns_id = next((i for i, c in self._ns_by_id.items() if c is ns_ctx), None)
            if ns_id is not None:
                return [SetTimer(f"nswrite:{ns_id}", delay)]
        return []

    def _try_commit_head(self, datum: DatumId, now: float) -> list[Effect]:
        """Commit the datum's head write if it just became ready."""
        pending = self.table.head_write(datum)
        if pending is None or not pending.ready(now):
            return []
        file_ctx = self._write_ctx.get(pending.write_id)
        if file_ctx is not None:
            return self._commit_file_write(file_ctx, now)
        ns_ctx = self._ns_by_write_id(pending.write_id)
        if ns_ctx is not None and ns_ctx.ready(now):
            return self._commit_namespace(ns_ctx, now)
        return []

    # -- installed-file writes (delayed update, §4) ----------------------------------

    def _begin_installed_write(
        self, msg: WriteRequest, src: HostId, now: float
    ) -> list[Effect]:
        ready_at = self.installed.begin_write(msg.datum, now) + self.config.announce_grace
        # A datum promoted into a cover (§7 adaptive coverage) may still
        # have per-client leases from before the promotion; honor them.
        ready_at = max(ready_at, self.table.max_expiry_of(msg.datum, now))
        ctx = _InstalledWriteCtx(
            src=src,
            req_id=msg.req_id,
            datum=msg.datum,
            content=msg.content,
            write_seq=msg.write_seq,
            cas=msg.cas,
        )
        iwrite_id = self._next_installed_id
        self._next_installed_id += 1
        self._installed_writes[iwrite_id] = ctx
        if ready_at <= now:
            return self._on_installed_ready(iwrite_id, now)
        return [SetTimer(f"iwrite:{iwrite_id}", ready_at - now)]

    def _on_installed_ready(self, iwrite_id: int, now: float) -> list[Effect]:
        ctx = self._installed_writes.pop(iwrite_id)
        rejected = self._cas_reject(
            ctx.cas, ctx.datum, ctx.src, ctx.req_id, ctx.write_seq, now
        )
        if rejected is not None:
            # Another delayed update committed during the cover wait.
            self.installed.finish_write(ctx.datum)
            rejected.extend(self._flush_deferred(ctx.datum, now))
            return rejected
        version = self.store.commit_file_write(ctx.datum, ctx.content, now)
        if self.obs.active:
            self.obs.emit(
                WRITE_COMMIT, now, self.name,
                datum=str(ctx.datum), writer=ctx.src, version=version,
            )
        self.installed.finish_write(ctx.datum)
        self._stats_of(ctx.datum).record_write(now, 1)
        self._record_commit(ctx.src, ctx.write_seq, version, None)
        effects: list[Effect] = [
            Send(ctx.src, WriteReply(ctx.req_id, ctx.datum, version=version))
        ]
        effects.extend(self._flush_deferred(ctx.datum, now))
        return effects

    def _announce(self, now: float) -> list[Effect]:
        covers, term = self.installed.announcement(now)
        self._announce_seq += 1
        effects: list[Effect] = [SetTimer("announce", self.config.announce_period)]
        recipients = tuple(sorted(self.known_clients))
        if covers and recipients:
            effects.append(
                Broadcast(
                    recipients,
                    InstalledAnnounce(tuple(covers), term, seq=self._announce_seq),
                )
            )
        return effects

    # -- namespace writes -------------------------------------------------------------

    def _handle_namespace(
        self, msg: NamespaceRequest, src: HostId, now: float
    ) -> list[Effect]:
        dedup = self._check_dedup(src, msg)
        if dedup is not None:
            return dedup
        if self._in_recovery(now):
            self._inflight.add((src, msg.write_seq))
            self._recovery_queue.append((msg, src))
            if self.obs.active:
                self.obs.emit(
                    RECOVERY_HOLD, now, self.name, src=src, write_seq=msg.write_seq
                )
            return []
        try:
            datums = self._namespace_targets(msg)
        except ReproError as exc:
            return [Send(src, NamespaceReply(msg.req_id, msg.op, error=str(exc)))]
        self._inflight.add((src, msg.write_seq))
        ctx = _NsWriteCtx(
            src=src,
            req_id=msg.req_id,
            op=msg.op,
            args=msg.args,
            write_seq=msg.write_seq,
            datums=datums,
        )
        ns_id = self._next_ns_id
        self._next_ns_id += 1
        self._ns_by_id[ns_id] = ctx
        self._ns_queue.append(ctx)
        if self._ns_queue[0] is ctx:
            return self._activate_namespace(ns_id, ctx, now)
        return []  # namespace ops serialize globally (no multi-queue deadlock)

    def _activate_namespace(self, ns_id: int, ctx: _NsWriteCtx, now: float) -> list[Effect]:
        ctx.active = True
        effects: list[Effect] = []
        deadline = now
        for datum in ctx.datums:
            # Unlike a file write, a namespace op grants NO implicit
            # self-approval: the submitter cannot reconstruct the new
            # directory payload from its request, so if it holds a lease on
            # the directory it must be called back like any other holder —
            # otherwise it would keep serving its own stale binding from
            # cache after the commit (found by the path-API tests).
            pending = self.table.begin_write(datum, _NS_WRITER, now)
            ctx.pendings[datum] = pending
            deadline = max(deadline, pending.deadline)
            if pending.awaiting:
                new_version = self.store.version_of(datum) + 1
                if self.obs.active:
                    self.obs.emit(
                        APPROVAL_REQUEST, now, self.name,
                        datum=str(datum), write_id=pending.write_id,
                        awaiting=len(pending.awaiting),
                    )
                effects.append(
                    Broadcast(
                        tuple(sorted(pending.awaiting)),
                        ApprovalRequest(datum, pending.write_id, new_version),
                    )
                )
        if ctx.ready(now):
            return self._commit_namespace(ctx, now)
        if deadline != float("inf"):
            effects.append(SetTimer(f"nswrite:{ns_id}", max(0.0, deadline - now)))
        return effects

    def _on_ns_deadline(self, ns_id: int, now: float) -> list[Effect]:
        ctx = self._ns_by_id.get(ns_id)
        if ctx is None or not ctx.active:
            return []
        if ctx.ready(now):
            return self._commit_namespace(ctx, now)
        deadline = max(p.deadline for p in ctx.pendings.values())
        if deadline != float("inf"):
            # Early firing (backward clock step while armed): re-arm, as
            # in _on_write_deadline.
            return [SetTimer(f"nswrite:{ns_id}", max(0.0, deadline - now))]
        return []

    def _commit_namespace(self, ctx: _NsWriteCtx, now: float) -> list[Effect]:
        error: str | None = None
        result: object = None
        ns = self.store.namespace
        try:
            if ctx.op == "mkdir":
                (path,) = ctx.args
                result = ns.mkdir(path)
            elif ctx.op == "bind":
                path, content, file_class_name = ctx.args
                record = self.store.create_file(
                    path, content, file_class=FileClass(file_class_name), now=now
                )
                result = record.file_id
            elif ctx.op == "unbind":
                (path,) = ctx.args
                self.store.unlink(path)
            elif ctx.op == "rename":
                old, new = ctx.args
                ns.rename(old, new)
            else:
                error = f"unknown namespace op {ctx.op!r}"
        except ReproError as exc:
            error = f"{type(exc).__name__}: {exc}"
        for datum, pending in ctx.pendings.items():
            self._stats_of(datum).record_write(now, len(pending.awaiting) + 1)
            self.table.finish_write(datum, pending.write_id)
            if self.obs.active:
                self.obs.emit(
                    WRITE_COMMIT, now, self.name,
                    datum=str(datum), writer=ctx.src,
                    version=self.store.version_of(datum),
                )
        self._record_commit(ctx.src, ctx.write_seq, 0, error)
        self._ns_queue.popleft()
        for ns_id, known in list(self._ns_by_id.items()):
            if known is ctx:
                del self._ns_by_id[ns_id]
        effects: list[Effect] = [
            Send(ctx.src, NamespaceReply(ctx.req_id, ctx.op, error=error, result=result))
        ]
        for datum in ctx.datums:
            effects.extend(self._after_write_drains(datum, now))
        if self._ns_queue:
            head = self._ns_queue[0]
            head_id = next(i for i, c in self._ns_by_id.items() if c is head)
            effects.extend(self._activate_namespace(head_id, head, now))
        return effects

    def _namespace_targets(self, msg: NamespaceRequest) -> tuple[DatumId, ...]:
        """The directory datums a namespace op writes (approval targets)."""
        ns = self.store.namespace
        if msg.op in ("mkdir", "bind", "unbind"):
            (path,) = msg.args[:1]
            return (DatumId.directory(ns.parent_dir_id(path)),)
        if msg.op == "rename":
            old, new = msg.args
            datums = {
                DatumId.directory(ns.parent_dir_id(old)),
                DatumId.directory(ns.parent_dir_id(new)),
            }
            return tuple(sorted(datums, key=str))
        raise ReproError(f"unknown namespace op {msg.op!r}")

    # -- shared helpers -------------------------------------------------------------

    def _write_blocked(self, datum: DatumId) -> bool:
        """True when reads/extends of ``datum`` must defer behind a write."""
        if self.table.write_pending(datum):
            return True
        if self.installed is not None and self.installed.write_pending(datum):
            return True
        if not self._ns_queue:
            return False
        return any(
            ctx.active and datum in ctx.pendings for ctx in self._ns_queue
        )

    def _after_write_drains(self, datum: DatumId, now: float) -> list[Effect]:
        """A write on ``datum`` finished: activate the next queued write,
        then (if none) replay the deferred reads."""
        effects: list[Effect] = []
        nxt = self.table.head_write(datum)
        if nxt is not None:
            ctx = self._write_ctx.get(nxt.write_id)
            if ctx is not None:
                effects.extend(self._activate_file_write(ctx, now))
            return effects
        effects.extend(self._flush_deferred(datum, now))
        return effects

    def _flush_deferred(self, datum: DatumId, now: float) -> list[Effect]:
        if self._write_blocked(datum):
            return []
        waiting = self._deferred.pop(datum, [])
        effects: list[Effect] = []
        for msg, src in waiting:
            effects.extend(self.handle_message(msg, src, now))
        return effects

    def _check_dedup(self, src: HostId, msg) -> list[Effect] | None:
        """Exactly-once writes: answer retransmissions of committed writes,
        swallow retransmissions of in-flight ones."""
        done = self._write_dedup.get(src, {}).get(msg.write_seq)
        if done is not None:
            version, error = done
            if isinstance(msg, NamespaceRequest):
                return [Send(src, NamespaceReply(msg.req_id, msg.op, error=error))]
            return [
                Send(src, WriteReply(msg.req_id, msg.datum, version=version, error=error))
            ]
        if (src, msg.write_seq) in self._inflight:
            return []
        return None

    def _record_commit(
        self, src: HostId, write_seq: int, version: int, error: str | None
    ) -> None:
        window = self._write_dedup.setdefault(src, OrderedDict())
        window[write_seq] = (version, error)
        while len(window) > self._dedup_window:
            window.popitem(last=False)
        self._inflight.discard((src, write_seq))

    def _stats_of(self, datum: DatumId) -> DatumStats:
        stats = self.stats.get(datum)
        if stats is None:
            stats = DatumStats()
            self.stats[datum] = stats
        return stats

    def _class_of(self, datum: DatumId) -> FileClass:
        if datum.kind is DatumKind.FILE:
            return self.store.file(datum.ident).file_class
        return FileClass.NORMAL

    def _ns_by_write_id(self, write_id: int) -> _NsWriteCtx | None:
        for ctx in self._ns_queue:
            for pending in ctx.pendings.values():
                if pending.write_id == write_id:
                    return ctx
        return None

    # -- introspection -----------------------------------------------------------------

    def lease_count(self) -> int:
        """Stored lease records (the paper's ~1 KB/client storage point)."""
        return self.table.lease_count()

    def status(self, now: float) -> dict:
        """Operational snapshot for monitoring and the CLI's stats line.

        The paper's storage argument (§2: "around one kilobyte per
        client") is observable here: ``lease_records`` stays small under
        short terms because expired records are reclaimed.
        """
        deferred = sum(len(waiting) for waiting in self._deferred.values())
        pending_writes = len(self._write_ctx) + len(self._installed_writes) + len(
            self._ns_queue
        )
        snapshot = {
            "now": now,
            "known_clients": len(self.known_clients),
            "lease_records": self.table.lease_count(),
            "pending_writes": pending_writes,
            "deferred_requests": deferred,
            "tracked_datums": len(self.stats),
            "dedup_entries": sum(len(w) for w in self._write_dedup.values()),
            "recovering": self._in_recovery(now),
            "files": self.store.file_count(),
        }
        if self.installed is not None:
            snapshot["covers"] = len(self.installed.covers())
        return snapshot
