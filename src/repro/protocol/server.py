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

Every wait on leases — a file write (ordinary, covered, recently
demoted), a namespace op, a write-lease acquisition or recall in
:mod:`repro.ext.writeback` — is one :class:`_Gate`: one dict, one timer
per gate (``write:<id>``), one function (``ServerEngine._look``) that
decides "proceed or re-arm" on every event that can change the answer.
The rule and why it is safe are in the ``_Gate`` docstring.  Recovery is
the exception: it holds requests outside the lease table and replays
them, so reads and new grants resume at once after a restart.

The engine performs no I/O and never reads a clock: every entry point takes
``now`` (this host's local clock) and returns a list of effects.
"""

from __future__ import annotations

from collections import OrderedDict, deque
from dataclasses import dataclass, replace
from math import inf
from typing import Callable
from repro.errors import ReproError
from repro.lease.installed import InstalledFileManager
from repro.lease.policy import TermPolicy, reads_stats
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
from repro.protocol.effects import Broadcast, CancelTimer, Effect, Send, SetTimer
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
        epsilon: clock-uncertainty allowance.  No server engine reads it:
            ε is subtracted on the client side (a client stops using a
            lease ε early) and the server simply waits out what it
            granted, on its own clock.  Kept because callers construct it
            (``benchmarks/stack``, the replica engine's copy).
        announce_period: seconds between installed-cover multicasts.
        announce_grace: extra delay added to installed delayed updates to
            cover announce delivery/queueing slack (see DESIGN.md §6).
        recovery_delay: how long to defer writes after boot;
            :meth:`ServerEngine.reboot` raises it to the crash bound.
        sweep_period: how often expired lease records are reclaimed.
    """

    epsilon: float = 0.1
    announce_period: float = 5.0
    announce_grace: float = 0.05
    recovery_delay: float = 0.0
    sweep_period: float = 30.0


#: Sentinel "writer" for namespace mutations: never matches a client id,
#: so every live leaseholder of the directory — including the submitter —
#: is awaited for approval.
_NS_WRITER: HostId = "\x00namespace"


@dataclass
class _Gate:
    """One request waiting on leases — the server's only kind of wait.

    A file write (ordinary, covered by an installed cover, or recently
    demoted from one), a namespace op on one or two directories, and a
    write-lease acquisition or recall (:mod:`repro.ext.writeback`) all
    wait for the same thing, §2's write rule: every leaseholder has
    approved, or that holder's lease has run out.  A recall awaits one
    holder, the write lease's owner, and its surrender is the approval.
    :class:`~repro.lease.table.PendingWrite` is that rule for one datum;
    a gate is the request, its one or two pending writes and what to do
    when the wait is over (``ending``).
    Gates live in ``ServerEngine._gates`` under each of their write ids,
    from the moment they enter the lease table until they proceed.

    **One timer.**  A gate owns the timer ``write:<id of its first
    pending write>`` and nothing else does.  ``armed`` is the deadline that
    timer is set for, ``None`` when it has fired, was never set or was
    cancelled.

    **One re-arm rule.**  Every look at a waiting gate — its timer firing,
    an approval, a relinquish, reaching the head of its queue — goes
    through ``ServerEngine._look``: past the deadline the gate proceeds;
    otherwise the timer is set for the deadline *as it stands now*, but
    only if that differs from ``armed``.  So the timer follows the
    deadline wherever it moves, and an unchanged deadline costs no effect.

    **Why that is safe.**  (1) The deadline only ever names leases nobody
    has answered for: ``awaiting`` shrinks only by an approval or a
    release, and no lease on the datum can be granted or renewed while
    the gate is in the table (the starvation guard).  (2) ``not_before``
    — the leases the table has no record of — is never lowered, so no
    approval pulls the deadline below it.  (3) The timer ends with the
    wait: a gate that proceeds while ``armed`` cancels it, so no timer
    outlives its gate.  A firing that still finds no gate (a driver kept
    it across a crash) does nothing; one that fires early finds the
    deadline still ahead and is re-armed for the remainder.
    """

    src: HostId
    #: The request as received: answered from, and (write-lease
    #: acquisition) replayed if a write queued up behind the gate.  A
    #: recall holds the owner's surrender here instead.
    msg: Message
    datums: tuple[DatumId, ...]
    #: Whose approval is implicit: the requester, or ``_NS_WRITER``.
    writer: HostId
    #: ``ending(gate, now) -> effects``: commit and reply, or grant.
    ending: Callable[["_Gate", float], list[Effect]]
    #: Added to the datum's version in the ``ApprovalRequest``: 1 for a
    #: write, 0 for an acquisition (which commits nothing itself).
    bump: int = 1
    #: The one holder awaited (a recall's owner); None awaits every live
    #: holder but ``writer``.
    only: HostId | None = None
    cas: int | None = None
    #: True when entering excluded the datum's installed cover from the
    #: announcements (``InstalledFileManager.begin_write``).
    covered: bool = False
    pendings: tuple[PendingWrite, ...] = ()
    #: Holders at entry, the writer included (adaptive-term statistics).
    sharing: int = 1
    armed: float | None = None

    @property
    def deadline(self) -> float:
        """The latest deadline among the gate's pending writes."""
        pendings = self.pendings
        deadline = pendings[0].deadline
        for pending in pendings[1:]:  # a two-directory rename
            deadline = max(deadline, pending.deadline)
        return deadline


class ServerEngine:
    """The file server's protocol state machine.

    Per-datum access statistics (:class:`DatumStats`) are kept only when
    something reads them: the term policy (:func:`reads_stats`) or the
    engine class, through ``reads_stats``.  Otherwise ``stats`` stays
    empty and recording one costs a flag test.
    """

    #: True for an engine class that reads ``stats`` itself.
    reads_stats = False

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
        self._keeps_stats = self.reads_stats or reads_stats(policy)
        self.known_clients: set[HostId] = set()
        self._recovering_until = now + self.config.recovery_delay
        #: Last authoritative answer to "is the recovery window open?";
        #: refreshed by every ``now``-bearing check (see ``recovering``).
        self._recovery_open = self._recovering_until > now
        #: Reads/extend-items deferred behind a pending write, per datum.
        self._deferred: dict[DatumId, list[tuple[Message, HostId]]] = {}
        #: Writes deferred by crash recovery.
        self._recovery_queue: list[tuple[Message, HostId]] = []
        #: Every request waiting on leases, under each of its write ids
        #: (see :class:`_Gate`).
        self._gates: dict[int, _Gate] = {}
        #: Namespace ops in arrival order; only the head is in the lease
        #: table (ops serialize globally — no multi-queue deadlock).
        self._ns_queue: deque[_Gate] = deque()
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
        one datum a server must keep across a crash; :meth:`reboot` hands
        it to the next incarnation.
        """
        bound = self.table.clear()
        if self.installed is not None:
            bound = max(bound, self.installed.term)
        return bound

    def reboot(self, now: float) -> "ServerEngine":
        """This server's next incarnation after a crash: §2's crash rule.

        A restarted server keeps one durable datum, the longest term it
        may have granted (:meth:`crash`), and delays writes that long:
        the next incarnation's ``recovery_delay`` is that bound, or the
        delay this one was configured with if that is longer, so a second
        crash with no grants in between keeps the largest bound.  Which
        files are installed is configuration and carries over
        (``InstalledFileManager.fresh``).  Nothing else survives: the
        lease table, gates, queues, dedup window and statistics start
        empty.  Built through ``type(self)``, so every subclass reboots
        as itself.
        """
        recovery_delay = max(self.config.recovery_delay, self.crash())
        return type(self)(
            self.name,
            self.store,
            self.policy,
            config=replace(self.config, recovery_delay=recovery_delay),
            installed=None if self.installed is None else self.installed.fresh(),
            now=now,
            obs=self.obs,
        )

    def master_valid(self, now: float) -> bool:
        """An unreplicated server is its shard's authority whenever it is up."""
        return True

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
        A closed window stays closed: a clock stepped back past
        ``_recovering_until`` would otherwise hold writes in a queue that
        no ``recovery`` timer replays (DESIGN §19).
        """
        open_ = self._recovery_open and now < self._recovering_until
        if self._recovery_open and not open_:
            self._recovery_open = False
            if self.obs.active:
                self.obs.emit(
                    RECOVERY_END, now, self.name, queued=len(self._recovery_queue)
                )
        return open_

    def _held_by_recovery(self, msg, src: HostId, now: float) -> bool:
        """Inside the recovery window a write is kept aside — marked in
        flight, but outside the lease table, so reads and new grants go
        on — and replayed when the ``recovery`` timer closes the window."""
        if not self._in_recovery(now):
            return False
        self._inflight.add((src, msg.write_seq))
        self._recovery_queue.append((msg, src))
        if self.obs.active:
            self.obs.emit(
                RECOVERY_HOLD, now, self.name, src=src, write_seq=msg.write_seq
            )
        return True

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
            gate = self._gates.get(int(key.split(":", 1)[1]))
            if gate is None:
                return []  # no such gate: kept across a crash
            gate.armed = None  # spent
            return self._look(gate, now)
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
        self._record_read(datum, now)
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
            self._record_read(datum, now)
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
        gate = _Gate(src, msg, (datum,), src, self._commit_file_write, cas=msg.cas)
        rejected = self._cas_reject(gate, now)
        if rejected is not None:
            return rejected
        if self._held_by_recovery(msg, src, now):
            return []
        self._inflight.add((src, msg.write_seq))
        not_before = -inf
        if self.installed is not None:
            if self.installed.cover_of(datum) is not None:
                # Delayed update (§4): the cover leaves the announcements
                # and the write waits out the last one.  Per-client leases
                # from before a promotion (§7) are in the table and are
                # called back like any other.
                gate.covered = True
                not_before = (
                    self.installed.begin_write(datum, now) + self.config.announce_grace
                )
            else:
                # Recently demoted (§7): an old cover announcement may
                # still be honored at some client; wait it out.
                not_before = self.installed.demotion_barrier(datum)
                if not_before > now and self.obs.active:
                    self.obs.emit(
                        WRITE_DEFER, now, self.name,
                        datum=str(datum), src=src, reason="demotion_barrier",
                    )
        return self._enter(gate, now, not_before)

    def _commit_file_write(self, gate: _Gate, now: float) -> list[Effect]:
        """A file write's ending: commit and answer the writer."""
        msg = gate.msg
        version = self.store.commit_file_write(msg.datum, msg.content, now)
        if self.obs.active:
            self.obs.emit(
                WRITE_COMMIT, now, self.name,
                datum=str(msg.datum), writer=gate.src, version=version,
            )
        self._record_write(msg.datum, now, gate.sharing)
        self._record_commit(gate.src, msg.write_seq, version, None)
        return [Send(gate.src, WriteReply(msg.req_id, msg.datum, version=version))]

    def _cas_reject(self, gate: _Gate, now: float) -> list[Effect] | None:
        """Reject a stale CAS write; None when the write may proceed.

        The rejection is recorded in the dedup window so retransmissions
        get the identical answer even if the datum's version later happens
        to equal the (bogus) expected one.
        """
        if gate.cas is None:
            return None
        msg = gate.msg
        version = self.store.version_of(msg.datum)
        if version == gate.cas:
            return None
        error = f"cas mismatch: expected {gate.cas}, datum at {version}"
        if self.obs.active:
            self.obs.emit(
                WRITE_CAS_REJECT, now, self.name,
                datum=str(msg.datum), writer=gate.src, expected=gate.cas, found=version,
            )
        self._record_commit(gate.src, msg.write_seq, version, error)
        return [
            Send(gate.src, WriteReply(msg.req_id, msg.datum, version=version, error=error))
        ]

    # -- the write gate (see _Gate) -------------------------------------------------

    def _enter(
        self, gate: _Gate, now: float, not_before: float = -inf
    ) -> list[Effect]:
        """Put the gate's writes in the lease table — from here on no new
        lease is granted on its datums — and activate it if nothing is
        queued ahead of it."""
        table = self.table
        gate.pendings = tuple(
            [table.begin_write(d, gate.writer, now, not_before, gate.only) for d in gate.datums]
        )
        for pending in gate.pendings:
            self._gates[pending.write_id] = gate
        first = gate.pendings[0]
        gate.sharing = len(first.awaiting) + 1
        # One check covers a two-directory gate: only namespace ops write
        # directories and ``_ns_queue`` lets one in at a time.
        if table.head_write(first.datum) is first:
            return self._activate(gate, now)
        return []  # queued behind an earlier write on the same datum

    def _activate(self, gate: _Gate, now: float) -> list[Effect]:
        """The gate reached the head of its queue: ask whoever must be
        asked, then take the first look."""
        # An earlier queued write may have committed first: a CAS writer's
        # basis version is then gone, so reject rather than clobber (the
        # CAS contract).  Checked here — once a write is at the head of its
        # queue nothing else can commit to the datum, so the predicate
        # cannot change before our own commit.
        rejected = self._cas_reject(gate, now)
        if rejected is not None:
            return self._proceed(gate, now, rejected)
        effects: list[Effect] = []
        if now < gate.deadline:
            for pending in gate.pendings:
                if not pending.awaiting:
                    continue
                datum = pending.datum
                if self.obs.active:
                    self.obs.emit(
                        APPROVAL_REQUEST, now, self.name,
                        datum=str(datum), write_id=pending.write_id,
                        awaiting=len(pending.awaiting),
                    )
                request = self._approval_request(gate, pending)
                effects.append(Broadcast(tuple(sorted(pending.awaiting)), request))
        effects.extend(self._look(gate, now))
        return effects

    def _approval_request(self, gate: _Gate, pending: PendingWrite) -> Message:
        """What a gate asks the holders ``pending`` awaits."""
        datum = pending.datum
        return ApprovalRequest(
            datum, pending.write_id, self.store.version_of(datum) + gate.bump
        )

    def _look(self, gate: _Gate, now: float) -> list[Effect]:
        """Proceed or (re-)arm — the one decision about a waiting gate,
        taken on every event that can change its answer."""
        deadline = gate.deadline
        if now >= deadline:
            return self._proceed(gate, now)
        if deadline == gate.armed or deadline == inf:
            return []
        gate.armed = deadline
        return [SetTimer(f"write:{gate.pendings[0].write_id}", deadline - now)]

    def _proceed(
        self, gate: _Gate, now: float, rejected: list[Effect] | None = None
    ) -> list[Effect]:
        """The wait is over: cancel its timer; take the gate out of the
        dict, the lease table, its cover and the namespace queue; run its
        ending (unless it was ``rejected`` at activation); let what queued
        behind it go."""
        namespace = bool(self._ns_queue) and self._ns_queue[0] is gate
        effects: list[Effect] = []
        if gate.armed is not None:
            effects.append(CancelTimer(f"write:{gate.pendings[0].write_id}"))
            gate.armed = None
        for pending in gate.pendings:
            self.table.finish_write(pending.datum, pending.write_id)
            del self._gates[pending.write_id]
        if gate.covered:
            self.installed.finish_write(gate.datums[0])
        if namespace:
            self._ns_queue.popleft()
        effects.extend(gate.ending(gate, now) if rejected is None else rejected)
        for datum in gate.datums:
            effects.extend(self._after_write_drains(datum, now))
        if namespace and self._ns_queue:
            effects.extend(self._enter(self._ns_queue[0], now))
        return effects

    def _after_write_drains(self, datum: DatumId, now: float) -> list[Effect]:
        """A gate on ``datum`` proceeded: activate the next one queued,
        or (if none) replay the deferred reads."""
        nxt = self.table.head_write(datum)
        if nxt is not None:
            return self._activate(self._gates[nxt.write_id], now)
        return self._flush_deferred(datum, now)

    def _handle_approval(self, msg: ApprovalReply, src: HostId, now: float) -> list[Effect]:
        pending = self.table.approve(msg.datum, src, msg.write_id)
        if pending is None:
            return []
        if self.obs.active:
            self.obs.emit(
                APPROVAL_REPLY, now, self.name,
                datum=str(msg.datum), write_id=msg.write_id, holder=src,
            )
        return self._look(self._gates[pending.write_id], now)

    def _handle_relinquish(
        self, msg: RelinquishRequest, src: HostId, now: float
    ) -> list[Effect]:
        """Drop the client's leases; any gate they were holding up may now
        proceed, or wait for less (§4: relinquishing is a client option,
        and it is what lets a well-behaved cache shrink without waiting
        out terms)."""
        effects: list[Effect] = []
        for datum in msg.datums:
            self.table.release(datum, src, now)
            head = self.table.head_write(datum)
            if head is not None:
                effects.extend(self._look(self._gates[head.write_id], now))
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

    # -- installed-file announcements (§4) ------------------------------------------

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
        if self._held_by_recovery(msg, src, now):
            return []
        try:
            datums = self._namespace_targets(msg)
        except ReproError as exc:
            return [Send(src, NamespaceReply(msg.req_id, msg.op, error=str(exc)))]
        self._inflight.add((src, msg.write_seq))
        # Unlike a file write, a namespace op grants NO implicit
        # self-approval (the _NS_WRITER sentinel): the submitter cannot
        # reconstruct the new directory payload from its request, so if it
        # holds a lease on the directory it must be called back like any
        # other holder — otherwise it would keep serving its own stale
        # binding from cache after the commit (found by the path-API tests).
        gate = _Gate(src, msg, datums, _NS_WRITER, self._commit_namespace)
        self._ns_queue.append(gate)
        if self._ns_queue[0] is gate:
            return self._enter(gate, now)
        return []  # namespace ops serialize globally (no multi-queue deadlock)

    def _commit_namespace(self, gate: _Gate, now: float) -> list[Effect]:
        """A namespace op's ending: apply it and answer the submitter."""
        msg = gate.msg
        error: str | None = None
        result: object = None
        ns = self.store.namespace
        try:
            if msg.op == "mkdir":
                (path,) = msg.args
                result = ns.mkdir(path)
            elif msg.op == "bind":
                path, content, file_class_name = msg.args
                record = self.store.create_file(
                    path, content, file_class=FileClass(file_class_name), now=now
                )
                result = record.file_id
            elif msg.op == "unbind":
                (path,) = msg.args
                self.store.unlink(path)
            elif msg.op == "rename":
                old, new = msg.args
                ns.rename(old, new)
            else:
                error = f"unknown namespace op {msg.op!r}"
        except ReproError as exc:
            error = f"{type(exc).__name__}: {exc}"
        for pending in gate.pendings:
            datum = pending.datum
            self._record_write(datum, now, len(pending.awaiting) + 1)
            if self.obs.active:
                self.obs.emit(
                    WRITE_COMMIT, now, self.name,
                    datum=str(datum), writer=gate.src,
                    version=self.store.version_of(datum),
                )
        self._record_commit(gate.src, msg.write_seq, 0, error)
        return [
            Send(gate.src, NamespaceReply(msg.req_id, msg.op, error=error, result=result))
        ]

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
        """True when reads/extends of ``datum`` must defer behind a write:
        a gate holds the datum in the lease table, or an update of its
        installed cover is in flight (which blocks the whole cover)."""
        if self.table.write_pending(datum):
            return True
        return self.installed is not None and self.installed.write_pending(datum)

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

    def _record_read(self, datum: DatumId, now: float) -> None:
        if self._keeps_stats:
            self._stats_of(datum).record_read(now)

    def _record_write(self, datum: DatumId, now: float, holders: int) -> None:
        if self._keeps_stats:
            self._stats_of(datum).record_write(now, holders)

    def _class_of(self, datum: DatumId) -> FileClass:
        if datum.kind is DatumKind.FILE:
            return self.store.file(datum.ident).file_class
        return FileClass.NORMAL

    # -- introspection -----------------------------------------------------------------

    def lease_count(self) -> int:
        """Stored lease records (the paper's ~1 KB/client storage point)."""
        return self.table.lease_count()

    def status(self, now: float) -> dict:
        """Operational snapshot for monitoring and the CLI's stats line.

        The paper's storage argument (§2: "around one kilobyte per
        client") is observable here: ``lease_records`` stays small under
        short terms because expired records are reclaimed.
        ``tracked_datums`` counts the datums with access statistics; it
        is 0 on a server that keeps none (see the class docstring).
        """
        deferred = sum(len(waiting) for waiting in self._deferred.values())
        waiting = {id(gate) for gate in (*self._gates.values(), *self._ns_queue)}
        snapshot = {
            "now": now,
            "known_clients": len(self.known_clients),
            "lease_records": self.table.lease_count(),
            "pending_writes": len(waiting),
            "deferred_requests": deferred,
            "tracked_datums": len(self.stats),
            "dedup_entries": sum(len(w) for w in self._write_dedup.values()),
            "recovering": self._in_recovery(now),
            "files": self.store.file_count(),
        }
        if self.installed is not None:
            snapshot["covers"] = len(self.installed.covers())
        return snapshot
