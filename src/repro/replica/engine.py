"""The replica protocol engine: PaxosLease election around a deposed-able
:class:`~repro.protocol.server.ServerEngine`.

Each replica is one of these state machines (sans-io, like every engine in
this repo).  Three states:

* **follower** — no master lease held.  Paxos traffic is served by the
  acceptor; client requests are redirected with
  :class:`~repro.protocol.messages.NotMaster` carrying the believed
  master.  A periodic election tick starts a proposer round when no
  unexpired lease is known locally.
* **waiting** — won the master lease, but may not serve yet: the handoff
  invariant (DESIGN.md §17) requires the prior master's residual
  mastership belief *and* every file lease it may have granted to have
  expired on **our** clock, drift-compensated
  (:func:`repro.clock.sync.safe_waitout`).  Client requests received in
  this window are queued (bounded) and replayed at serve time, so a
  failover costs clients one wait, not a timeout storm.
* **master** — a fresh inner :class:`ServerEngine` serves the ordinary
  lease protocol over the shared store.  The master lease is renewed by
  fresh Paxos rounds well before expiry; its validity is re-checked at
  **every** entry point, and on expiry the inner engine is dropped on the
  floor (deposed) before the message or timer is processed — a
  partitioned ex-master can never commit a write after its lease lapsed.

Clock-fault discipline (the §5 sweep, PR 2's lesson): every absolute
deadline here — the handoff ``serve_at``, the master-lease expiry check —
re-arms for the remainder when its timer fires early after a backward
clock step, exactly like the inner engine's recovery/write deadlines.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field, replace

from repro.clock.sync import safe_local_expiry, safe_waitout
from repro.errors import ReproError
from repro.lease.policy import TermPolicy
from repro.obs.bus import NULL_BUS
from repro.obs.events import (
    REPLICA_DEPOSED,
    REPLICA_ELECTED,
    REPLICA_REDIRECT,
    REPLICA_SERVE,
)
from repro.protocol.effects import CancelTimer, Effect, Send, SetTimer
from repro.protocol.messages import (
    Message,
    NotMaster,
    PrepareReply,
    PrepareRequest,
    ProposeReply,
    ProposeRequest,
)
from repro.protocol.server import ServerConfig, ServerEngine
from repro.replica.paxos import Acceptor, Proposer
from repro.replica.paxos import BACKOFF, ELECTED, PROPOSE
from repro.storage.store import FileStore
from repro.types import HostId


@dataclass(frozen=True)
class ReplicaConfig:
    """Replica tuning knobs.

    Attributes:
        hosts: every replica in the group (stable order; defines indices).
        index: this replica's position in ``hosts``.
        master_term: duration of the PaxosLease master lease.
        max_file_term: the longest file-lease term the policy can grant —
            the handoff wait must out-wait it.
        epsilon: clock-skew allowance (shared with clients/servers).
        drift_bound: bound on this clock's rate error.
        tick: election/renewal poll period.
        round_timeout: how long a prepare/propose round may run before it
            is aborted and retried.
        queue_limit: most client messages held during the handoff wait;
            beyond it the oldest are dropped (clients retransmit).
        join_delay: how long after boot the node abstains from Paxos
            entirely; :meth:`ReplicaEngine.reboot` sets it to
            :func:`restart_join_delay`.  0 on first boot.
        server: config for the inner :class:`ServerEngine` built at each
            serve; its ``recovery_delay`` is ignored (the handoff wait
            subsumes crash recovery).
    """

    hosts: tuple[HostId, ...]
    index: int
    master_term: float = 2.0
    max_file_term: float = 10.0
    epsilon: float = 0.1
    drift_bound: float = 0.0
    tick: float = 0.25
    round_timeout: float = 0.5
    queue_limit: int = 256
    join_delay: float = 0.0
    server: ServerConfig = field(default_factory=ServerConfig)


def restart_join_delay(config: ReplicaConfig) -> float:
    """The abstention window a restarted replica must honor.

    Covers everything a diskless acceptor forgets: a promise inside an
    in-flight round (bounded by the round timeout), an accepted master
    lease (expires within one drift-stretched ``master_term``), and —
    because the acceptor's sticky ``ever_accepted`` history underwrites
    the cold-start fast path — the file-lease tail of the mastership that
    accepted lease backed (one more ``max_file_term``).  After this wait
    the amnesia is moot: nothing the node forgot can still bind anyone.
    """
    return (
        safe_waitout(
            config.master_term + config.max_file_term,
            config.epsilon,
            config.drift_bound,
        )
        + config.round_timeout
    )


FOLLOWER = "follower"
WAITING = "waiting"
MASTER = "master"

#: Paxos message types, routed to acceptor/proposer in any state.
_PAXOS_TYPES = (PrepareRequest, PrepareReply, ProposeRequest, ProposeReply)


class ReplicaEngine:
    """One replica of the replicated lease authority."""

    def __init__(
        self,
        name: HostId,
        store: FileStore,
        policy: TermPolicy,
        config: ReplicaConfig,
        now: float = 0.0,
        obs=None,
    ):
        if config.hosts[config.index] != name:
            raise ReproError(
                f"replica {name!r} is not hosts[{config.index}]={config.hosts[config.index]!r}"
            )
        self.name = name
        self.store = store
        self.policy = policy
        self.config = config
        self.obs = obs or NULL_BUS
        self.state = FOLLOWER
        self.acceptor = Acceptor()
        self.proposer = Proposer(
            name,
            config.index,
            len(config.hosts),
            config.master_term,
            epsilon=config.epsilon,
            drift_bound=config.drift_bound,
        )
        #: The inner lease server; exists only while ``state == MASTER``.
        self.inner: ServerEngine | None = None
        #: Mastership epoch — bumped at every serve; namespaces inner
        #: timer keys so a deposed epoch's timers fire as no-ops.
        self.epoch = 0
        #: Who we believe holds the master lease (for redirects); "" when
        #: unknown.  Tracked from our acceptor's accepted state and from
        #: our own elections.
        self._believed_master: HostId = ""
        #: Local-clock instant the acceptor's belief goes stale.
        self._belief_expiry = 0.0
        #: Client messages held during the handoff wait.
        self._queue: deque[tuple[Message, HostId]] = deque()
        self._queue_dropped = 0
        #: Local time before which we may not serve (waiting state).
        self._serve_at = 0.0
        #: Local time before which we take no part in Paxos (restart rule).
        self._join_at = now + config.join_delay
        #: Earliest local time the next election attempt may start.
        self._next_attempt_at = 0.0

    # -- lifecycle -------------------------------------------------------------

    def startup_effects(self, now: float) -> list[Effect]:
        """Arm the election tick (delayed past the restart abstention)."""
        delay = max(self._stagger(), self._join_at - now)
        return [SetTimer("paxos:tick", delay)]

    def reboot(self, now: float) -> "ReplicaEngine":
        """This replica's next incarnation after a crash: the diskless rule.

        A replica keeps nothing across a crash — promised ballots, the
        accepted and the held master lease, the inner engine's lease table
        are all gone.  Safety does not rest on any of it surviving: the
        next incarnation abstains from Paxos for
        :func:`restart_join_delay` (PaxosLease), after which nothing this
        one promised or granted can still bind anyone.
        """
        config = replace(self.config, join_delay=restart_join_delay(self.config))
        return type(self)(
            self.name, self.store, self.policy, config, now=now, obs=self.obs
        )

    def _stagger(self) -> float:
        # Deterministic per-node offset so fresh replicas don't start
        # dueling rounds in the same instant.
        return 0.05 + self.config.index * self.config.tick / len(self.config.hosts)

    # -- entry points ----------------------------------------------------------

    def handle_message(self, msg: Message, src: HostId, now: float) -> list[Effect]:
        """Process one inbound message; returns the effects to execute."""
        effects = self._check_mastership(now)
        if isinstance(msg, _PAXOS_TYPES):
            effects.extend(self._handle_paxos(msg, src, now))
            return effects
        effects.extend(self._handle_client(msg, src, now))
        return effects

    def handle_timer(self, key: str, now: float) -> list[Effect]:
        """Process a timer firing; returns the effects to execute."""
        effects = self._check_mastership(now)
        if key == "paxos:tick":
            effects.extend(self._on_tick(now))
            return effects
        if key == "paxos:round":
            effects.extend(self._on_round_timeout(now))
            return effects
        if key == "handoff":
            effects.extend(self._on_handoff(now))
            return effects
        if key == "master:check":
            # Expiry (or re-arm) already happened in _check_mastership.
            effects.extend(self._rearm_master_check(now))
            return effects
        if key.startswith("inner:"):
            effects.extend(self._on_inner_timer(key, now))
            return effects
        raise ReproError(f"replica got unexpected timer {key!r}")

    # -- mastership validity ---------------------------------------------------

    def _check_mastership(self, now: float) -> list[Effect]:
        """Depose ourselves the moment our master lease is no longer
        provably valid — checked before *anything* else is processed, so a
        partitioned ex-master cannot commit on a lapsed lease."""
        if self.state not in (MASTER, WAITING):
            return []
        if now < self.proposer.lease_expiry:
            return []
        return self._depose(now, reason="lease_expired")

    def _depose(self, now: float, reason: str) -> list[Effect]:
        if self.obs.active:
            self.obs.emit(
                REPLICA_DEPOSED, now, self.name,
                ballot=self.proposer.ballot, reason=reason,
            )
        self.state = FOLLOWER
        self.inner = None
        self.proposer.abort_round()
        self._queue.clear()
        self._believed_master = ""
        self._belief_expiry = 0.0
        # The round, the handoff wait and the validity check end with the
        # mastership, so their timers go with it.  The dropped inner
        # engine's timers are not enumerated: they carry the old epoch in
        # their key and stop in _on_inner_timer.
        return [
            CancelTimer("paxos:round"),
            CancelTimer("handoff"),
            CancelTimer("master:check"),
        ]

    def _rearm_master_check(self, now: float) -> list[Effect]:
        """(Re-)arm the expiry check for the remaining validity.

        Also the backward-clock-step guard: a ``master:check`` firing
        *early* (clock stepped back while it was armed) lands here and
        re-arms for the remainder instead of deposing a valid master.
        """
        if self.state not in (MASTER, WAITING):
            return []
        remaining = self.proposer.lease_expiry - now
        if remaining <= 0.0:
            return []  # _check_mastership already deposed us
        return [SetTimer("master:check", remaining)]

    # -- election / renewal ----------------------------------------------------

    def _on_tick(self, now: float) -> list[Effect]:
        effects: list[Effect] = [SetTimer("paxos:tick", self.config.tick)]
        if now < self._join_at:
            return effects
        if self.proposer.phase != "idle":
            # A round in flight re-sends its request to every peer that
            # has not answered, so one lost leg costs a tick, not the
            # round: a renewal has until the master lease runs out.
            request, answered = self.proposer.in_flight()
            effects.extend(
                Send(peer, request)
                for peer in self.config.hosts
                if peer != self.name and peer not in answered
            )
            return effects
        if self.state in (MASTER, WAITING):
            # Renew before the lease runs out; WAITING renews too — the
            # handoff wait can be longer than one master term.
            remaining = self.proposer.lease_expiry - now
            if remaining < self.config.master_term / 2.0:
                effects.extend(self._start_round(now))
            return effects
        # Follower: start a round only when no unexpired lease is known
        # locally and our backoff has elapsed.
        if self.acceptor.accepted_remaining(now) > 0.0:
            return effects
        if now < self._next_attempt_at:
            return effects
        effects.extend(self._start_round(now))
        return effects

    def _start_round(self, now: float) -> list[Effect]:
        prepare = self.proposer.start_round(now)
        effects: list[Effect] = [SetTimer("paxos:round", self.config.round_timeout)]
        effects.extend(
            Send(peer, prepare) for peer in self.config.hosts if peer != self.name
        )
        # Self-delivery short-circuits the network.
        reply = self.acceptor.on_prepare(prepare, now)
        effects.extend(self._apply_outcome(
            self.proposer.on_prepare_reply(self.name, reply, now), now
        ))
        return effects

    def _on_round_timeout(self, now: float) -> list[Effect]:
        if self.proposer.phase != "idle":
            self.proposer.abort_round()
            self._next_attempt_at = now + self._stagger()
        return []

    def _handle_paxos(self, msg: Message, src: HostId, now: float) -> list[Effect]:
        if now < self._join_at:
            # Restart abstention: a diskless acceptor that answered here
            # could break a promise it no longer remembers.
            return []
        if isinstance(msg, PrepareRequest):
            return [Send(src, self.acceptor.on_prepare(msg, now))]
        if isinstance(msg, ProposeRequest):
            reply = self.acceptor.on_propose(msg, now)
            if reply.accepted:
                self._believed_master = msg.holder
                self._belief_expiry = self.acceptor.accepted_expiry
            return [Send(src, reply)]
        if isinstance(msg, PrepareReply):
            return self._apply_outcome(
                self.proposer.on_prepare_reply(src, msg, now), now
            )
        return self._apply_outcome(
            self.proposer.on_propose_reply(src, msg, now), now
        )

    def _apply_outcome(self, outcome, now: float) -> list[Effect]:
        if outcome.kind == PROPOSE:
            effects: list[Effect] = [
                Send(peer, outcome.message)
                for peer in self.config.hosts
                if peer != self.name
            ]
            reply = self.acceptor.on_propose(outcome.message, now)
            if reply.accepted:
                self._believed_master = self.name
                self._belief_expiry = self.acceptor.accepted_expiry
            effects.extend(self._apply_outcome(
                self.proposer.on_propose_reply(self.name, reply, now), now
            ))
            return effects
        if outcome.kind == ELECTED:
            return [CancelTimer("paxos:round"), *self._on_elected(outcome, now)]
        if outcome.kind == BACKOFF:
            wait = self._stagger()
            if outcome.retry_after > 0.0:
                # The reported remaining validity is a duration on the
                # *acceptor's* clock; stretch it for our own drift.
                wait += safe_waitout(
                    outcome.retry_after, 0.0, self.config.drift_bound
                )
            self._next_attempt_at = now + wait
            return [CancelTimer("paxos:round")]
        return []

    def _on_elected(self, outcome, now: float) -> list[Effect]:
        self._believed_master = self.name
        if self.state == MASTER:
            # Renewal while serving: just extend validity.
            return self._rearm_master_check(now)
        if self.state == WAITING:
            # Renewal during the handoff wait: validity extended, the
            # serve_at deadline is unchanged.
            return self._rearm_master_check(now)
        # Fresh mastership: the handoff wait starts.  Anchored *here* (at
        # accept-majority time): by now the prior master's lease had
        # expired at some acceptor of our prepare majority, which bounds
        # its residual belief by one drift-stretched master term, and any
        # file lease it granted within that belief by one more
        # drift-stretched max file term (DESIGN.md §17 walks the algebra).
        # A virgin election — every counted promise reported zero lifetime
        # accepts — proves there is nothing to wait out.
        self.state = WAITING
        wait = 0.0 if outcome.virgin else safe_waitout(
            self.config.master_term + self.config.max_file_term,
            self.config.epsilon,
            self.config.drift_bound,
        )
        self._serve_at = now + wait
        if self.obs.active:
            self.obs.emit(
                REPLICA_ELECTED, now, self.name,
                ballot=self.proposer.ballot, serve_at=self._serve_at,
            )
        effects: list[Effect] = []
        effects.extend(self._rearm_master_check(now))
        if wait <= 0.0:
            effects.extend(self._begin_serving(now))
        else:
            effects.append(SetTimer("handoff", self._serve_at - now))
        return effects

    def _on_handoff(self, now: float) -> list[Effect]:
        if self.state != WAITING:
            return []  # stale timer from an abandoned mastership
        if now < self._serve_at:
            # Fired before the deadline: the clock stepped backward while
            # the timer was armed.  Re-arm for the remainder — serving now
            # would break the handoff invariant (the §5 sweep's bug class).
            return [SetTimer("handoff", self._serve_at - now)]
        return self._begin_serving(now)

    def _begin_serving(self, now: float) -> list[Effect]:
        self.state = MASTER
        self.epoch += 1
        # A fresh inner engine: every pre-handoff lease has been waited
        # out, so an empty lease table is exactly right; the shared store
        # carries the data.  No recovery window — the wait subsumed it.
        self.inner = ServerEngine(
            self.name,
            self.store,
            self.policy,
            config=replace(self.config.server, recovery_delay=0.0),
            now=now,
            obs=self.obs,
        )
        queued, self._queue = self._queue, deque()
        if self.obs.active:
            self.obs.emit(
                REPLICA_SERVE, now, self.name,
                ballot=self.proposer.ballot, queued=len(queued),
            )
        effects = self._wrap_inner(self.inner.startup_effects(now))
        for msg, src in queued:
            effects.extend(self._wrap_inner(self.inner.handle_message(msg, src, now)))
        return effects

    # -- client traffic --------------------------------------------------------

    def _handle_client(self, msg: Message, src: HostId, now: float) -> list[Effect]:
        if self.state == MASTER:
            return self._wrap_inner(self.inner.handle_message(msg, src, now))
        if self.state == WAITING:
            self._queue.append((msg, src))
            if len(self._queue) > self.config.queue_limit:
                self._queue.popleft()
                self._queue_dropped += 1
            return []
        # Follower: redirect with the best hint we have.
        master = self._master_hint(now)
        if self.obs.active:
            self.obs.emit(REPLICA_REDIRECT, now, self.name, src=src, master=master)
        req_id = getattr(msg, "req_id", None)
        if req_id is None:
            return []  # id-less messages (approvals, relinquish) just drop
        return [Send(src, NotMaster(req_id, master=master))]

    def _master_hint(self, now: float) -> HostId:
        if self._believed_master and now < self._belief_expiry:
            return self._believed_master
        return ""

    # -- inner engine plumbing -------------------------------------------------

    def _wrap_inner(self, effects: list[Effect]) -> list[Effect]:
        """Namespace the inner engine's timers with the mastership epoch."""
        prefix = f"inner:{self.epoch}:"
        wrapped: list[Effect] = []
        for effect in effects:
            if isinstance(effect, SetTimer):
                wrapped.append(SetTimer(prefix + effect.key, effect.delay))
            elif isinstance(effect, CancelTimer):
                wrapped.append(CancelTimer(prefix + effect.key))
            else:
                wrapped.append(effect)
        return wrapped

    def _on_inner_timer(self, key: str, now: float) -> list[Effect]:
        _, epoch_str, inner_key = key.split(":", 2)
        if self.state != MASTER or int(epoch_str) != self.epoch:
            return []  # a deposed epoch's timer: harmless no-op
        return self._wrap_inner(self.inner.handle_timer(inner_key, now))

    # -- introspection ---------------------------------------------------------

    @property
    def is_master(self) -> bool:
        """True while the inner engine is serving (validity as of the last
        authoritative check)."""
        return self.state == MASTER

    def master_valid(self, now: float) -> bool:
        """Authoritative: serving *and* the master lease is unexpired."""
        return self.state == MASTER and now < self.proposer.lease_expiry

    def status(self, now: float) -> dict:
        """Operational snapshot for monitoring and tests."""
        snapshot = {
            "now": now,
            "state": self.state,
            "ballot": self.proposer.ballot,
            "lease_expiry": self.proposer.lease_expiry,
            "believed_master": self._master_hint(now),
            "queued": len(self._queue),
            "queue_dropped": self._queue_dropped,
            "epoch": self.epoch,
        }
        if self.inner is not None:
            snapshot["inner"] = self.inner.status(now)
        return snapshot


# Re-exported for drivers that arm validity anchored at prepare-send.
__all__ = [
    "FOLLOWER",
    "MASTER",
    "WAITING",
    "ReplicaConfig",
    "ReplicaEngine",
    "restart_join_delay",
    "safe_local_expiry",
]
