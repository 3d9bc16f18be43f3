"""Sans-io PaxosLease: diskless Paxos specialized for lease negotiation.

PaxosLease (PAPERS.md) negotiates a *master lease* instead of a log entry.
Two specializations make it diskless and clock-fault tolerant:

* Acceptor state — the promised ballot and the accepted lease — itself
  **expires**.  An acceptor that accepted a lease forgets it once the
  lease term runs out on its own clock, so nothing needs stable storage;
  restart safety comes from the host waiting out one maximum lease term
  before rejoining (it cannot break a promise it would still be bound by).
* Lease validity travels as a **duration**, never an instant (the paper's
  §5 discipline).  An acceptor reports the *remaining* validity of its
  accepted lease at reply time; the proposer anchors its own validity at
  the local time it *started the round* and shrinks it with
  :func:`repro.clock.sync.safe_local_expiry`, while acceptors hold the
  full term from receive time — so the holder always stops believing
  before any acceptor stops enforcing.

The proposer only ever proposes **itself**: if a prepare majority reports
any unexpired foreign lease, the round aborts and the proposer backs off
for that lease's remaining validity.  Together with promise/accept ballot
ordering this yields at-most-one master lease per instant under arbitrary
message loss, duplication and reordering (``tests/replica/
test_paxos_properties.py`` drives the state machines through exactly
those schedules).

Both classes are pure state machines: no I/O, no clock reads — every
entry point takes ``now`` (the host's local clock) and returns plain
messages or an :class:`Outcome` for the surrounding engine to act on.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.clock.sync import safe_local_expiry
from repro.protocol.messages import (
    PrepareReply,
    PrepareRequest,
    ProposeReply,
    ProposeRequest,
)


def ballot_number(round_: int, node_index: int, n_replicas: int) -> int:
    """Globally unique, per-proposer strictly increasing ballot.

    ``round * n + index + 1``: disjoint across proposers (distinct
    residues mod ``n``), increasing in ``round``, and strictly positive —
    0 is the reserved "no ballot" value.
    """
    return round_ * n_replicas + node_index + 1


class Acceptor:
    """PaxosLease acceptor: promised/accepted state that expires.

    Diskless by design — see the module docstring.  ``promised_ballot``
    never decreases (ballot monotonicity; the property suite pins this),
    but the accepted lease clears itself once its term runs out on this
    host's clock.
    """

    __slots__ = ("promised_ballot", "accepted_ballot", "accepted_holder",
                 "accepted_expiry", "ever_accepted")

    def __init__(self) -> None:
        self.promised_ballot = 0
        self.accepted_ballot = 0
        self.accepted_holder: str | None = None
        #: Sticky history bit: has this acceptor *ever* accepted a lease?
        #: Survives lease expiry (but not restart — the restart abstention
        #: window is what keeps the amnesia safe, see the engine).
        self.ever_accepted = False
        #: Local-clock instant the accepted lease stops binding this
        #: acceptor.  Anchored at *receive* time with the full term —
        #: deliberately later (in real time) than the holder's own
        #: send-anchored, drift-shrunk expiry.
        self.accepted_expiry = 0.0

    def _expire(self, now: float) -> None:
        if self.accepted_ballot and now >= self.accepted_expiry:
            self.accepted_ballot = 0
            self.accepted_holder = None
            self.accepted_expiry = 0.0

    def accepted_remaining(self, now: float) -> float:
        """Remaining validity of the accepted lease (0.0 when none)."""
        self._expire(now)
        if not self.accepted_ballot:
            return 0.0
        return self.accepted_expiry - now

    def on_prepare(self, msg: PrepareRequest, now: float) -> PrepareReply:
        """Phase 1: promise the ballot unless a higher one was promised.

        Equal ballots re-promise (idempotent under retransmission; ballots
        are unique per proposer, so an equal ballot is the same proposer).
        """
        self._expire(now)
        if msg.ballot < self.promised_ballot:
            return PrepareReply(ballot=msg.ballot, promised=False)
        self.promised_ballot = msg.ballot
        return PrepareReply(
            ballot=msg.ballot,
            promised=True,
            accepted_ballot=self.accepted_ballot,
            accepted_holder=self.accepted_holder,
            accepted_expires_in=self.accepted_remaining(now),
            ever_accepted=self.ever_accepted,
        )

    def on_propose(self, msg: ProposeRequest, now: float) -> ProposeReply:
        """Phase 2: accept the lease unless a higher ballot was promised."""
        self._expire(now)
        if msg.ballot < self.promised_ballot:
            return ProposeReply(ballot=msg.ballot, accepted=False)
        self.promised_ballot = msg.ballot
        self.accepted_ballot = msg.ballot
        self.accepted_holder = msg.holder
        self.accepted_expiry = now + msg.term
        self.ever_accepted = True
        return ProposeReply(ballot=msg.ballot, accepted=True)


#: :attr:`Outcome.kind` values.
NONE = "none"          #: keep collecting replies.
PROPOSE = "propose"    #: prepare majority reached — broadcast ``message``.
ELECTED = "elected"    #: accept majority reached — lease held until ``expiry``.
BACKOFF = "backoff"    #: round over (reject or foreign lease); retry later.


@dataclass(frozen=True)
class Outcome:
    """What the engine should do after feeding a reply to the proposer.

    Attributes:
        kind: one of :data:`NONE`/:data:`PROPOSE`/:data:`ELECTED`/
            :data:`BACKOFF`.
        message: the :class:`ProposeRequest` to broadcast (``PROPOSE``).
        retry_after: minimum wait before the next attempt (``BACKOFF``) —
            the reported remaining validity of a foreign lease, **not**
            drift-compensated; callers stretch it with
            :func:`repro.clock.sync.safe_waitout`.
        expiry: local-clock end of our lease validity (``ELECTED``).
        virgin: ``ELECTED`` only — every counted prepare promise reported
            a lifetime of zero accepted leases, proving the group never
            had a master; the handoff wait-out may be skipped.
    """

    kind: str
    message: ProposeRequest | None = None
    retry_after: float = 0.0
    expiry: float = 0.0
    virgin: bool = False


class Proposer:
    """PaxosLease proposer: runs prepare/propose rounds for its own lease.

    One round at a time; replies for any other ballot (stale, duplicated
    or reordered) are ignored.  The surrounding engine owns timers: it
    calls :meth:`start_round`, transmits what this class returns, feeds
    replies back in, and aborts the round on its own timeout.
    """

    def __init__(
        self,
        name: str,
        node_index: int,
        n_replicas: int,
        master_term: float,
        epsilon: float = 0.0,
        drift_bound: float = 0.0,
    ):
        if not 0 <= node_index < n_replicas:
            raise ValueError(f"node_index {node_index} out of range of {n_replicas}")
        self.name = name
        self.node_index = node_index
        self.n_replicas = n_replicas
        self.master_term = master_term
        self.epsilon = epsilon
        self.drift_bound = drift_bound
        self.round = 0
        self.ballot = 0
        #: "idle" | "preparing" | "proposing" — the *round* phase;
        #: whether we currently hold the lease is :meth:`holds_lease`.
        self.phase = "idle"
        #: Local-clock end of our master-lease validity (0.0 = never held).
        self.lease_expiry = 0.0
        self._promises: set[str] = set()
        self._accepts: set[str] = set()
        self._proposal: ProposeRequest | None = None
        self._foreign_remaining = 0.0
        self._any_history = False
        self._virgin_round = False
        self._anchor = 0.0

    @property
    def majority(self) -> int:
        """Promises/accepts needed: a strict majority of the group."""
        return self.n_replicas // 2 + 1

    def holds_lease(self, now: float) -> bool:
        """True while this proposer may consider itself the holder."""
        return now < self.lease_expiry

    def start_round(self, now: float) -> PrepareRequest:
        """Begin a new round; returns the prepare to broadcast (self too)."""
        self.round += 1
        self.ballot = ballot_number(self.round, self.node_index, self.n_replicas)
        self.phase = "preparing"
        self._promises = set()
        self._accepts = set()
        self._foreign_remaining = 0.0
        self._any_history = False
        self._virgin_round = False
        self._anchor = now
        return PrepareRequest(ballot=self.ballot)

    def in_flight(self) -> tuple[PrepareRequest | ProposeRequest, set[str]]:
        """The running round's current request and the acceptors that have
        answered it, so the engine can re-send a lost leg.

        Both phases are idempotent at an acceptor: an equal ballot
        re-promises, and a re-accepted proposal only restarts the
        acceptor's full term from the later receive, which stays later
        than this proposer's start-anchored validity.
        """
        if self.phase == "preparing":
            return PrepareRequest(ballot=self.ballot), self._promises
        return self._proposal, self._accepts

    def abort_round(self) -> None:
        """Abandon the in-flight round (engine-side round timeout)."""
        self.phase = "idle"

    def on_prepare_reply(self, src: str, msg: PrepareReply, now: float) -> Outcome:
        """Feed in one acceptor's phase-1 reply; returns what to do next.

        At a counted majority of promises: :data:`BACKOFF` for any live
        foreign lease (never compete with an unexpired holder), else
        :data:`PROPOSE` with the request to broadcast.
        """
        if self.phase != "preparing" or msg.ballot != self.ballot:
            return Outcome(NONE)
        if not msg.promised:
            # A higher ballot is out there; yield the floor.
            self.phase = "idle"
            return Outcome(BACKOFF)
        if msg.accepted_ballot and msg.accepted_holder != self.name:
            self._foreign_remaining = max(
                self._foreign_remaining, msg.accepted_expires_in
            )
        if msg.ever_accepted:
            self._any_history = True
        self._promises.add(src)
        if len(self._promises) < self.majority:
            return Outcome(NONE)
        if self._foreign_remaining > 0.0:
            # Someone else's lease is (or may still be) live: never compete
            # with an unexpired lease — wait it out instead.  This check is
            # what makes at-most-one-master hold: the previous holder's
            # accept majority intersects our prepare majority, so a live
            # lease is always reported by at least one counted promise.
            self.phase = "idle"
            return Outcome(BACKOFF, retry_after=self._foreign_remaining)
        self.phase = "proposing"
        self._virgin_round = not self._any_history
        self._proposal = ProposeRequest(
            ballot=self.ballot, holder=self.name, term=self.master_term
        )
        return Outcome(PROPOSE, message=self._proposal)

    def on_propose_reply(self, src: str, msg: ProposeReply, now: float) -> Outcome:
        """Feed in one acceptor's phase-2 reply; returns what to do next.

        At a majority of accepts the lease is won: :data:`ELECTED`, with
        the drift-shrunk local validity in ``expiry``.
        """
        if self.phase != "proposing" or msg.ballot != self.ballot:
            return Outcome(NONE)
        if not msg.accepted:
            self.phase = "idle"
            return Outcome(BACKOFF)
        self._accepts.add(src)
        if len(self._accepts) < self.majority:
            return Outcome(NONE)
        self.phase = "idle"
        # Validity anchored at round *start* (the prepare send): every
        # acceptor anchored later (at its propose receive) with the full
        # term, so our shrunk window closes first in real time.
        self.lease_expiry = safe_local_expiry(
            self._anchor, self.master_term, self.epsilon, self.drift_bound
        )
        return Outcome(ELECTED, expiry=self.lease_expiry, virgin=self._virgin_round)
