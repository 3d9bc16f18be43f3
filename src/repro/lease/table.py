"""Server-side lease bookkeeping.

The :class:`LeaseTable` records, per datum, which clients hold leases and
which writes are waiting.  It enforces the paper's two server-side rules:

* a write may commit only once **every** live leaseholder has approved it or
  let its lease expire;
* while a write is waiting, **no new leases are granted** on that datum
  (footnote 1 — this prevents write starvation).

The table is pure bookkeeping: it never does I/O and takes an explicit
``now`` everywhere, so the protocol engines can drive it from simulated or
real time.  Storage cost matches the paper's observation ("each lease
requires only a couple of pointers", §2): a lease is one entry of its
datum's ``holder -> expiry`` dict, the expiry a float on the server's
clock.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Any, Iterator

from repro.errors import LeaseDeniedError
from repro.obs.bus import NULL_BUS
from repro.obs.events import LEASE_EXPIRE, LEASE_GRANT, LEASE_RELEASE, LEASE_RENEW
from repro.types import DatumId, HostId


@dataclass
class PendingWrite:
    """A write waiting for leaseholder approval or lease expiry.

    This is §2's write rule, stated once: the write proceeds when every
    holder it awaits has approved or that holder's lease has run out —
    and not before ``not_before``, which stands for leases the table
    keeps no record of.

    Attributes:
        datum: the datum being written.
        writer: the requesting client (its approval is implicit, §3.1).
        write_id: server-assigned id used to match approval replies.
        awaiting: holders whose approval is still outstanding.
        expiries: each awaited holder's lease expiry as of ``begin_write``
            (:meth:`LeaseTable.grant` renews no lease while the write is
            pending — the starvation guard — so these stay accurate).
        not_before: a server-clock time no approval can pull the deadline
            below: the last announced expiry of an installed cover, or the
            demotion barrier of a datum that just left one (nobody can be
            asked, so those leases are only ever waited out).  Never
            lowered once set.
    """

    datum: DatumId
    writer: HostId
    write_id: int
    awaiting: set[HostId] = field(default_factory=set)
    expiries: dict[HostId, float] = field(default_factory=dict)
    not_before: float = float("-inf")

    @property
    def deadline(self) -> float:
        """``max(not_before, expiries of the still-awaited)``.

        Dynamic on purpose: an approval or a voluntary relinquish removes
        a holder from ``awaiting`` and may pull the deadline in (found by
        the stateful property tests — a frozen deadline made writes wait
        for leases that no longer existed).  ``inf`` while an awaited
        lease is infinite; ``not_before`` (``-inf`` by default) once
        nothing is awaited.  A plain loop: this runs on every look at a
        waiting write, usually over one holder.
        """
        deadline = self.not_before
        expiries = self.expiries
        for holder in self.awaiting:
            expiry = expiries[holder]
            if expiry > deadline:
                deadline = expiry
        return deadline

    def ready(self, now: float) -> bool:
        """True once the write may commit: ``now >= deadline``."""
        return now >= self.deadline


class LeaseTable:
    """All lease state held by one server."""

    def __init__(self, obs: Any = None, owner: HostId | None = None) -> None:
        """Args:
            obs: optional :class:`~repro.obs.bus.TraceBus` receiving
                ``lease.*`` lifecycle events.
            owner: host id stamped on emitted events (the owning server).
        """
        #: datum -> holder -> server-clock expiry: the whole lease.
        self._by_datum: dict[DatumId, dict[HostId, float]] = {}
        self._pending: dict[DatumId, deque[PendingWrite]] = {}
        self._next_write_id = 1
        #: Largest term ever granted; a recovering server must delay all
        #: writes for this long (paper §2's crash-recovery rule).
        self.max_term_granted = 0.0
        self.obs = obs or NULL_BUS
        self.owner = owner

    # -- grants -------------------------------------------------------------

    def grant(self, datum: DatumId, holder: HostId, now: float, term: float) -> None:
        """Grant or extend a lease on ``datum`` to ``holder``.

        Extension never shortens a lease: a holder promised validity
        through its expiry keeps that promise even if the policy now
        assigns a shorter term.

        Raises:
            LeaseDeniedError: when a write is pending on the datum (the
                starvation guard) — callers normally check
                :meth:`write_pending` first and queue the request instead.
        """
        if self._pending and self._pending.get(datum):
            raise LeaseDeniedError(f"write pending on {datum}; no new leases")
        if term < 0:
            raise ValueError(f"negative lease term: {term}")
        by_datum = self._by_datum
        holders = by_datum.get(datum)
        if holders is not None:
            # _prune's own early exit, inlined: a grant is the hot caller.
            for expiry in holders.values():
                if now >= expiry:
                    self._prune(datum, now)
                    holders = by_datum.get(datum)
                    break
        if holders is None:
            holders = by_datum[datum] = {}
        expiry = holders.get(holder)
        expires = now + term
        renewal = expiry is not None and now < expiry
        if renewal:
            if expires > expiry:
                holders[holder] = expires
        else:
            holders[holder] = expires
        if term > self.max_term_granted:
            self.max_term_granted = term
        if self.obs.active:
            self.obs.emit(
                LEASE_RENEW if renewal else LEASE_GRANT, now, self.owner,
                datum=str(datum), holder=holder, term=term,
            )

    def release(self, datum: DatumId, holder: HostId, now: float = 0.0) -> None:
        """Relinquish a lease voluntarily (client option, §4).

        Args:
            now: event timestamp for tracing (bookkeeping is time-free).
        """
        holders = self._by_datum.get(datum)
        if holders and holder in holders:
            del holders[holder]
            if not holders:
                del self._by_datum[datum]
            if self.obs.active:
                self.obs.emit(
                    LEASE_RELEASE, now, self.owner, datum=str(datum), holder=holder
                )
        self._on_holder_gone(datum, holder)

    # -- queries ------------------------------------------------------------

    def expiry_of(self, datum: DatumId, holder: HostId) -> float | None:
        """The recorded expiry, passed or not, or None if never granted."""
        holders = self._by_datum.get(datum)
        return None if holders is None else holders.get(holder)

    def live_holders(self, datum: DatumId, now: float) -> set[HostId]:
        """Clients whose leases on ``datum`` are still valid at ``now``."""
        return {
            holder
            for holder, expiry in self._by_datum.get(datum, {}).items()
            if now < expiry
        }

    def lease_count(self) -> int:
        """Total lease records currently stored (storage-cost metric, §2)."""
        return sum(len(holders) for holders in self._by_datum.values())

    def iter_leases(self) -> Iterator[tuple[DatumId, HostId, float]]:
        """Every stored lease as ``(datum, holder, expiry)``."""
        for datum, holders in self._by_datum.items():
            for holder, expiry in holders.items():
                yield datum, holder, expiry

    # -- writes ----------------------------------------------------------------

    def write_pending(self, datum: DatumId) -> bool:
        """True when at least one write is queued on ``datum``."""
        return bool(self._pending.get(datum))

    def begin_write(
        self,
        datum: DatumId,
        writer: HostId,
        now: float,
        not_before: float = float("-inf"),
        only: HostId | None = None,
    ) -> PendingWrite:
        """Queue a write and compute whose approval it needs.

        The requester's own approval is implicit (it rides on the write
        request, §3.1), so only *other* live holders are awaited — or
        just ``only``, if given and live (a write lease's recall awaits
        its owner alone).  Holders with already-expired leases are
        ignored.  ``not_before`` is the floor under the deadline for
        leases this table has no record of (see :class:`PendingWrite`).
        """
        self._prune(datum, now)
        live = self.live_holders(datum, now)
        awaiting = live - {writer} if only is None else live & {only}
        holders = self._by_datum.get(datum, {})
        expiries = {holder: holders[holder] for holder in awaiting}
        write = PendingWrite(
            datum=datum,
            writer=writer,
            write_id=self._next_write_id,
            awaiting=awaiting,
            expiries=expiries,
            not_before=not_before,
        )
        self._next_write_id += 1
        self._pending.setdefault(datum, deque()).append(write)
        return write

    def head_write(self, datum: DatumId) -> PendingWrite | None:
        """The write currently collecting approvals (writes serialize)."""
        queue = self._pending.get(datum)
        return queue[0] if queue else None

    def approve(self, datum: DatumId, holder: HostId, write_id: int) -> PendingWrite | None:
        """Record a holder's approval.

        An approving holder also invalidates its cached copy (client side),
        but its *lease* remains in force; subsequent writes must ask again.

        Returns:
            The pending write if the approval matched it, else None (stale
            or duplicate approvals are ignored).
        """
        write = self.head_write(datum)
        if write is None or write.write_id != write_id:
            return None
        write.awaiting.discard(holder)
        return write

    def finish_write(self, datum: DatumId, write_id: int) -> None:
        """Remove a committed (or aborted) write from the queue."""
        queue = self._pending.get(datum)
        if not queue:
            return
        if queue[0].write_id != write_id:
            raise LeaseDeniedError(
                f"finish_write out of order on {datum}: head={queue[0].write_id}, got={write_id}"
            )
        queue.popleft()
        if not queue:
            del self._pending[datum]

    # -- maintenance -----------------------------------------------------------

    def expire_sweep(self, now: float) -> int:
        """Reclaim expired lease records; returns how many were removed.

        Short terms keep this table small (§2): expired records are garbage.
        """
        removed = 0
        for datum in list(self._by_datum):
            removed += self._prune(datum, now)
        return removed

    def clear(self) -> float:
        """Forget everything — models the server's volatile state on crash.

        Returns:
            The pre-crash :attr:`max_term_granted`.  A restarting server
            needs exactly this value as its write-delay bound (paper §2's
            crash rule) even though every lease record is gone, so the
            only way to drop the table is to be handed the bound —
            restart paths cannot lose it silently.
        """
        bound = self.max_term_granted
        self._by_datum.clear()
        self._pending.clear()
        self.max_term_granted = 0.0
        return bound

    # -- internals ----------------------------------------------------------------

    def _prune(self, datum: DatumId, now: float) -> int:
        holders = self._by_datum.get(datum)
        if not holders:
            return 0
        # A datum usually has one or two holders: looking at each expiry
        # allocates nothing, and the common case (none has passed) ends here.
        for expiry in holders.values():
            if now >= expiry:
                break
        else:
            return 0
        dead = [h for h, expiry in holders.items() if now >= expiry]
        obs = self.obs
        for holder in dead:
            del holders[holder]
            if obs.active:
                obs.emit(
                    LEASE_EXPIRE, now, self.owner, datum=str(datum), holder=holder
                )
        if not holders:
            del self._by_datum[datum]
        return len(dead)

    def _on_holder_gone(self, datum: DatumId, holder: HostId) -> None:
        """A released lease no longer blocks any pending write.

        Every *queued* write snapshots its awaited holders at
        ``begin_write``, so the release must be swept through the whole
        queue, not just the head — otherwise a write that reaches the
        head after the release keeps waiting for the vanished lease's
        original expiry (found by the stateful property tests: grant,
        queue two writes, release, commit the first — the second write
        reported not-ready with no live holder left).
        """
        for write in self._pending.get(datum, ()):
            write.awaiting.discard(holder)
