"""Client-side lease holdings.

A cache must hold a *valid* lease on a datum (besides the datum itself)
before serving a read or accepting a write.  :class:`LeaseSet` tracks the
client's conservative view of each lease's expiry — computed with
:func:`repro.clock.sync.safe_local_expiry` from the request's send time —
and answers the one question the batching rule of §3.1 ("a cache should
extend together all leases over all files that it still holds") comes down
to on a miss: *which* holdings are worth a place in the request
(:meth:`LeaseSet.refresh_set`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Container

from repro.types import DatumId


@dataclass(slots=True)
class Holding:
    """The client's record of one lease.

    Attributes:
        datum: covered datum.
        expires_local: local-clock time after which the lease must not be
            used (already includes the epsilon/drift safety margins).
        renew_local: local-clock time from which the lease is *due* — worth
            re-requesting whenever an extension is sent anyway (see
            :class:`LeaseSet`).  Never later than ``expires_local``.
        cover: id of the installed-files cover lease this datum rides on,
            or None for an ordinary per-client lease.
    """

    datum: DatumId
    expires_local: float
    renew_local: float
    cover: str | None = None


class LeaseSet:
    """All leases a client currently knows about.

    **What an extension asks for.**  §3.1 batches extensions so that the
    cache pays one round trip per term, not one per file.  Taken literally
    ("all leases it still holds") every miss would re-request every lease,
    fresh or not; the server and the codec then do work proportional to the
    holdings for a request that needed one datum.  :meth:`refresh_set`
    instead selects the holdings that *lack something*: a lease that is
    **due**, or a resident copy that has been invalidated.

    A lease is due once it has expired or passed the midpoint between the
    local send time of the request that granted it and its local expiry (an
    infinite term has no midpoint and is never due).  The half is derived,
    not tuned.  Let T be the term.  An extension sent at t0 renews every
    lease in its last half-term, so afterwards every holding expires either
    at t0 + T (just renewed) or in (t0 + T/2, t0 + T] (was in its first
    half, left alone).  The next expiry-driven miss therefore falls at some
    t1 in (t0 + T/2, t0 + T], and at t1 *every* holding expires before
    t1 + T/2 — all of them are due and ride on that one request.  From then
    on the whole set shares one expiry and the traffic is the paper's one
    request per term; from any starting state it takes at most those two
    rounds to get there.  A smaller fraction would re-grant leases with
    most of their term left on every miss; a larger one would leave
    holdings just short of due at t1 to expire on their own, each costing a
    request of its own.

    The rule selects only what to *ask for*.  What may be *served* is still
    :meth:`valid` — ``now < expires_local`` — and nothing else.
    """

    def __init__(self) -> None:
        self._holdings: dict[DatumId, Holding] = {}
        self._covers: dict[str, set[DatumId]] = {}

    def add(
        self,
        datum: DatumId,
        expires_local: float,
        cover: str | None = None,
        sent_local: float | None = None,
    ) -> Holding:
        """Record a granted or extended lease.

        Extension never moves expiry backward: a shorter re-grant keeps the
        longer previously promised validity (mirrors ``LeaseTable.grant``), and
        with it the later renew point.

        Args:
            sent_local: local send time of the request this grant answers;
                the lease is due from the midpoint between it and
                ``expires_local``.  Without one it is due only once expired.
        """
        renew_local = expires_local
        if sent_local is not None:
            renew_local = min(expires_local, (sent_local + expires_local) / 2)
        holding = self._holdings.get(datum)
        if holding is None:
            holding = Holding(datum, expires_local, renew_local, cover)
            self._holdings[datum] = holding
        else:
            holding.expires_local = max(holding.expires_local, expires_local)
            holding.renew_local = max(holding.renew_local, renew_local)
            if cover is not None:
                holding.cover = cover
        if holding.cover is not None:
            self._covers.setdefault(holding.cover, set()).add(datum)
        return holding

    def valid(self, datum: DatumId, now: float) -> bool:
        """True when the client may rely on its lease over ``datum``."""
        holding = self._holdings.get(datum)
        return holding is not None and now < holding.expires_local

    def expires_at(self, datum: DatumId) -> float | None:
        """Local expiry of the holding, or None if unknown datum."""
        holding = self._holdings.get(datum)
        return None if holding is None else holding.expires_local

    def drop(self, datum: DatumId) -> None:
        """Forget a lease (relinquish, or server told us it is void)."""
        holding = self._holdings.pop(datum, None)
        if holding is not None and holding.cover is not None:
            members = self._covers.get(holding.cover)
            if members:
                members.discard(datum)
                if not members:
                    del self._covers[holding.cover]

    def clear(self) -> None:
        """Forget everything — the client's volatile state on crash."""
        self._holdings.clear()
        self._covers.clear()

    # -- batching support (§3.1) ------------------------------------------------

    def held_datums(self) -> set[DatumId]:
        """Every datum with a holding, valid or expired."""
        return set(self._holdings)

    def refresh_set(self, now: float, stale: Container[DatumId]) -> list[DatumId]:
        """Datums to extend together: held leases that lack something.

        A holding is selected when its lease is due at ``now`` (see the
        class docstring) or it is in ``stale``, the datums whose cached copy
        needs refetching.  Cover-held (installed) datums are excluded: the
        server extends those by multicast and explicit requests would defeat
        the optimization.  Sorted by ``str``, so equal lease states give
        equal batches whatever order the holdings were added in.
        """
        return sorted(
            (
                d
                for d, h in self._holdings.items()
                if h.cover is None and (now >= h.renew_local or d in stale)
            ),
            key=str,
        )

    def expiring_before(self, deadline: float) -> list[DatumId]:
        """Datums whose holdings expire before ``deadline``.

        Used by the anticipatory-extension option (§4) to renew ahead of
        need.
        """
        return sorted(
            (d for d, h in self._holdings.items() if h.expires_local < deadline),
            key=str,
        )

    # -- installed-file covers ------------------------------------------------------

    def extend_cover(self, cover: str, expires_local: float) -> int:
        """Extend every datum riding on ``cover`` (multicast announce).

        Returns the number of holdings extended.
        """
        members = self._covers.get(cover, ())
        for datum in members:
            holding = self._holdings[datum]
            holding.expires_local = max(holding.expires_local, expires_local)
        return len(members)

    def cover_members(self, cover: str) -> set[DatumId]:
        """Datums this client holds under ``cover``."""
        return set(self._covers.get(cover, ()))

    def __len__(self) -> int:
        return len(self._holdings)

    def __contains__(self, datum: DatumId) -> bool:
        return datum in self._holdings
