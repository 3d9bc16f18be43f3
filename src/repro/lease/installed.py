"""The installed-files optimization (§4).

Installed files — commands, headers, libraries — are widely shared, heavily
read and almost never written (about half of all reads in the V trace, and
no writes).  Handling them with per-client leases would make the server
track every client and, on update, contact them all (and absorb the reply
implosion).  Instead:

* a small number of **cover leases** (one per major directory) covers all
  installed files;
* the server **periodically multicasts** an extension of the active covers
  to all clients — no per-client record, no client extension requests;
* to write an installed file the server simply **drops its cover from the
  announcement** and waits for the previously announced term to run out
  (delayed update) — no callbacks, no implosion.

:class:`InstalledFileManager` is the server-side bookkeeping; the client
side is :meth:`repro.lease.holder.LeaseSet.extend_cover`.

The delayed update is not a separate wait in the server: the expiry
:meth:`InstalledFileManager.begin_write` returns (plus the announce
grace) becomes the ``not_before`` of an ordinary write gate
(``repro.protocol.server._Gate``), and so does
:meth:`InstalledFileManager.demotion_barrier` for a datum that just left
a cover — both are "leases the table has no record of".
"""

from __future__ import annotations

from repro.types import DatumId


class InstalledFileManager:
    """Server-side state for multicast-extended cover leases."""

    def __init__(self, announce_period: float = 5.0, term: float = 10.0):
        if announce_period <= 0:
            raise ValueError(f"announce period must be positive: {announce_period}")
        if term <= announce_period:
            raise ValueError(
                f"term ({term}) must exceed the announce period "
                f"({announce_period}) or covers lapse between announcements"
            )
        self.announce_period = announce_period
        self.term = term
        self._members: dict[str, set[DatumId]] = {}
        self._cover_of: dict[DatumId, str] = {}
        #: Cover *generation*: demoting a datum bumps its cover's
        #: generation, which changes the announced (versioned) cover id.
        #: Clients treat cover ids as opaque, so holdings riding the old id
        #: simply stop being extended and lapse within one term — the only
        #: sound way to shrink coverage without contacting every client.
        self._generation: dict[str, int] = {}
        #: Datums recently demoted: server-clock time until which writes
        #: must still honor possibly-outstanding cover leases.
        self._demoted_until: dict[DatumId, float] = {}
        #: Covers currently withheld from announcements (update in progress),
        #: mapped to the number of in-flight writes on their datums.
        self._excluded: dict[str, int] = {}
        #: Server-clock expiry of the most recent announcement, per cover.
        self._announced_expiry: dict[str, float] = {}

    def fresh(self) -> "InstalledFileManager":
        """The manager a restarted server starts from.

        Which files are installed, under which cover and at which cover
        generation is durable configuration and is carried over.  The
        announcement bookkeeping — what was last announced, which covers
        an update had withheld, demotion barriers — is volatile and starts
        clean: safe, because recovery delays every write past any
        pre-crash lease, and necessary, because a write in flight at the
        crash will never call :meth:`finish_write` and would otherwise
        keep its cover out of the announcements for good.
        """
        manager = InstalledFileManager(self.announce_period, self.term)
        for cover, members in self._members.items():
            for datum in members:
                manager.register(cover, datum)
        manager._generation = dict(self._generation)
        return manager

    # -- membership ------------------------------------------------------------

    def register(self, cover: str, datum: DatumId) -> None:
        """Place ``datum`` under cover lease ``cover``."""
        old = self._cover_of.get(datum)
        if old is not None and old != cover:
            self._members[old].discard(datum)
        self._members.setdefault(cover, set()).add(datum)
        self._cover_of[datum] = cover

    def unregister(self, datum: DatumId) -> str | None:
        """Remove ``datum`` from its cover (coverage demotion, §7).

        Bumps the cover's generation: the previously announced (versioned)
        cover id is never announced again, so every client's holdings
        under it — including the remaining members', which re-ride the new
        id at their next fetch — lapse within one term.  Writes to the
        demoted datum must wait out :meth:`demotion_barrier`.

        Returns:
            The base cover it was removed from, or None if not covered.
        """
        cover = self._cover_of.pop(datum, None)
        if cover is None:
            return None
        self._demoted_until[datum] = self._announced_expiry.get(cover, 0.0)
        self._generation[cover] = self._generation.get(cover, 1) + 1
        members = self._members.get(cover)
        if members is not None:
            members.discard(datum)
            if not members:
                del self._members[cover]
                self._excluded.pop(cover, None)
                self._announced_expiry.pop(cover, None)
        return cover

    def demotion_barrier(self, datum: DatumId) -> float:
        """Server-clock time until which a recently demoted datum may
        still be covered by an old announcement at some client."""
        return self._demoted_until.get(datum, 0.0)

    def versioned_id(self, cover: str) -> str:
        """The announced id of a cover: the base name, suffixed with the
        generation once it has ever been bumped (kept plain before that
        for readability)."""
        gen = self._generation.get(cover, 1)
        return cover if gen == 1 else f"{cover}#g{gen}"

    def cover_of(self, datum: DatumId) -> str | None:
        """The (versioned) cover lease id for ``datum``, or None."""
        base = self._cover_of.get(datum)
        return None if base is None else self.versioned_id(base)

    def members(self, cover: str) -> set[DatumId]:
        """Datums under ``cover``."""
        return set(self._members.get(cover, ()))

    def covers(self) -> set[str]:
        """All cover ids, active or excluded."""
        return set(self._members)

    # -- announcements -------------------------------------------------------------

    def announcement(self, now: float) -> tuple[list[str], float]:
        """Compose the periodic multicast: (active cover ids, term).

        Excluded covers (update in progress) are simply omitted; their
        leases then lapse everywhere within one term, letting the write
        proceed without contacting any client.  Calling this records the
        announced expiry :meth:`begin_write` returns.
        """
        active = sorted(c for c in self._members if c not in self._excluded)
        for cover in active:
            self._announced_expiry[cover] = now + self.term
        return [self.versioned_id(c) for c in active], self.term

    # -- delayed update --------------------------------------------------------------

    def begin_write(self, datum: DatumId, now: float) -> float:
        """Start an update of an installed file.

        Returns the server-clock time at which the write may commit: the
        expiry of the cover's last announcement (``now`` if never
        announced).  The cover stops being announced until
        :meth:`finish_write`.
        """
        cover = self._cover_of.get(datum)
        if cover is None:
            raise KeyError(f"{datum} is not an installed file")
        self._excluded[cover] = self._excluded.get(cover, 0) + 1
        return self._announced_expiry.get(cover, now)

    def finish_write(self, datum: DatumId) -> None:
        """Complete an update; the cover resumes being announced once no
        writes on any of its datums remain in flight.

        The cover's generation is bumped: re-announcing the *old* id would
        revive expired leases over stale cached copies at every client, so
        the resumed announcements use a fresh id and clients refetch the
        covered datums on next use (cheap, because updates are rare — §4).
        """
        cover = self._cover_of.get(datum)
        if cover is None:
            raise KeyError(f"{datum} is not an installed file")
        remaining = self._excluded.get(cover, 0) - 1
        if remaining <= 0:
            self._excluded.pop(cover, None)
            self._generation[cover] = self._generation.get(cover, 1) + 1
        else:
            self._excluded[cover] = remaining

    def write_pending(self, datum: DatumId) -> bool:
        """True while an update of ``datum``'s cover is in flight."""
        cover = self._cover_of.get(datum)
        return cover is not None and cover in self._excluded
