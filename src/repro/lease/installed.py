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

Which files are installed, and under which cover, is fixed when the
manager is built (:func:`installed_covers`); the announce period is the
server's (``ServerConfig.announce_period``).

The delayed update is not a separate wait in the server: the expiry
:meth:`InstalledFileManager.begin_write` returns (plus the announce
grace) becomes the ``not_before`` of an ordinary write gate
(``repro.protocol.server._Gate``) — "leases the table has no record of".
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping

from repro.storage.store import FileStore
from repro.types import DatumId, FileClass


def installed_covers(store: FileStore) -> dict[str, set[DatumId]]:
    """The store's installed files, one cover per parent directory: the
    files of ``/bin`` under ``cover:/bin``."""
    covers: dict[str, set[DatumId]] = {}
    namespace = store.namespace
    walk = [("", namespace.ROOT_ID)]
    while walk:
        path, dir_id = walk.pop()
        for entry in namespace.dir_of(dir_id).entries.values():
            if entry.is_dir:
                walk.append((f"{path}/{entry.name}", entry.target))
            elif store.file(entry.target).file_class is FileClass.INSTALLED:
                covers.setdefault(f"cover:{path}", set()).add(DatumId.file(entry.target))
    return covers


class InstalledFileManager:
    """Server-side state for multicast-extended cover leases: ``covers``
    (cover name -> its datums, fixed for good; ValueError for a datum in
    two) announced with ``term``."""

    def __init__(self, covers: Mapping[str, Iterable[DatumId]], term: float = 10.0):
        self.term = term
        self._members = {cover: frozenset(datums) for cover, datums in covers.items()}
        self._cover_of: dict[DatumId, str] = {}
        for cover, members in self._members.items():
            for datum in members:
                other = self._cover_of.setdefault(datum, cover)
                if other != cover:
                    raise ValueError(f"{datum} is under two covers: {other} and {cover}")
        #: Cover *generation*: finishing an update bumps its cover's
        #: generation, which changes the announced (versioned) cover id.
        #: Clients treat cover ids as opaque, so holdings riding the old id
        #: simply stop being extended and lapse within one term.
        self._generation: dict[str, int] = {}
        #: Covers currently withheld from announcements (update in progress),
        #: mapped to the number of in-flight writes on their datums.
        self._excluded: dict[str, int] = {}
        #: Server-clock expiry of the most recent announcement, per cover
        #: base name (a generation bump does not reset it).
        self._announced_expiry: dict[str, float] = {}

    def fresh(self) -> "InstalledFileManager":
        """The manager a restarted server starts from.

        Which files are installed, under which cover and at which cover
        generation is durable configuration and is carried over.  The
        announcement bookkeeping — what was last announced, which covers
        an update had withheld — is volatile and starts clean: safe,
        because recovery delays every write past any pre-crash lease, and
        necessary, because a write in flight at the crash will never call
        :meth:`finish_write` and would otherwise keep its cover out of the
        announcements for good.
        """
        manager = InstalledFileManager(self._members, self.term)
        manager._generation = dict(self._generation)
        return manager

    # -- membership ------------------------------------------------------------

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

    def covers(self) -> set[str]:
        """All cover ids, active or excluded."""
        return set(self._members)

    def covered_grant(self, datum: DatumId, now: float) -> tuple[float, str] | None:
        """(What remains of the last announcement of ``datum``'s cover, its
        announced id), or None for a datum under no cover."""
        base = self._cover_of.get(datum)
        if base is None:
            return None
        term = self._announced_expiry.get(base, now) - now
        return max(0.0, term), self.versioned_id(base)

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
