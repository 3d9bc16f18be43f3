"""Adaptive lease *coverage* (§7).

The paper closes by planning "adaptive policies that vary the coverage and
term of leases in response to system behavior in place of static,
administratively set policies."  Term adaptation is
:class:`~repro.lease.policy.AdaptiveTermPolicy`; this module adapts
**coverage**: the server watches per-datum access statistics and

* **promotes** heavily read, rarely written, widely shared file datums
  into an installed cover — they stop costing per-client lease records
  and extension requests, riding the multicast announcements instead;
* **demotes** covered datums that start taking writes back to ordinary
  per-client leases, where the approval protocol handles the sharing.

Both transitions preserve consistency, and neither needs a wait of its
own — each is an input to the server's one write gate
(``repro.protocol.server._Gate``).  After a promotion, per-client leases
granted before it are still in the lease table, so a covered write calls
their holders back like any write; the cover's last announcement is its
``not_before``.  Demotion bumps the cover's generation (the old
announced id lapses everywhere within one term) and the last old
announcement's expiry — the demotion barrier — is the ``not_before`` of
writes to the demoted datum.  See ``repro/lease/installed.py``.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.lease.installed import InstalledFileManager
from repro.protocol.effects import Effect, SetTimer
from repro.protocol.server import ServerEngine
from repro.types import DatumId, DatumKind


@dataclass(frozen=True)
class CoveragePolicy:
    """Thresholds for promotion and demotion.

    Attributes:
        period: how often coverage is re-evaluated, seconds.
        promote_read_rate: minimum observed aggregate read rate.
        promote_max_write_rate: maximum write rate for promotion.
        demote_write_rate: write rate at which a covered datum is demoted.
        auto_cover: base name of the cover promoted datums join.
    """

    period: float = 30.0
    promote_read_rate: float = 0.5
    promote_max_write_rate: float = 0.001
    demote_write_rate: float = 0.01
    auto_cover: str = "cover:auto"


class AdaptiveCoverageServerEngine(ServerEngine):
    """Server engine that re-evaluates lease coverage periodically.

    Requires an :class:`InstalledFileManager` (the coverage substrate);
    constructing without one creates an empty manager so promotion can
    begin from nothing.
    """

    coverage_policy = CoveragePolicy()
    #: Promotion and demotion read the per-datum statistics.
    reads_stats = True

    def __init__(self, *args, **kwargs):
        if kwargs.get("installed") is None:
            kwargs["installed"] = InstalledFileManager(
                announce_period=5.0, term=10.0
            )
        super().__init__(*args, **kwargs)
        self.promotions = 0
        self.demotions = 0

    def startup_effects(self, now: float) -> list[Effect]:
        effects = super().startup_effects(now)
        effects.append(SetTimer("coverage", self.coverage_policy.period))
        return effects

    def handle_timer(self, key: str, now: float) -> list[Effect]:
        if key == "coverage":
            self._adapt_coverage(now)
            return [SetTimer("coverage", self.coverage_policy.period)]
        return super().handle_timer(key, now)

    def _adapt_coverage(self, now: float) -> None:
        policy = self.coverage_policy
        for datum, stats in self.stats.items():
            if datum.kind is not DatumKind.FILE or not self.store.datum_exists(datum):
                continue
            reads, writes, _sharing = stats.snapshot(now)
            covered = self.installed.cover_of(datum) is not None
            if covered:
                if writes >= policy.demote_write_rate and not self.installed.write_pending(datum):
                    self.installed.unregister(datum)
                    self.demotions += 1
            elif (
                reads >= policy.promote_read_rate
                and writes <= policy.promote_max_write_rate
            ):
                self.installed.register(policy.auto_cover, datum)
                self.promotions += 1

    def covered_datums(self) -> set[DatumId]:
        """Currently covered file datums (for tests and introspection)."""
        return {
            d
            for cover in self.installed.covers()
            for d in self.installed.members(cover)
        }
