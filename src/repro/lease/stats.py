"""Per-datum access-rate estimation for adaptive term policies.

Section 4 of the paper: "a server can dynamically pick lease terms on a per
file and per client cache basis using the analytic model, assuming the
necessary performance parameters are monitored by the server."  This module
is that monitoring: exponentially decayed estimates of each datum's read
rate ``R``, write rate ``W``, and sharing degree ``S``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field


class RateEstimator:
    """Exponentially decayed event-rate estimate (events per second).

    Each recorded event contributes weight 1, decayed with time constant
    ``tau``; the rate estimate is ``weight / tau``.  With events arriving at
    constant rate ``r`` the weight converges to ``r * tau``, so the estimate
    converges to ``r``.  A ``tau`` of 30-120 s tracks the paper's
    "observed file access characteristics" at a useful granularity.
    """

    __slots__ = ("tau", "_weight", "_last")

    def __init__(self, tau: float = 60.0):
        if tau <= 0:
            raise ValueError(f"tau must be positive: {tau}")
        self.tau = tau
        self._weight = 0.0
        self._last = None  # type: float | None

    def record(self, now: float, count: float = 1.0) -> None:
        """Record ``count`` events at time ``now``."""
        self._decay_to(now)
        self._weight += count

    def rate(self, now: float) -> float:
        """Current rate estimate in events per second."""
        self._decay_to(now)
        return self._weight / self.tau

    def _decay_to(self, now: float) -> None:
        last = self._last
        if last is None:
            self._last = now
            return
        if now <= last:
            # Same-instant (exp(0) == 1) or a slightly out-of-order
            # observation; clamp rather than grow.
            return
        self._weight *= math.exp(-(now - last) / self.tau)
        self._last = now


@dataclass(slots=True)
class DatumStats:
    """Observed access characteristics of one datum.

    Attributes:
        reads: estimated aggregate read/extension rate (R summed over clients).
        writes: estimated aggregate write rate (W summed over clients).
        sharing: smoothed number of caches holding the datum at write time
            (the paper's S); starts at 1 (the writer itself).
    """

    reads: RateEstimator = field(default_factory=RateEstimator)
    writes: RateEstimator = field(default_factory=RateEstimator)
    sharing: float = 1.0
    _sharing_gain: float = 0.25

    def record_read(self, now: float) -> None:
        """Record a read or lease-extension touch."""
        self.reads.record(now)

    def record_write(self, now: float, holders_at_write: int) -> None:
        """Record a write and the observed sharing level at that instant."""
        self.writes.record(now)
        observed = max(1, holders_at_write)
        self.sharing += self._sharing_gain * (observed - self.sharing)

    def snapshot(self, now: float) -> tuple[float, float, float]:
        """Return (R, W, S) estimates at ``now``."""
        return self.reads.rate(now), self.writes.rate(now), self.sharing
