"""Lease term policies (§4, "Options for Lease Management").

The server controls the term of every lease it grants.  Policies map a
datum (plus optionally its observed access statistics and the requesting
client) to a term in seconds:

* :class:`FixedTermPolicy` — the paper's main configuration (e.g. 10 s).
* :class:`ZeroTermPolicy` — degenerates to check-on-use (Sprite / RFS /
  the Andrew prototype, §6).
* :class:`InfiniteTermPolicy` — degenerates to Andrew-style callbacks
  (§6), trading fault-tolerance for minimal traffic.
* :class:`PerClassPolicy` — per-file-class terms: e.g. zero for heavily
  write-shared files, long terms for installed files.
* :class:`DistanceCompensatingPolicy` — enlarges the term for distant
  clients so the *effective* client-side term is preserved (§4).
* :class:`AdaptiveTermPolicy` — picks terms from the analytic model using
  the server's observed per-datum R/W/S estimates (§4, §7).
"""

from __future__ import annotations

import dataclasses
import math
from typing import Mapping, Protocol

from repro.analytic import model as analytic
from repro.analytic.params import SystemParams
from repro.lease.lease import INFINITE_TERM
from repro.lease.stats import DatumStats
from repro.types import DatumId, FileClass, HostId


class TermPolicy(Protocol):
    """Decides the term for a lease grant or extension."""

    def term(
        self,
        datum: DatumId,
        client: HostId,
        now: float,
        stats: DatumStats | None = None,
        file_class: FileClass = FileClass.NORMAL,
    ) -> float:
        """Return the lease term in seconds (0 = no lease, inf = callback)."""
        ...

    def longest_term(self) -> float:
        """The longest term :meth:`term` can ever return (inf if unbounded).

        Anything that must out-wait every lease this policy granted — a
        new master's handoff wait, a restarted replica's abstention —
        is sized by this, so it must be an upper bound, never a guess.
        """
        ...


def reads_stats(policy: TermPolicy) -> bool:
    """True when ``policy.term`` may look at its ``stats`` argument.

    A server keeps per-datum statistics only for a policy (or an engine
    class) that reads them.  A policy states it with a ``reads_stats``
    attribute; one that does not is assumed to read them, since keeping
    statistics nobody reads costs memory, while withholding them from a
    policy that reads them would change its terms.
    """
    return getattr(policy, "reads_stats", True)


def longest_finite_term(policy: TermPolicy) -> float:
    """``policy.longest_term()``, required to exist and be finite.

    Raises:
        ValueError: the policy does not state a bound, or grants leases
            that never expire — there is no wait that out-waits those.
    """
    bound = getattr(policy, "longest_term", None)
    if bound is None:
        raise ValueError(f"{policy!r} does not state its longest_term()")
    longest = float(bound())
    if not math.isfinite(longest):
        raise ValueError(f"{policy!r} has no finite longest term: {longest}")
    return longest


class FixedTermPolicy:
    """Always grant the same term."""

    reads_stats = False

    def __init__(self, seconds: float):
        if seconds < 0:
            raise ValueError(f"negative term: {seconds}")
        self.seconds = seconds

    def term(self, datum, client, now, stats=None, file_class=FileClass.NORMAL) -> float:
        """The configured term, regardless of datum or client."""
        return self.seconds

    def longest_term(self) -> float:
        """The configured term."""
        return self.seconds

    def __repr__(self) -> str:
        return f"FixedTermPolicy({self.seconds!r})"


class ZeroTermPolicy(FixedTermPolicy):
    """Zero-term leases: every read checks with the server."""

    def __init__(self) -> None:
        super().__init__(0.0)


class InfiniteTermPolicy(FixedTermPolicy):
    """Infinite-term leases (callback scheme): leases never expire."""

    def __init__(self) -> None:
        super().__init__(INFINITE_TERM)


class PerClassPolicy:
    """Route to a sub-policy based on the file's access-characteristic class.

    The paper's §4 examples: heavily write-shared files get a zero term;
    installed files get long terms maintained by multicast.
    """

    def __init__(
        self,
        default: TermPolicy,
        by_class: Mapping[FileClass, TermPolicy] | None = None,
    ):
        self.default = default
        self.by_class = dict(by_class or {})

    @property
    def reads_stats(self) -> bool:
        """True when any sub-policy reads statistics."""
        return any(reads_stats(p) for p in (self.default, *self.by_class.values()))

    def term(self, datum, client, now, stats=None, file_class=FileClass.NORMAL) -> float:
        """Delegate to the sub-policy for the file's class."""
        policy = self.by_class.get(file_class, self.default)
        return policy.term(datum, client, now, stats=stats, file_class=file_class)

    def longest_term(self) -> float:
        """The longest term of any sub-policy."""
        return max(p.longest_term() for p in (self.default, *self.by_class.values()))


class DistanceCompensatingPolicy:
    """Wrap a policy, enlarging terms for distant clients (§4).

    "A lease given to a distant client could be increased to compensate for
    the amount the lease term is reduced by the propagation delay."  The
    compensation adds the client's grant overhead (``m_prop + 2*m_proc``)
    plus epsilon so that the *effective* term matches the inner policy's
    intent.  Zero and infinite terms pass through unchanged (a zero term
    must stay zero: a tiny positive term penalizes writes with no read
    benefit).
    """

    def __init__(
        self,
        inner: TermPolicy,
        overhead_of: Mapping[HostId, float],
        epsilon: float,
    ):
        self.inner = inner
        self.overhead_of = overhead_of
        self.epsilon = epsilon

    @property
    def reads_stats(self) -> bool:
        """True when the inner policy reads statistics."""
        return reads_stats(self.inner)

    def term(self, datum, client, now, stats=None, file_class=FileClass.NORMAL) -> float:
        """The inner policy's term, padded for this client's distance."""
        base = self.inner.term(datum, client, now, stats=stats, file_class=file_class)
        return self._pad(base, self.overhead_of.get(client, 0.0))

    def longest_term(self) -> float:
        """The inner bound, padded for the most distant client."""
        return self._pad(
            self.inner.longest_term(), max(self.overhead_of.values(), default=0.0)
        )

    def _pad(self, base: float, overhead: float) -> float:
        if base == 0 or math.isinf(base):
            return base
        return base + overhead + self.epsilon


class AdaptiveTermPolicy:
    """Pick terms from the analytic model and observed access statistics.

    For each datum the policy computes the lease benefit factor
    ``alpha = 2R / (S W)`` from the server's estimates:

    * ``alpha <= 1`` — leasing cannot reduce server load; grant a zero term
      (the paper: "a lease term should be set to zero if a client is not
      going to access the file before it is modified").
    * otherwise — choose the term that eliminates ``target_reduction`` of
      the zero-term extension traffic (``t_c = reduction / ((1-reduction) R)``,
      the inversion of formula (1)'s extension component), clamped to
      ``[min_term, max_term]``.  Short terms cap the failure-delay and
      false-sharing costs that the model itself does not price.

    Datums with no statistics yet get ``default_term``.
    """

    reads_stats = True

    def __init__(
        self,
        params: SystemParams,
        target_reduction: float = 0.9,
        min_term: float = 1.0,
        max_term: float = 30.0,
        default_term: float = 10.0,
    ):
        if not 0 < target_reduction < 1:
            raise ValueError(f"target_reduction must be in (0,1): {target_reduction}")
        if min_term < 0 or max_term < min_term:
            raise ValueError("need 0 <= min_term <= max_term")
        self.params = params
        self.target_reduction = target_reduction
        self.min_term = min_term
        self.max_term = max_term
        self.default_term = default_term

    def term(self, datum, client, now, stats=None, file_class=FileClass.NORMAL) -> float:
        """A term fitted to the datum's observed R/W/S (zero if alpha <= 1)."""
        if stats is None:
            return self.default_term
        reads, writes, sharing = stats.snapshot(now)
        if reads <= 0:
            # Nothing reads this datum; a lease can only delay writers.
            return 0.0
        datum_params = dataclasses.replace(
            self.params,
            read_rate=reads,
            write_rate=writes,
            sharing=max(1, round(sharing)),
        )
        if analytic.alpha(datum_params) <= 1:
            return 0.0
        term = analytic.term_for_extension_reduction(
            datum_params, self.target_reduction
        )
        return min(self.max_term, max(self.min_term, term))

    def longest_term(self) -> float:
        """The clamp ceiling, or the no-statistics default if that is longer."""
        return max(self.max_term, self.default_term)
