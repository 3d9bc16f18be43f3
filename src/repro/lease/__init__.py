"""The lease mechanism — the paper's core contribution.

A lease grants its holder control over writes to a datum for a limited
term: while any lease is valid, the server must obtain the holder's
approval (or wait for expiry) before committing a write.  This package is
transport-agnostic — every entry point takes an explicit ``now`` — so the
same code runs under the discrete-event simulator and the asyncio runtime.

Modules:

* :mod:`repro.lease.lease` — term helpers (:data:`INFINITE_TERM`).
* :mod:`repro.lease.table` — server-side bookkeeping, a lease being one
  stored expiry: grants, extensions, expiry, the per-datum pending-write
  queue, and the write-starvation guard.
* :mod:`repro.lease.holder` — client-side holdings with conservative local
  expiry and batched-extension support.
* :mod:`repro.lease.policy` — term policies: fixed, zero, infinite,
  per-file-class, distance-compensating, and the adaptive policy driven by
  the analytic model (§4).
* :mod:`repro.lease.stats` — per-datum read/write/sharing rate estimators
  feeding the adaptive policy.
* :mod:`repro.lease.installed` — the installed-files optimization (§4):
  directory-granularity cover leases extended by periodic multicast, with
  delayed update on write and no per-client record.
"""

from repro.lease.lease import INFINITE_TERM, is_infinite
from repro.lease.holder import Holding, LeaseSet
from repro.lease.policy import (
    AdaptiveTermPolicy,
    DistanceCompensatingPolicy,
    FixedTermPolicy,
    InfiniteTermPolicy,
    PerClassPolicy,
    TermPolicy,
    ZeroTermPolicy,
)
from repro.lease.stats import DatumStats, RateEstimator
from repro.lease.table import LeaseTable, PendingWrite

__all__ = [
    "INFINITE_TERM",
    "is_infinite",
    "LeaseTable",
    "PendingWrite",
    "LeaseSet",
    "Holding",
    "TermPolicy",
    "FixedTermPolicy",
    "ZeroTermPolicy",
    "InfiniteTermPolicy",
    "PerClassPolicy",
    "DistanceCompensatingPolicy",
    "AdaptiveTermPolicy",
    "DatumStats",
    "RateEstimator",
]
