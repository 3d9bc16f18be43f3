"""Baseline consistency protocols from the paper's related work (§6).

Every baseline is the lease server (§6 treats them as degenerate leases).
Two are *degenerate lease terms* and need no new code:

* **check-on-use** (Sprite between opens, RFS, the Andrew prototype) —
  ``ZeroTermPolicy``: every read checks with the server;
* **callbacks** (the revised Andrew file system) — ``InfiniteTermPolicy``:
  minimal traffic, but a crashed or partitioned leaseholder blocks writes
  forever (or, in Andrew's actual behaviour, the server proceeds and the
  client reads stale data until it polls).

Two are the lease server with one ``_grant`` override, which changes what
a grant promises and nothing else:

* :mod:`repro.baselines.ttl` — **NFS-style TTL hints**: a grant returns
  the policy's term and records nothing, so the server never waits for or
  notifies anyone.  Fast and simple, but reads can be stale for up to a
  TTL after any write.
* :mod:`repro.baselines.locks` — **Xerox DFS breakable locks**: a grant
  records the lock's minimum time before it may be broken and advertises
  a longer hold; the server honours only the minimum, while clients keep
  trusting the lock and are not notified of breaks.  Trusting clients
  read stale data; distrusting clients must check every read — the
  paper's point that the scheme "degenerates to leasing with a term of
  zero".

:mod:`repro.baselines.comparison` runs one shared workload under every
protocol and tabulates consistency traffic, delay, staleness, and
write availability under partition.
"""

from repro.baselines.comparison import ProtocolOutcome, compare_protocols, render
from repro.baselines.locks import DfsLockServerEngine, make_dfs_lock_cluster
from repro.baselines.ttl import TtlServerEngine, make_ttl_cluster

__all__ = [
    "TtlServerEngine",
    "make_ttl_cluster",
    "DfsLockServerEngine",
    "make_dfs_lock_cluster",
    "compare_protocols",
    "ProtocolOutcome",
    "render",
]
