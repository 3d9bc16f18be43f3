"""Xerox DFS breakable locks (§6).

"The Xerox DFS uses breakable locks with timeouts ...  the timeouts
specify a minimum time before which a lock can be broken ...  However,
because clients do not use the lock timeout value and they are not
reliably notified when a lock is broken, the scheme degenerates to leasing
with a term of zero."

Model: the server grants a lock whose *hold* time (what the client trusts)
exceeds its *minimum* time (what the server honors before breaking it for
a writer).  Concretely this is the lease engine with the server-side lease
table recording ``min_time`` while replies advertise ``hold_time`` — after
``min_time`` a write proceeds with no notification to the holder, so a
trusting client serves stale reads for up to ``hold_time - min_time``.
A client that refuses to trust the advertised hold (the only safe choice)
must check on every read: exactly a zero-term lease.
"""

from __future__ import annotations

from repro.protocol.server import ServerEngine
from repro.sim.driver import Cluster, build_cluster
from repro.types import DatumId, HostId


class DfsLockServerEngine(ServerEngine):
    """Lease server whose grants promise more than the server honors.

    ``lock_min_time`` is the paper's lock timeout (server-side truth);
    ``lock_hold_time`` is how long clients keep trusting the lock.  With
    ``lock_hold_time > lock_min_time`` this reproduces DFS's unsafe gap;
    setting them equal recovers correct leasing.
    """

    #: Configured via make_dfs_lock_cluster (the driver's engine factory
    #: passes only the standard arguments); the defaults are the lock
    #: ``compare_protocols`` measures.
    lock_min_time: float = 2.0
    lock_hold_time: float = 10.0

    def _grant(self, datum: DatumId, src: HostId, now: float) -> tuple[float, str | None]:
        """Record the breakable minimum; advertise the full hold time."""
        self.table.grant(datum, src, now, self.lock_min_time)
        return self.lock_hold_time, None


def make_dfs_lock_cluster(
    min_time: float = 2.0, hold_time: float = 10.0, **kwargs
) -> Cluster:
    """Build a cluster running breakable locks.

    The oracle is non-strict: staleness is the measured outcome.
    """
    from repro.lease.policy import FixedTermPolicy

    class _Engine(DfsLockServerEngine):
        lock_min_time = min_time
        lock_hold_time = hold_time

    kwargs.setdefault("strict_oracle", False)
    return build_cluster(
        policy=FixedTermPolicy(min_time),
        server_engine_factory=_Engine,
        **kwargs,
    )
