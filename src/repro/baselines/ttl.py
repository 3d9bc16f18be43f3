"""NFS-style TTL hints (§6): caching without a consistency guarantee.

"In the Internet Domain Name Service, for example, a name server specifies
a time-to-live for the data it returns, and clients cache the data for
that period.  However, the data may be modified during that interval."
NFS caches file attributes/data the same way.

A TTL is a lease term the server hands out and never honours: the lease
server with a ``_grant`` that records nothing.  No write ever awaits a
holder, so every write commits at once and tells nobody, and the
unmodified :class:`~repro.protocol.client.ClientEngine` behaves exactly
like an NFS client: it serves reads from cache for a TTL and can return
stale data for up to one TTL after another client's write.  The
consistency oracle quantifies that staleness.
"""

from __future__ import annotations

from repro.lease.policy import FixedTermPolicy
from repro.protocol.server import ServerEngine
from repro.sim.driver import Cluster, build_cluster
from repro.types import DatumId, HostId


class TtlServerEngine(ServerEngine):
    """Lease server whose grants are hints: the policy's term is the TTL,
    and the lease table keeps no record of it.  Installed-file covers, if
    the cluster is given any, are §4 leases and are honoured as on the
    lease server."""

    def _grant(self, datum: DatumId, src: HostId, now: float) -> tuple[float, str | None]:
        return self.policy.term(datum, src, now), None


def make_ttl_cluster(ttl: float = 10.0, **kwargs) -> Cluster:
    """Build a cluster running the TTL protocol (oracle non-strict, since
    staleness is expected and measured)."""
    kwargs.setdefault("strict_oracle", False)
    return build_cluster(
        policy=FixedTermPolicy(ttl), server_engine_factory=TtlServerEngine, **kwargs
    )
