"""Datum-to-shard routing.

A :class:`ShardRouter` is built independently by every party — each
client, the sharded store, the DES cluster builder —
from nothing but the shard count, and all of them agree on placement by
construction: the underlying :class:`~repro.shard.ring.HashRing` is a
pure function of ``n_shards``, and the routed key is ``str(datum)``
(e.g. ``"file:17"``), which is process-independent.
"""

from __future__ import annotations

from repro.shard.ring import DEFAULT_REPLICAS, HashRing
from repro.topology import Topology
from repro.types import DatumId, HostId

#: Width of each shard's slice of a client's op/request/write-seq id
#: space.  The sharded client engine gives inner engine ``k`` the base
#: ``id_base + k * SHARD_ID_SPAN`` so ids (and the ``rpc:{id}`` timer
#: keys derived from them) never collide across shards; drivers step
#: ``id_base`` by at most 1e6 per incarnation/client, far below this.
SHARD_ID_SPAN = 1_000_000_000


class ShardRouter:
    """Maps datums to the shard (and server host) that owns them."""

    def __init__(
        self,
        n_shards: int,
        hosts: tuple[HostId, ...] | None = None,
        replicas: int = DEFAULT_REPLICAS,
    ):
        self.n_shards = n_shards
        self.hosts = (
            tuple(hosts) if hosts is not None else Topology(shards=n_shards).servers()
        )
        if len(self.hosts) != n_shards:
            raise ValueError(
                f"{n_shards} shards but {len(self.hosts)} hosts: {self.hosts}"
            )
        self.ring = HashRing(n_shards, replicas=replicas)
        self._index = {host: k for k, host in enumerate(self.hosts)}

    def shard_of(self, datum: DatumId) -> int:
        """The shard index owning ``datum``."""
        return self.ring.shard_of(str(datum))

    def host_of(self, datum: DatumId) -> HostId:
        """The server host name owning ``datum``."""
        return self.hosts[self.shard_of(datum)]

    def index_of(self, host: HostId) -> int | None:
        """The shard index of a server host name (None for strangers)."""
        return self._index.get(host)
