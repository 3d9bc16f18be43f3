"""Consistent-hash sharding of the file namespace across lease servers.

The paper's protocol assumes a single lease authority per file.  This
package scales that assumption out instead of up: the file namespace is
consistent-hashed across ``N`` independent server shards — each with its
own :class:`~repro.lease.table.LeaseTable`,
:class:`~repro.protocol.server.ServerEngine` and storage — and a
client-side router maps every request to the shard that owns its datum.
Per-shard the protocol is *unchanged*: every safety argument of the
single-server design (lease terms, write approval, the §2 crash rule)
applies to each shard independently, because no datum is ever owned by
more than one shard.

Layers:

* :mod:`repro.shard.ring` — the hash ring (``hashlib``-based, so shard
  placement is identical across processes and Python versions);
* :mod:`repro.shard.router` — datum → shard/host routing;
* :mod:`repro.shard.store` — an N-store facade allocating globally
  unique file ids and placing each file on its hash-owned shard;
* :mod:`repro.shard.client` — a sharded client engine multiplexing one
  inner :class:`~repro.protocol.client.ClientEngine` per shard (the
  pipelined batching layer then splits batches per shard for free);
* :mod:`repro.shard.transport` — a fan-out transport composing one real
  (TCP/UDP/hub) client transport per shard for the asyncio runtime.

The simulated sharded cluster is ``repro.sim.driver.build_cluster(shards=N)``;
shard host names come from :mod:`repro.topology`.
"""

from repro.shard.client import ShardedClientEngine
from repro.shard.ring import HashRing
from repro.shard.router import SHARD_ID_SPAN, ShardRouter
from repro.shard.store import ShardedStore

__all__ = [
    "HashRing",
    "ShardRouter",
    "ShardedClientEngine",
    "ShardedStore",
    "SHARD_ID_SPAN",
]
