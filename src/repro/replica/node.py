"""Asyncio host for the replicated lease authority (DESIGN.md §17).

:class:`ReplicaServerNode` drives one :class:`~repro.replica.engine.
ReplicaEngine` over a real transport, the same way
:class:`~repro.runtime.node.LeaseServerNode` drives a plain
:class:`~repro.protocol.server.ServerEngine`.  Point ``N`` of these at
the same shared :class:`~repro.storage.store.FileStore` (one hub, or one
fabric of sockets) and they elect a master among themselves; an
unmodified :class:`~repro.runtime.node.LeaseClientNode` given the tuple
of replica host names fails over between them on ``NotMaster`` redirects
and RPC timeouts.

``kill``/``restart``/``alive``/``is_master``/``status`` are the server
nodes' shared ones: ``kill`` is SIGKILL with no goodbye traffic, and
``restart`` runs :meth:`~repro.replica.engine.ReplicaEngine.reboot`, the
diskless rule — the reborn acceptor stays silent until everything its
predecessor may have promised has provably expired.
"""

from __future__ import annotations

from repro.lease.policy import TermPolicy
from repro.replica.engine import ReplicaConfig, ReplicaEngine
from repro.runtime.node import _ServerNode
from repro.runtime.transport import Transport
from repro.storage.store import FileStore


class ReplicaServerNode(_ServerNode):
    """A real-time replica of the replicated lease authority."""

    def __init__(
        self,
        transport: Transport,
        store: FileStore,
        policy: TermPolicy,
        config: ReplicaConfig,
        clock=None,
        obs=None,
    ):
        """Args:
            transport: this replica's endpoint; its name must equal
                ``config.hosts[config.index]``.
            store: the store shared by the whole replica group.
            policy: file-lease term policy for the inner server engine.
            config: the replica group shape and timing knobs.
        """
        super().__init__(transport, clock, obs=obs)
        self._start(
            ReplicaEngine(
                transport.name, store, policy, config, now=self.clock.now(), obs=self.obs
            )
        )
