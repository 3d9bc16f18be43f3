"""Replicated lease authority: a PaxosLease master lease over the lease table.

The single lease server of the base protocol is the availability weak spot
the paper's §4 fault analysis concedes: a server crash stalls every write
for a full lease term, and a naively promoted replacement is *unsafe*
under §5 clock faults.  This package replicates the authority:

* :mod:`repro.replica.paxos` — the sans-io PaxosLease acceptor/proposer
  pair: diskless Paxos specialized for negotiating a *master lease*
  (promised/accepted state itself expires, so nothing needs stable
  storage; a restarted node simply waits out one maximum lease term
  before rejoining — ``ReplicaEngine.reboot``).
* :mod:`repro.replica.engine` — :class:`ReplicaEngine`, which runs the
  acceptor/proposer, and — on the replica that wins the master lease —
  an inner :class:`~repro.protocol.server.ServerEngine` that serves the
  ordinary lease protocol until deposed.  Non-masters redirect clients
  with :class:`~repro.protocol.messages.NotMaster`.
* :mod:`repro.replica.node` — the asyncio runtime replica,
  SIGKILL-able for chaos testing.

In the DES each replica's engine runs in a plain
:class:`repro.sim.driver.SimServer`, assembled by
``repro.sim.driver.build_cluster(replicas=N)`` over a **shared** store
per shard: the replicas replicate the *lease authority* (who may grant
and commit), not the data plane, exactly as PaxosLease replicates the
master lease and nothing else.

The handoff invariant (DESIGN.md §17): a newly elected master may not
grant or commit anything until the prior master's outstanding file leases
*and* residual master-lease belief have provably expired on the new
master's own drift-compensated clock (:func:`repro.clock.sync.safe_waitout`).
"""

from repro.replica.engine import ReplicaConfig, ReplicaEngine, restart_join_delay
from repro.replica.paxos import Acceptor, Outcome, Proposer, ballot_number

__all__ = [
    "Acceptor",
    "Outcome",
    "Proposer",
    "ReplicaConfig",
    "ReplicaEngine",
    "ballot_number",
    "restart_join_delay",
]
