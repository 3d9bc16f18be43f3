"""Real-time (asyncio) runtime for the lease protocol.

The same sans-io engines that drive the simulator run here against wall
clocks and real transports:

* :mod:`repro.runtime.transport` — the transport interface and an
  in-process hub with configurable latency/loss (tests, examples).
* :mod:`repro.runtime.tcp` — a length-prefixed JSON transport over TCP for
  actual multi-process deployments, with a reconnecting client that runs
  the DESIGN.md §11 connection-lifecycle state machine under capped
  exponential backoff.
* :mod:`repro.runtime.resilience` — the shared resilience primitives:
  :class:`~repro.runtime.resilience.BackoffPolicy` and the bounded
  drop-oldest :class:`~repro.runtime.resilience.FrameQueue`.
* :mod:`repro.runtime.chaos` — :class:`~repro.runtime.chaos.
  ChaosTransport`, the asyncio mirror of :mod:`repro.sim.faults`: loss,
  delay, duplication and forced disconnects injected over any real
  transport.
* :mod:`repro.runtime.node` — :class:`LeaseServerNode` and
  :class:`LeaseClientNode`: asyncio hosts that execute engine effects
  (sends, timers) and expose an async application API
  (``await client.read(datum)``).
* :mod:`repro.runtime.cluster` — :func:`build_cluster`, the one
  assembler: any :class:`~repro.topology.Topology` (sharded, replicated
  or both) over the in-memory hub, TCP or UDP, with one consistency
  oracle — the twin of :func:`repro.sim.driver.build_cluster`.

Lease expiry uses :class:`repro.clock.MonotonicClock`; the epsilon and
drift-bound configuration carries exactly the same meaning as in the
paper (§5).
"""

from repro.runtime.chaos import ChaosTransport
from repro.runtime.cluster import Cluster, build_cluster
from repro.runtime.node import LeaseClientNode, LeaseServerNode
from repro.runtime.resilience import BackoffPolicy
from repro.runtime.transport import InMemoryHub, Transport

__all__ = [
    "build_cluster",
    "Cluster",
    "LeaseServerNode",
    "LeaseClientNode",
    "InMemoryHub",
    "Transport",
    "ChaosTransport",
    "BackoffPolicy",
]
