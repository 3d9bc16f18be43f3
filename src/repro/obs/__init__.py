"""Unified observability layer: trace events and counters.

The paper's claims are quantitative — server consistency load, lease-added
delay, storage cost versus term — so the reproduction needs its own
nervous system.  This package provides it, dependency-free:

* :mod:`repro.obs.events` — the typed protocol-event taxonomy (grants,
  renewals, expiries, approvals, write deferrals, recovery holds,
  retransmissions, timer fires, network sends/drops) and its schemas.
* :mod:`repro.obs.bus` — :class:`TraceBus`, a process-local pub/sub event
  stream with a bounded replay buffer and JSON Lines export.
* :mod:`repro.obs.registry` — :class:`Registry` of named counters.

Both runtimes speak it: the simulator (kernel, network, drivers) and the
asyncio nodes thread one bus through the shared sans-io engines, so a
simulated run and a real run of the same scenario yield event streams
with identical schemas.  Everything is disabled-by-default and
no-op-cheap when off: instrumentation sites guard on ``bus.active`` (or a
``None`` bus) before building any payload.
"""

from repro.obs import events
from repro.obs.bus import NULL_BUS, TraceBus, read_jsonl
from repro.obs.registry import Counter, Registry

__all__ = [
    "TraceBus",
    "NULL_BUS",
    "read_jsonl",
    "Registry",
    "Counter",
    "events",
]
