"""Lease terms.

The server stores a lease as its expiry alone (:class:`repro.lease.table.LeaseTable`);
what is left to say about one is how long it runs.
"""

from __future__ import annotations

import math

#: Sentinel term for an infinite lease (the later-Andrew callback scheme,
#: §6).  Infinite leases never expire; a write can only proceed once every
#: holder approves, so an unreachable holder blocks writes indefinitely —
#: exactly the availability loss the paper's short terms avoid.
INFINITE_TERM = math.inf


def is_infinite(term: float) -> bool:
    """True when ``term`` denotes an infinite lease."""
    return math.isinf(term)
