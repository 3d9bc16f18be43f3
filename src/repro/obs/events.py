"""Typed protocol-event taxonomy.

Every instrumented subsystem emits events onto a :class:`~repro.obs.bus.
TraceBus` using the type constants below.  An event is a flat dict with
three standard fields — ``type`` (one of these constants), ``ts`` (the
emitting host's local time: virtual seconds in the simulator, wall-clock
seconds in the asyncio runtime) and ``host`` (the emitting host id, or
None for hostless components) — plus the type-specific payload fields
listed in :data:`SCHEMA`.

The schemas are runtime-independent by construction: the sans-io engines
emit most of the protocol events themselves, so a simulated run and an
asyncio run of the same scenario produce streams with identical shapes
(only ``ts`` semantics differ).  ``tests/obs/test_parity.py`` holds this
invariant.
"""

from __future__ import annotations

# -- lease lifecycle (LeaseTable) ------------------------------------------------
LEASE_GRANT = "lease.grant"
LEASE_RENEW = "lease.renew"
LEASE_EXPIRE = "lease.expire"
LEASE_RELEASE = "lease.release"

# -- write path (ServerEngine) ---------------------------------------------------
APPROVAL_REQUEST = "write.approval_request"
APPROVAL_REPLY = "write.approval_reply"
WRITE_DEFER = "write.defer"
WRITE_COMMIT = "write.commit"
WRITE_CAS_REJECT = "write.cas_reject"

# -- crash recovery (ServerEngine) -----------------------------------------------
RECOVERY_BEGIN = "recovery.begin"
RECOVERY_HOLD = "recovery.hold"
RECOVERY_END = "recovery.end"

# -- client RPC layer (ClientEngine) ---------------------------------------------
RETRANSMIT = "rpc.retransmit"
RPC_FAIL = "rpc.fail"
LOCAL_HIT = "read.local_hit"

# -- drivers (sim timer bank / asyncio node) -------------------------------------
TIMER_FIRE = "timer.fire"

# -- message fabric (sim Network / asyncio node) ---------------------------------
NET_SEND = "net.send"
NET_RECV = "net.recv"
NET_DROP = "net.drop"
NET_DUP = "net.dup"

# -- real-transport connection lifecycle (repro.runtime.tcp) ----------------------
CONN_UP = "conn.up"
CONN_DOWN = "conn.down"
CONN_RETRY = "conn.retry"

# -- real-transport frame loss (repro.runtime) ------------------------------------
TRANSPORT_DROP = "transport.drop"

# -- shard routing (repro.shard) ---------------------------------------------------
SHARD_ROUTE = "shard.route"
SHARD_MISS = "shard.miss"

# -- replicated lease authority (repro.replica) ------------------------------------
REPLICA_ELECTED = "replica.elected"
REPLICA_SERVE = "replica.serve"
REPLICA_DEPOSED = "replica.deposed"
REPLICA_REDIRECT = "replica.redirect"

# -- simulation kernel -----------------------------------------------------------
KERNEL_COMPACT = "kernel.compact"

# -- consistency oracle ----------------------------------------------------------
ORACLE_VIOLATION = "oracle.violation"

# -- scenario exploration (repro.check) --------------------------------------------
CHECK_RUN = "check.run"
CHECK_SHRINK = "check.shrink"

#: Payload fields (beyond ``type``/``ts``/``host``) of each event type.
#: The parity and schema tests enforce that every emission site matches.
SCHEMA: dict[str, tuple[str, ...]] = {
    LEASE_GRANT: ("datum", "holder", "term"),
    LEASE_RENEW: ("datum", "holder", "term"),
    LEASE_EXPIRE: ("datum", "holder"),
    LEASE_RELEASE: ("datum", "holder"),
    APPROVAL_REQUEST: ("datum", "write_id", "awaiting"),
    APPROVAL_REPLY: ("datum", "write_id", "holder"),
    WRITE_DEFER: ("datum", "src", "reason"),
    WRITE_COMMIT: ("datum", "writer", "version"),
    WRITE_CAS_REJECT: ("datum", "writer", "expected", "found"),
    RECOVERY_BEGIN: ("until",),
    RECOVERY_HOLD: ("src", "write_seq"),
    RECOVERY_END: ("queued",),
    RETRANSMIT: ("req_id", "retries"),
    RPC_FAIL: ("req_id", "retries"),
    LOCAL_HIT: ("datum",),
    TIMER_FIRE: ("key",),
    NET_SEND: ("src", "dst", "kind"),
    NET_RECV: ("src", "dst", "kind"),
    NET_DROP: ("src", "dst", "kind", "reason"),
    NET_DUP: ("src", "dst", "kind"),
    CONN_UP: ("peer", "attempt"),
    CONN_DOWN: ("peer", "reason"),
    CONN_RETRY: ("peer", "attempt", "delay"),
    TRANSPORT_DROP: ("dst", "kind", "reason"),
    SHARD_ROUTE: ("datum", "shard", "kind"),
    SHARD_MISS: ("src", "kind"),
    REPLICA_ELECTED: ("ballot", "serve_at"),
    REPLICA_SERVE: ("ballot", "queued"),
    REPLICA_DEPOSED: ("ballot", "reason"),
    REPLICA_REDIRECT: ("src", "master"),
    KERNEL_COMPACT: ("removed", "live"),
    ORACLE_VIOLATION: ("datum", "client", "version"),
    CHECK_RUN: ("scenario", "seed", "verdict"),
    CHECK_SHRINK: ("scenario", "before", "after"),
}

#: Every known event type, in taxonomy order.
EVENT_TYPES: tuple[str, ...] = tuple(SCHEMA)


def validate(event: dict) -> None:
    """Check one emitted event against :data:`SCHEMA`.

    Raises:
        ValueError: unknown type, missing standard fields, or a payload
            that does not match the declared schema exactly.
    """
    etype = event.get("type")
    if etype not in SCHEMA:
        raise ValueError(f"unknown event type {etype!r}")
    missing = {"type", "ts", "host"} - event.keys()
    if missing:
        raise ValueError(f"{etype} event missing standard fields {sorted(missing)}")
    payload = event.keys() - {"type", "ts", "host"}
    expected = set(SCHEMA[etype])
    if payload != expected:
        raise ValueError(
            f"{etype} payload mismatch: got {sorted(payload)}, want {sorted(expected)}"
        )
