"""Fast trace-driven cache/lease simulation (the *Trace* curve, Figure 1).

Replays a trace through per-(client, file) lease state and counts the
consistency messages the server would handle, without running the full
discrete-event protocol stack.  The accounting mirrors the analytic model
and the real protocol:

* a read under a valid lease with a valid cached copy: **0 messages**;
* a read needing a fetch or extension: **2 messages** (request + reply),
  and the client-side term is the effective ``t_c`` — the granted term
  shortened by delivery time and epsilon;
* with ``batch_extensions`` (the default, §3.1: "a cache should extend
  together all leases over all files that it still holds") an extension
  renews **every** lease the client holds, so R behaves as the client's
  total read rate — this is what makes the measured curve track the
  single-file model and is the mechanism behind its sharper knee;
* a write: **1 multicast + k replies** where k is the number of *other*
  clients holding valid leases (the writer's approval is implicit); the
  write-through itself is data traffic and not counted;
* a write invalidates the other holders' cached copies (their leases
  survive, so their next read is a 2-message refetch);
* temporary files never reach the server.

Cross-check: ``tests/workload/test_tracesim.py`` validates this fast path
against the full discrete-event simulator, and
``repro.experiments.figure1`` validates it against formula (1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.analytic.params import SystemParams
from repro.types import FileClass
from repro.workload.events import TraceRecord


@dataclass(frozen=True)
class TraceSimResult:
    """Outcome of one trace replay at a fixed lease term.

    Attributes:
        term: the server lease term simulated.
        duration: trace span in seconds.
        n_reads: logical reads replayed (server-visible).
        n_writes: logical writes replayed (server-visible).
        extension_messages: fetch/extension messages at the server.
        approval_messages: write-approval messages at the server.
        total_read_delay: summed consistency delay over reads.
        total_write_delay: summed approval delay over writes.
    """

    term: float
    duration: float
    n_reads: int
    n_writes: int
    extension_messages: int
    approval_messages: int
    total_read_delay: float
    total_write_delay: float

    @property
    def consistency_messages(self) -> int:
        """Total consistency messages (extensions plus approvals)."""
        return self.extension_messages + self.approval_messages

    @property
    def load(self) -> float:
        """Consistency messages per second at the server."""
        return self.consistency_messages / self.duration if self.duration else 0.0

    @property
    def relative_load(self) -> float:
        """Load normalized to the zero-term load (2 messages per read)."""
        zero = 2 * self.n_reads
        return self.consistency_messages / zero if zero else 0.0

    @property
    def mean_added_delay(self) -> float:
        """Mean consistency delay per (read or write) operation."""
        ops = self.n_reads + self.n_writes
        total = self.total_read_delay + self.total_write_delay
        return total / ops if ops else 0.0


@dataclass
class _ClientState:
    """One cache's lease and entry state."""

    #: files with a (possibly expired) holding — the batch-extension set.
    expiry: dict[str, float] = field(default_factory=dict)
    #: files whose cached copy is valid.
    entry_valid: dict[str, bool] = field(default_factory=dict)


def simulate_trace(
    records: list[TraceRecord],
    term: float,
    params: SystemParams,
    batch_extensions: bool = True,
) -> TraceSimResult:
    """Replay ``records`` at server lease term ``term``.

    Args:
        records: time-ordered trace.
        term: server lease term ``t_s`` (0, finite, or ``math.inf``).
        params: message timing and epsilon (rates in ``params`` are unused;
            the trace itself supplies the workload).
        batch_extensions: renew all held leases on each extension (§3.1);
            False models naive per-file extension (the A-BATCH ablation).
    """
    if term < 0:
        raise ValueError(f"negative term: {term}")
    effective = (
        math.inf
        if math.isinf(term)
        else max(0.0, term - params.grant_overhead - params.epsilon)
    )
    round_trip = params.round_trip

    clients: dict[str, _ClientState] = {}
    n_reads = n_writes = 0
    extension_messages = approval_messages = 0
    total_read_delay = total_write_delay = 0.0

    for record in records:
        if record.file_class is FileClass.TEMPORARY:
            continue  # handled entirely by the client cache
        client = clients.setdefault(record.client, _ClientState())
        path = record.path
        t = record.time

        if record.op == "read":
            n_reads += 1
            lease_ok = client.expiry.get(path, -math.inf) > t
            if lease_ok and client.entry_valid.get(path, False):
                continue  # free local hit
            extension_messages += 2
            total_read_delay += round_trip
            if effective > 0:
                new_expiry = t + effective
                if batch_extensions and path in client.expiry:
                    # A known file: the extension request covers every
                    # lease this cache still holds (§3.1).
                    for held in client.expiry:
                        client.expiry[held] = new_expiry
                else:
                    client.expiry[path] = new_expiry
            else:
                client.expiry.pop(path, None)
            client.entry_valid[path] = True
        else:
            n_writes += 1
            others = [
                (name, state)
                for name, state in clients.items()
                if name != record.client and state.expiry.get(path, -math.inf) > t
            ]
            if others:
                # one multicast request + one reply per live holder
                approval_messages += 1 + len(others)
                total_write_delay += (
                    2 * params.m_prop + (len(others) + 3) * params.m_proc
                )
                for _, state in others:
                    state.entry_valid[path] = False
            # the writer's own copy is refreshed by the write-through
            client.entry_valid[path] = client.expiry.get(path, -math.inf) > t

    duration = records[-1].time - records[0].time if len(records) > 1 else 0.0
    return TraceSimResult(
        term=term,
        duration=duration,
        n_reads=n_reads,
        n_writes=n_writes,
        extension_messages=extension_messages,
        approval_messages=approval_messages,
        total_read_delay=total_read_delay,
        total_write_delay=total_write_delay,
    )
