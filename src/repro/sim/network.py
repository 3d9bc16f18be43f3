"""Simulated network with the paper's timing model.

Message timing (paper §3.1): processing costs ``m_proc`` at the sender and
at the receiver (serialized through each host's CPU), and the wire adds a
propagation delay ``m_prop``.  Hence a unicast request/response round trip
costs ``2*m_prop + 4*m_proc`` and a multicast with ``n`` replies costs
``2*m_prop + (n+3)*m_proc`` — both of which the simulator reproduces
exactly (see ``tests/sim/test_network.py``).

Failure model: per-delivery message loss (probability or targeted filters)
and partitions expressed as link predicates.  Delivery per ordered host pair
is FIFO (constant propagation delay plus serialized CPUs), which the
protocol relies on in the same way V's IPC did.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable

from repro.errors import HostDownError, SimulationError
from repro.obs.events import NET_DROP, NET_DUP, NET_RECV, NET_SEND
from repro.sim.host import Host
from repro.sim.kernel import Kernel
from repro.types import HostId

#: A link filter returns False to block delivery from ``src`` to ``dst``.
LinkFilter = Callable[[HostId, HostId], bool]


@dataclass(frozen=True)
class NetworkParams:
    """Timing and loss parameters (Table 1 of the paper).

    Attributes:
        m_prop: one-way propagation delay in seconds.
        m_proc: per-message processing time (send or receive) in seconds.
        loss_rate: probability that any single delivery leg is lost.
        duplicate_rate: probability that a delivered message arrives twice
            (the second copy one propagation delay later) — datagram
            networks duplicate under retransmission and routing flaps, and
            the protocol must be idempotent against it.
    """

    m_prop: float = 0.27e-3
    m_proc: float = 0.5e-3
    loss_rate: float = 0.0
    duplicate_rate: float = 0.0

    def __post_init__(self) -> None:
        if self.m_prop < 0 or self.m_proc < 0:
            raise ValueError("negative message times")
        if not 0.0 <= self.loss_rate <= 1.0:
            raise ValueError(f"loss_rate out of range: {self.loss_rate}")
        if not 0.0 <= self.duplicate_rate <= 1.0:
            raise ValueError(f"duplicate_rate out of range: {self.duplicate_rate}")

    @property
    def round_trip(self) -> float:
        """Unicast request/response time: ``2*m_prop + 4*m_proc``."""
        return 2 * self.m_prop + 4 * self.m_proc


@dataclass
class MessageStats:
    """Per-host message accounting, broken down by message kind.

    The paper measures server *consistency load* as the number of messages
    handled (sent or received) by the server per unit time; drivers tag
    each message with a kind string (e.g. ``"lease/extend"``) so the
    experiment harness can separate consistency traffic from data traffic.
    """

    sent: Counter = field(default_factory=Counter)
    received: Counter = field(default_factory=Counter)

    def handled(self, kinds: Iterable[str] | None = None) -> int:
        """Total messages sent plus received, optionally filtered by kind."""
        if kinds is None:
            return sum(self.sent.values()) + sum(self.received.values())
        kindset = set(kinds)
        return sum(n for k, n in self.sent.items() if k in kindset) + sum(
            n for k, n in self.received.items() if k in kindset
        )

    def handled_prefix(self, prefix: str) -> int:
        """Messages sent plus received whose kind starts with ``prefix``."""
        return sum(n for k, n in self.sent.items() if k.startswith(prefix)) + sum(
            n for k, n in self.received.items() if k.startswith(prefix)
        )


class Network:
    """Message fabric connecting simulated hosts."""

    def __init__(self, kernel: Kernel, params: NetworkParams | None = None, obs: Any = None):
        self.kernel = kernel
        self.params = params or NetworkParams()
        self.hosts: dict[HostId, Host] = {}
        self.stats: dict[HostId, MessageStats] = {}
        self._link_filters: list[LinkFilter] = []
        self.dropped = 0
        self.duplicated = 0
        #: Optional :class:`~repro.obs.bus.TraceBus` receiving per-leg
        #: ``net.*`` events (sends, receives, drops, duplicates).
        self.obs = obs
        #: Optional tap called as ``on_deliver(src, dst, payload, kind)``
        #: at the top of every delivery attempt (before the host-up
        #: check), used by :class:`~repro.sim.timeline.Timeline`.  A
        #: declared hook, not a monkeypatched method: the tap is visible
        #: here, and unused it costs delivery one ``is not None`` test.
        self.on_deliver: Callable[[HostId, HostId, Any, str], None] | None = None

    # -- topology -------------------------------------------------------------

    def attach(self, host: Host) -> None:
        """Register a host on the network."""
        if host.name in self.hosts:
            raise SimulationError(f"duplicate host name {host.name!r}")
        self.hosts[host.name] = host
        self.stats[host.name] = MessageStats()

    # -- fault hooks ------------------------------------------------------------

    def add_link_filter(self, link_filter: LinkFilter) -> None:
        """Install a predicate that can block deliveries (partitions)."""
        self._link_filters.append(link_filter)

    def remove_link_filter(self, link_filter: LinkFilter) -> None:
        """Remove a previously installed link filter."""
        self._link_filters.remove(link_filter)

    def link_up(self, src: HostId, dst: HostId) -> bool:
        """True when every installed filter permits ``src -> dst``."""
        filters = self._link_filters
        if not filters:
            return True
        return all(f(src, dst) for f in filters)

    # -- transmission ----------------------------------------------------------

    def unicast(self, src: HostId, dst: HostId, payload: Any, kind: str = "msg") -> None:
        """Send one message from ``src`` to ``dst``.

        Costs ``m_proc`` on the sender's CPU; arrives ``m_prop`` after the
        send-side processing completes; costs ``m_proc`` on the receiver's
        CPU before the handler runs.
        """
        hosts = self.hosts
        sender = hosts.get(src)
        if sender is None:
            raise SimulationError(f"unknown host {src!r}")
        if dst not in hosts:
            raise SimulationError(f"unknown host {dst!r}")
        if not sender.up:
            return
        self._send(sender, src, (dst,), payload, kind)

    def multisend(
        self, src: HostId, dsts: Iterable[HostId], payload: Any, kind: str = "msg"
    ) -> int:
        """Multicast one message to an explicit recipient list.

        One send-side ``m_proc`` regardless of fan-out (the V host-group
        model); each recipient pays its own receive-side ``m_proc``.  The
        sender is excluded if listed.

        Returns:
            The number of recipients targeted (before loss/partition).
        """
        sender = self._require_host(src)
        if not sender.up:
            return 0
        members = [d for d in dsts if d != src]
        for dst in members:
            self._require_host(dst)
        return self._send(sender, src, members, payload, kind)

    # -- internals ---------------------------------------------------------------

    def _send(
        self, sender: Host, src: HostId, dsts: Iterable[HostId], payload: Any, kind: str
    ) -> int:
        """Charge one send-side ``m_proc`` and put a copy on the wire per leg.

        The message counts as sent (and the sender's CPU is charged) even
        with an empty recipient list — a multicast to nobody is still a
        send on the V model this reproduces.
        """
        kernel = self.kernel
        params = self.params
        self.stats[src].sent[kind] += 1
        obs = self.obs
        active = obs is not None and obs.active
        # Host.occupy_cpu, unrolled on the two hottest call sites (here and
        # _arrive): serialize on the sender's CPU, one m_proc per send.
        free = sender._cpu_free_at
        now = kernel.now
        if free < now:
            free = now
        sender._cpu_free_at = free = free + params.m_proc
        arrival = free + params.m_prop
        count = 0
        for dst in dsts:
            if active:
                obs.emit(NET_SEND, kernel.now, src, src=src, dst=dst, kind=kind)
            # One leg tuple carries the message through every hop
            # (arrive, deliver, duplicate re-arrival): post_args/defer_args
            # take it as the prebuilt argument tuple, so the per-hop
            # *args repack is pooled away.
            kernel.post_args(arrival, self._arrive, (src, dst, payload, kind))
            count += 1
        return count

    def _arrive(
        self, src: HostId, dst: HostId, payload: Any, kind: str, duplicate: bool = False
    ) -> None:
        """Wire arrival at ``dst``: apply faults, then queue receive processing."""
        host = self.hosts[dst]
        obs = self.obs
        kernel = self.kernel
        params = self.params
        # link_up() inlined for the common no-filter case.
        if not host.up or (self._link_filters and not self.link_up(src, dst)):
            self.dropped += 1
            if obs is not None and obs.active:
                reason = "host_down" if not host.up else "partition"
                obs.emit(
                    NET_DROP, kernel.now, dst,
                    src=src, dst=dst, kind=kind, reason=reason,
                )
            return
        if params.loss_rate and kernel.rng.random() < params.loss_rate:
            self.dropped += 1
            if obs is not None and obs.active:
                obs.emit(
                    NET_DROP, kernel.now, dst,
                    src=src, dst=dst, kind=kind, reason="loss",
                )
            return
        if (
            not duplicate
            and params.duplicate_rate
            and kernel.rng.random() < params.duplicate_rate
        ):
            self.duplicated += 1
            if obs is not None and obs.active:
                obs.emit(NET_DUP, kernel.now, dst, src=src, dst=dst, kind=kind)
            kernel.post_args(
                kernel.now + params.m_prop,
                self._arrive,
                (src, dst, payload, kind, True),
            )
        # Host.occupy_cpu, unrolled (see _send): receive-side m_proc.
        free = host._cpu_free_at
        now = kernel.now
        if free < now:
            free = now
        host._cpu_free_at = completion = free + params.m_proc
        # Tail call: defer_args may run _deliver inline (one kernel event
        # per leg instead of two) when no queued event precedes
        # `completion` — any pending fault, duplicate arrival or competing
        # delivery forces the queued slow path, so state checks inside
        # _deliver observe exactly what they would have.  The leg tuple is
        # reused as-is; _deliver re-resolves the host (registered once,
        # never replaced; crash only flips ``up``, re-checked at delivery
        # time).
        kernel.defer_args(completion, self._deliver, (src, dst, payload, kind))

    def _deliver(self, src: HostId, dst: HostId, payload: Any, kind: str) -> None:
        on_deliver = self.on_deliver
        if on_deliver is not None:
            on_deliver(src, dst, payload, kind)
        host = self.hosts[dst]
        obs = self.obs
        if not host.up:
            self.dropped += 1
            if obs is not None and obs.active:
                obs.emit(
                    NET_DROP, self.kernel.now, dst,
                    src=src, dst=dst, kind=kind, reason="host_down",
                )
            return
        self.stats[dst].received[kind] += 1
        if obs is not None and obs.active:
            obs.emit(NET_RECV, self.kernel.now, dst, src=src, dst=dst, kind=kind)
        # host.deliver, unwrapped: ``up`` was checked just above, and the
        # handler-missing error is preserved.
        handler = host._handler
        if handler is None:
            raise HostDownError(f"host {dst!r} has no message handler")
        handler(payload, src)

    def _require_host(self, name: HostId) -> Host:
        host = self.hosts.get(name)
        if host is None:
            raise SimulationError(f"unknown host {name!r}")
        return host
