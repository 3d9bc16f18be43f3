"""Transports for the asyncio runtime."""

from __future__ import annotations

import asyncio
import json
import random
from typing import Callable, Protocol

from repro.clock.system import MonotonicClock
from repro.obs.bus import NULL_BUS
from repro.obs.events import NET_DROP
from repro.protocol.messages import Message
from repro.types import HostId

#: Inbound message handler installed by a node.
MessageHandler = Callable[[Message, HostId], None]

#: The one JSON encoder behind every TCP frame and UDP datagram, built once:
#: ``JSONEncoder.encode`` builds a new C encoder inside every call.  It keeps
#: no circular-reference markers (the codec's arrays are fresh and acyclic),
#: so an encode that raises leaves no stale marker in the reused encoder.
#: Without ``_json`` it is ``JSONEncoder.encode``; both emit the same bytes.
_ENCODER = json.JSONEncoder(separators=(",", ":"), allow_nan=False)
if json.encoder.c_make_encoder is None:
    _dumps = _ENCODER.encode
else:
    _iterencode = json.encoder.c_make_encoder(
        None, _ENCODER.default, json.encoder.encode_basestring_ascii, _ENCODER.indent,
        _ENCODER.key_separator, _ENCODER.item_separator,
        _ENCODER.sort_keys, _ENCODER.skipkeys, _ENCODER.allow_nan,
    )

    def _dumps(value) -> str:
        return "".join(_iterencode(value, 0))


_scan_once = json.JSONDecoder().scan_once


def _loads(text: str):
    """``json.loads(text)``, through one reused scanner.

    Anything the scan does not consume whole (leading or trailing
    whitespace, extra data, a syntax error) goes to ``json.loads``, so
    exactly the same texts are accepted and rejected, with the same errors.
    """
    try:
        value, end = _scan_once(text, 0)
        if end == len(text):
            return value
    except (StopIteration, ValueError):
        pass
    return json.loads(text)


class _EndpointBase:
    """What the stock transports share: name, handler slot, obs plumbing."""

    def __init__(self, name: HostId, obs, clock):
        self._name = name
        self._handler: MessageHandler | None = None
        self._obs = obs or NULL_BUS
        self._clock = clock or MonotonicClock()

    @property
    def name(self) -> HostId:
        """This endpoint's host name."""
        return self._name

    def set_handler(self, handler: MessageHandler) -> None:
        """Install the inbound-message callback."""
        self._handler = handler

    def _emit(self, etype: str, **fields) -> None:
        """Emit one event attributed to this endpoint, if anyone listens."""
        if self._obs.active:
            self._obs.emit(etype, self._clock.now(), self._name, **fields)


class Transport(Protocol):
    """One endpoint's view of the network."""

    @property
    def name(self) -> HostId:
        """This endpoint's host name."""
        ...

    def set_handler(self, handler: MessageHandler) -> None:
        """Install the inbound-message callback."""
        ...

    async def send(self, dst: HostId, message: Message) -> None:
        """Transmit one message, fire and forget.  The contract:

        * The message may be parked or dropped instead of sent — loss is
          allowed — but a transport that discards one emits an obs event.
        * It normally returns without suspending: the node runs it on the
          caller's stack to its first suspension point, and only a send
          that really waits there (chaos delay) costs a Task.
        * It must not run a receiver's handler before it returns: the node
          calls it from the middle of an engine's effect list.
        * It must not open a timeout scoped to the current task
          (``asyncio.timeout``, ``wait_for``) before its first suspension:
          until then the current task is the caller's, or none at all.

        It stays ``async def`` so that wrappers (chaos, fan-out, the
        benchmark's tracer) compose by ``await``.
        """
        ...

    async def close(self) -> None:
        """Release the endpoint's resources."""
        ...


class InMemoryHub:
    """An in-process message fabric connecting any number of endpoints.

    Supports optional delivery latency and loss for fault experiments.
    Delivery order per (src, dst) pair is FIFO, like the simulator.
    """

    def __init__(
        self,
        latency: float = 0.0,
        loss_rate: float = 0.0,
        seed: int = 0,
        obs=None,
        clock=None,
    ):
        if not 0.0 <= loss_rate <= 1.0:
            raise ValueError(f"loss_rate out of range: {loss_rate}")
        self.latency = latency
        self.loss_rate = loss_rate
        self._rng = random.Random(seed)
        self._endpoints: dict[HostId, _HubEndpoint] = {}
        self._blocked: set[tuple[HostId, HostId]] = set()
        self.dropped = 0
        self._obs = obs or NULL_BUS
        self._clock = clock or MonotonicClock()

    def endpoint(self, name: HostId) -> "_HubEndpoint":
        """Create (or fetch) the endpoint for ``name``."""
        if name not in self._endpoints:
            self._endpoints[name] = _HubEndpoint(self, name)
        return self._endpoints[name]

    def block(self, src: HostId, dst: HostId) -> None:
        """Drop all future messages from ``src`` to ``dst`` (partition)."""
        self._blocked.add((src, dst))

    def unblock(self, src: HostId, dst: HostId) -> None:
        """Lift a :meth:`block`."""
        self._blocked.discard((src, dst))

    def isolate(self, name: HostId) -> None:
        """Partition ``name`` from every current endpoint, both ways."""
        for other in self._endpoints:
            if other != name:
                self.block(name, other)
                self.block(other, name)

    def heal(self) -> None:
        """Lift every partition."""
        self._blocked.clear()

    def _drop(self, src: HostId, dst: HostId, kind: str, reason: str) -> None:
        self.dropped += 1
        if self._obs.active:
            self._obs.emit(
                NET_DROP, self._clock.now(), dst,
                src=src, dst=dst, kind=kind, reason=reason,
            )

    def _deliver(self, src: HostId, dst: HostId, message: Message) -> None:
        if (src, dst) in self._blocked:
            self._drop(src, dst, message.kind, "blocked")
            return
        if self.loss_rate and self._rng.random() < self.loss_rate:
            self._drop(src, dst, message.kind, "loss")
            return
        endpoint = self._endpoints.get(dst)
        if endpoint is None:
            self._drop(src, dst, message.kind, "no_endpoint")
        elif self.latency:
            asyncio.get_running_loop().call_later(self.latency, endpoint._receive, message, src)
        else:
            endpoint._receive(message, src)


class _HubEndpoint(_EndpointBase):
    """A hub-attached transport."""

    def __init__(self, hub: InMemoryHub, name: HostId):
        super().__init__(name, hub._obs, hub._clock)
        self._hub = hub

    async def send(self, dst: HostId, message: Message) -> None:
        # Delivery is a loop callback, never a call from here: a send must
        # not run the receiver's handler on the sender's stack.
        asyncio.get_running_loop().call_soon(self._hub._deliver, self._name, dst, message)

    def _receive(self, message: Message, src: HostId) -> None:
        if self._handler is None:  # never attached, or closed meanwhile
            self._hub._drop(src, self._name, message.kind, "no_endpoint")
        else:
            self._handler(message, src)

    async def close(self) -> None:
        self._handler = None
