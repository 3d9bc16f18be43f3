"""Spans at the lease stack's public seams, recorded from the benchmark only.

Nothing under ``src/`` knows it is being traced.  The seams are:

* :class:`TracingTransport` — a :class:`repro.runtime.transport.Transport`
  wrapped around each real transport: a ``tcp.send`` span around ``send``
  and a ``node.handler`` span around the handler the node installed;
* :func:`traced_client_engine` — a ``ClientEngine`` subclass passed to
  ``LeaseClientNode(engine_cls=...)``: spans around the four engine entry
  points;
* :class:`TracedServerEngine` — a delegating proxy assigned to
  ``server.engine``: spans around ``handle_message``/``handle_timer``.

A span is ``(name, start, end, parent, op)``.  ``parent`` is the span that
*caused* this one: the enclosing span for synchronous calls, and for the
two asynchronous hops (a send runs in its own task, a handler runs in the
connection's reader task) the span found through the message's
correlation key.  ``op`` is the root ``op`` span of the application
operation, inherited from the parent; frames shared by several ops
(batches, the flush timer) carry ``op = -1``.  Spans live in flat arrays
and are written out once, after the measurement.
"""

from __future__ import annotations

import json
import time
from array import array

from repro.protocol.client import ClientEngine
from repro.protocol.effects import Broadcast, Send

SPAN_NAMES = (
    "op",
    "client.read",
    "client.write",
    "client.handle_message",
    "client.handle_timer",
    "server.handle_message",
    "server.handle_timer",
    "tcp.send",
    "node.handler",
    "sim.build",
    "check.run_scenario",
)
(
    OP,
    CLIENT_READ,
    CLIENT_WRITE,
    CLIENT_MESSAGE,
    CLIENT_TIMER,
    SERVER_MESSAGE,
    SERVER_TIMER,
    TCP_SEND,
    NODE_HANDLER,
    SIM_BUILD,
    RUN_SCENARIO,
) = range(len(SPAN_NAMES))

_pc = time.perf_counter


def message_key(message) -> object:
    """What a request, its reply and the spans between them have in common.

    Request ids and batch ids come from one per-client counter whose
    ``id_base`` differs per client, and the server's write ids start at 1,
    so the three id spaces are told apart by a tag.
    """
    key = getattr(message, "req_id", None)
    if key is not None:
        return key
    key = getattr(message, "write_id", None)
    if key is not None:
        return ("w", key)
    return ("b", getattr(message, "batch_id", None))


class Tracer:
    """In-memory span store plus the little context the seams share."""

    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        """Forget everything recorded so far (called after the warm-up)."""
        self.name = array("b")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.op = array("q")
        #: Innermost open *synchronous* span.
        self.current = -1
        #: The ``op`` span the next ``client.read``/``client.write`` serves;
        #: set by the load generator right before it calls the node.
        self.next_op = -1
        #: Correlation key -> span that caused the message carrying it.
        self.cause: dict[object, int] = {}
        #: ``(sender, message)`` of every frame sent, for the codec replay.
        self.messages: list[tuple[str, object]] = []

    def take(self) -> "Tracer":
        """Hand everything recorded so far to a new tracer and start afresh.

        The seams keep recording into this one; what they add after the
        timed section (the read-back) is never looked at.
        """
        taken = Tracer.__new__(Tracer)
        taken.__dict__.update(self.__dict__)
        self.reset()
        return taken

    def __len__(self) -> int:
        return len(self.start)

    def open(self, name: int, parent: int, start: float | None = None) -> int:
        """Begin a span; returns its id (its index in the arrays)."""
        sid = len(self.start)
        self.name.append(name)
        self.parent.append(parent)
        self.op.append(sid if name == OP else (self.op[parent] if parent >= 0 else -1))
        self.end.append(0.0)
        self.start.append(_pc() if start is None else start)
        return sid

    def close(self, sid: int, end: float | None = None) -> None:
        """End a span."""
        self.end[sid] = _pc() if end is None else end

    def call(self, name: int, parent: int, fn, *args):
        """Run ``fn(*args)`` inside a synchronous span; returns (span id, result)."""
        sid = self.open(name, parent)
        outer, self.current = self.current, sid
        try:
            return sid, fn(*args)
        finally:
            self.current = outer
            self.close(sid)

    def engine_call(self, name: int, parent: int, fn, *args):
        """Span around one engine entry point.

        The messages among the returned effects are caused by this span;
        they are registered after the span closes, so the bookkeeping is
        not counted as engine time.
        """
        sid, result = self.call(name, parent, fn, *args)
        effects = result[1] if isinstance(result, tuple) else result
        for effect in effects:
            if isinstance(effect, (Send, Broadcast)):
                self.cause[message_key(effect.message)] = sid
        return result

    # -- analysis ---------------------------------------------------------------

    def self_times(self) -> array:
        """Each span's duration minus what its children cover of it."""
        start, end = self.start, self.end
        out = array("d", (e - s for s, e in zip(start, end)))
        for sid, parent in enumerate(self.parent):
            if parent >= 0:
                overlap = min(end[sid], end[parent]) - max(start[sid], start[parent])
                if overlap > 0.0:
                    out[parent] -= overlap
        return out

    def totals(self) -> tuple[list[int], list[float]]:
        """Per span name: how many spans, and their summed duration in seconds."""
        count = [0] * len(SPAN_NAMES)
        seconds = [0.0] * len(SPAN_NAMES)
        for name, s, e in zip(self.name, self.start, self.end):
            count[name] += 1
            seconds[name] += e - s
        return count, seconds

    def wait_per_op(self) -> float:
        """Mean seconds an op spent outside every busy span on its path.

        Op duration minus the self time of every other span carrying its
        op id: what is left is event-loop scheduling, socket wait and, with
        several ops in flight, queueing behind the others.
        """
        selfs = self.self_times()
        busy: dict[int, float] = {}
        ops = 0
        waited = 0.0
        for sid, (name, op) in enumerate(zip(self.name, self.op)):
            if name != OP and op >= 0:
                busy[op] = busy.get(op, 0.0) + selfs[sid]
        for sid, name in enumerate(self.name):
            if name == OP:
                ops += 1
                waited += self.end[sid] - self.start[sid] - busy.get(sid, 0.0)
        return waited / ops if ops else 0.0

    def dump(self, path, meta: dict) -> None:
        """Write every span as one columnar JSON document.

        Times are integer nanoseconds since the first span began.
        """
        origin = min(self.start) if len(self) else 0.0
        document = {
            "meta": meta,
            "names": list(SPAN_NAMES),
            "spans": {
                "name": self.name.tolist(),
                "start_ns": [round((t - origin) * 1e9) for t in self.start],
                "end_ns": [round((t - origin) * 1e9) for t in self.end],
                "parent": self.parent.tolist(),
                "op": self.op.tolist(),
            },
        }
        with open(path, "w", encoding="utf-8") as out:
            json.dump(document, out, separators=(",", ":"))


class TracingTransport:
    """A :class:`~repro.runtime.transport.Transport` that records spans."""

    def __init__(self, inner, tracer: Tracer):
        self._inner = inner
        self._tracer = tracer

    @property
    def name(self) -> str:
        return self._inner.name

    def set_handler(self, handler) -> None:
        tracer = self._tracer

        def traced_handler(message, src) -> None:
            parent = tracer.cause.pop(message_key(message), -1)
            tracer.call(NODE_HANDLER, parent, handler, message, src)

        self._inner.set_handler(traced_handler)

    async def send(self, dst, message) -> None:
        tracer = self._tracer
        key = message_key(message)
        sid = tracer.open(TCP_SEND, tracer.cause.get(key, -1))
        # Registered before the send: the receiving handler may run as soon
        # as this coroutine yields.
        tracer.cause[key] = sid
        tracer.messages.append((self._inner.name, message))
        try:
            await self._inner.send(dst, message)
        finally:
            tracer.close(sid)

    async def close(self) -> None:
        await self._inner.close()


def traced_client_engine(tracer: Tracer) -> type[ClientEngine]:
    """A ``ClientEngine`` subclass bound to ``tracer`` (for ``engine_cls=``)."""

    class TracedClientEngine(ClientEngine):
        def read(self, datum, now):
            parent, tracer.next_op = tracer.next_op, -1
            return tracer.engine_call(CLIENT_READ, parent, super().read, datum, now)

        def write(self, datum, content, now, cas=None):
            parent, tracer.next_op = tracer.next_op, -1
            return tracer.engine_call(
                CLIENT_WRITE, parent, super().write, datum, content, now, cas
            )

        def handle_message(self, msg, src, now):
            return tracer.engine_call(
                CLIENT_MESSAGE, tracer.current, super().handle_message, msg, src, now
            )

        def handle_timer(self, key, now):
            return tracer.engine_call(
                CLIENT_TIMER, tracer.current, super().handle_timer, key, now
            )

    return TracedClientEngine


class TracedServerEngine:
    """Delegating proxy for ``LeaseServerNode.engine``."""

    def __init__(self, engine, tracer: Tracer):
        self._engine = engine
        self._tracer = tracer

    def handle_message(self, msg, src, now):
        tracer = self._tracer
        return tracer.engine_call(
            SERVER_MESSAGE, tracer.current, self._engine.handle_message, msg, src, now
        )

    def handle_timer(self, key, now):
        tracer = self._tracer
        return tracer.engine_call(
            SERVER_TIMER, tracer.current, self._engine.handle_timer, key, now
        )

    def __getattr__(self, name):
        return getattr(self._engine, name)
