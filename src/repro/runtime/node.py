"""Asyncio hosts for the sans-io protocol engines.

A node owns an engine, a transport and a clock.  Inbound messages and
timer firings are dispatched on the event loop (engines are synchronous,
so a single-threaded loop serializes them for free); effects are executed
as they are emitted: ``SetTimer`` records a deadline in the node's own
timer heap (re-arming replaces), ``Complete`` resolves the Future a
waiting client call holds (an operation the engine finishes on the spot
never gets one), and a send runs ``transport.send`` on the spot, to its
first suspension point.  Every stock transport finishes there, so a sent
message costs no Task and no extra loop iteration; only a send that
really waits (chaos delay) is finished by a Task, which the node tracks
until ``close()``.

An engine timer is a deadline, not a loop handle.  The node keeps
``_timers`` (key -> its heap entry, live keys only) and one
``(deadline, seq, key)`` heap with lazy cancellation, compacted once dead
entries outnumber live ones: the structure of the simulator's kernel.
The loop holds a handle only for the earliest deadline, armed when a new
deadline is earlier than every handle already armed; a ``CancelTimer``
never touches the loop, and a wake that finds nothing due re-arms for the
heap's head.  A wake fires the due keys in ``(deadline, seq)`` order; a
timer armed during a wake, a zero-delay one included, fires in a later
loop iteration, after every task step scheduled in the current one.

A server node drives whatever authority engine it is given — a
:class:`~repro.protocol.server.ServerEngine` (:class:`LeaseServerNode`
builds one) or one replica's :class:`~repro.replica.engine.ReplicaEngine`
(:func:`repro.runtime.cluster.build_cluster` builds the group) — and can
be killed and restarted in process.  The node only drops the engine and
its timers; what survives the crash is decided by the engine's own
``reboot``, the same rule the simulator's crash fault runs.  A client
node has no restart: it could not honour the Futures its callers hold.
"""

from __future__ import annotations

import asyncio
import collections.abc
import math
import random
from heapq import heapify, heappop, heappush
from typing import Any

from repro.clock.system import MonotonicClock
from repro.errors import ReproError
from repro.lease.installed import InstalledFileManager
from repro.lease.policy import TermPolicy
from repro.obs.bus import NULL_BUS
from repro.obs.events import NET_RECV, NET_SEND, TIMER_FIRE, TRANSPORT_DROP
from repro.protocol.client import ClientConfig, ClientEngine
from repro.protocol.effects import Broadcast, CancelTimer, Complete, Effect, Send, SetTimer
from repro.protocol.messages import Message
from repro.protocol.server import ServerConfig, ServerEngine
from repro.runtime.transport import Transport
from repro.storage.store import FileStore
from repro.types import DatumId, HostId

#: Dead heap entries below which dead weight is cheaper than a rebuild.
_COMPACT_MIN = 64


class _Started(collections.abc.Coroutine):
    """A coroutine already run to its first suspension, for a Task to finish.

    The Task's first ``send(None)`` gets the future the coroutine is
    already waiting on, as if it had been yielded just now; everything
    after goes straight to the coroutine.  ``asyncio.Task(coro,
    eager_start=True)`` is the stdlib form of this from Python 3.12 on
    and can replace the class once 3.12 is the oldest interpreter CI runs.
    """

    def __init__(self, coro: collections.abc.Coroutine, waiting_on):
        self._coro = coro
        self._waiting_on = waiting_on

    def send(self, value):
        waiting_on, self._waiting_on = self._waiting_on, None
        return waiting_on if waiting_on is not None else self._coro.send(value)

    def throw(self, *exc_info):
        self._waiting_on = None
        return self._coro.throw(*exc_info)

    def __await__(self):
        return self

    def __next__(self):
        return self.send(None)


class _EngineNode:
    """Shared plumbing: effect execution, timers, message dispatch."""

    def __init__(self, transport: Transport, clock=None, obs=None):
        self.transport = transport
        self.clock = clock or MonotonicClock()
        #: The node-local :class:`~repro.obs.bus.TraceBus`.  The node emits
        #: the driver-level events (``net.send``/``net.recv``/``timer.fire``)
        #: here with the same schemas the simulator uses, and hands the bus
        #: to its engine, which emits the protocol-level events itself.
        self.obs = obs or NULL_BUS
        #: key -> its ``(deadline, seq, key)`` heap entry; live keys only.
        self._timers: dict[str, tuple[float, int, str]] = {}
        self._heap: list[tuple[float, int, str]] = []
        self._seq = 0
        #: Armed loop handles, latest first to fire on top: each was armed
        #: earlier than all before it, so they fire in reverse order.
        self._wakes: list[asyncio.TimerHandle] = []
        self._wake_at = math.inf  # deadline of ``_wakes[-1]``
        # The loop is resolved lazily (see `_loop`): binding it here via the
        # deprecated get_event_loop() would capture the wrong loop when a
        # node is constructed before asyncio.run().
        self._bound_loop: asyncio.AbstractEventLoop | None = None
        self._send_tasks: set[asyncio.Task] = set()
        self.engine = None
        transport.set_handler(self._on_message)

    @property
    def name(self) -> HostId:
        return self.transport.name

    @property
    def _loop(self) -> asyncio.AbstractEventLoop:
        if self._bound_loop is None:
            self._bound_loop = asyncio.get_running_loop()
        return self._bound_loop

    # -- overridden by subclasses ------------------------------------------------

    def _on_complete(self, effect: Complete) -> None:
        raise ReproError(f"{type(self).__name__} got unexpected Complete")

    # -- plumbing -------------------------------------------------------------------

    # Both read ``self.engine`` per event, so an engine swapped in after
    # construction (a tracing proxy, a reboot) takes effect at once.  A
    # killed node (``engine is None``) receives nothing.

    def _on_message(self, message: Message, src: HostId) -> None:
        engine = self.engine
        if engine is None:
            return
        now = self.clock.now()
        if self.obs.active:
            self.obs.emit(
                NET_RECV, now, self.name, src=src, dst=self.name, kind=message.kind
            )
        self._run_effects(engine.handle_message(message, src, now))

    def _on_timer(self, key: str) -> None:
        engine = self.engine
        if engine is None:
            return
        now = self.clock.now()
        if self.obs.active:
            self.obs.emit(TIMER_FIRE, now, self.name, key=key)
        self._run_effects(engine.handle_timer(key, now))

    def _run_effects(self, effects: list[Effect]) -> None:
        for effect in effects:
            if isinstance(effect, Send):
                self._send_soon(effect.dst, effect.message)
            elif isinstance(effect, Broadcast):
                for dst in effect.dsts:
                    self._send_soon(dst, effect.message)
            elif isinstance(effect, SetTimer):
                self._set_timer(effect.key, effect.delay)
            elif isinstance(effect, CancelTimer):
                self._cancel_timer(effect.key)
            elif isinstance(effect, Complete):
                self._on_complete(effect)
            else:
                raise ReproError(f"cannot execute effect {effect!r}")

    def _send_soon(self, dst: HostId, message: Message) -> None:
        if self.obs.active:
            self.obs.emit(
                NET_SEND, self.clock.now(), self.name,
                src=self.name, dst=dst, kind=message.kind,
            )
        # Run the send right here, up to its first suspension point; by the
        # transports' contract (Transport.send) that is normally all of it.
        send = self.transport.send(dst, message)
        try:
            waiting_on = send.send(None)
        except StopIteration:
            return
        except Exception as exc:
            self._send_failed(dst, message.kind, exc)
            return
        task = self._loop.create_task(_Started(send, waiting_on))
        self._send_tasks.add(task)
        task.add_done_callback(
            lambda t, dst=dst, kind=message.kind: self._send_done(t, dst, kind)
        )

    def _send_done(self, task: asyncio.Task, dst: HostId, kind: str) -> None:
        # A send cancelled during close() is not a failure, and asking it
        # for task.exception() would raise CancelledError in this callback.
        self._send_tasks.discard(task)
        if not task.cancelled() and task.exception() is not None:
            self._send_failed(dst, kind, task.exception())

    def _send_failed(self, dst: HostId, kind: str, exc: BaseException) -> None:
        # A send that failed is a dropped frame: observable, never silent.
        if self.obs.active:
            self.obs.emit(
                TRANSPORT_DROP, self.clock.now(), self.name,
                dst=dst, kind=kind, reason=type(exc).__name__,
            )

    # -- timers -----------------------------------------------------------------------

    def _set_timer(self, key: str, delay: float) -> None:
        loop = self._bound_loop or self._loop  # the property, inlined
        deadline = loop.time() + (delay if delay > 0.0 else 0.0)
        entry = (deadline, self._seq, key)
        self._seq += 1
        timers = self._timers
        replaced = key in timers
        timers[key] = entry
        heappush(self._heap, entry)
        if replaced:
            self._compact_if_sparse()
        if deadline < self._wake_at:
            self._wakes.append(loop.call_at(deadline, self._wake))
            self._wake_at = deadline

    def _cancel_timer(self, key: str) -> None:
        if self._timers.pop(key, None) is not None:
            self._compact_if_sparse()

    def _compact_if_sparse(self) -> None:
        """Drop dead heap entries once they outnumber live ones (past a
        floor), so timer churn runs in O(live) memory."""
        heap, timers = self._heap, self._timers
        dead = len(heap) - len(timers)
        if dead > _COMPACT_MIN and dead > len(timers):
            heap[:] = [e for e in heap if timers.get(e[2]) is e]
            heapify(heap)

    def _wake(self) -> None:
        """The earliest armed handle fired: run every key due by its deadline.

        That deadline precedes the start of this loop iteration (to within
        the monotonic clock's resolution), and a timer armed in this
        iteration has a deadline no earlier than its start; so "due by the
        handle's deadline" leaves such a timer for a later iteration, as
        ``call_later(0)`` would.
        """
        wakes, due_by = self._wakes, self._wake_at
        wakes.pop()
        self._wake_at = wakes[-1].when() if wakes else math.inf
        heap, timers = self._heap, self._timers
        # Take the due entries out first: one armed by a firing below goes
        # into the heap and so waits for a later wake.
        due = []
        while heap and heap[0][0] <= due_by:
            entry = heappop(heap)
            if timers.get(entry[2]) is entry:
                due.append(entry)
        for entry in due:
            key = entry[2]
            if timers.get(key) is entry:  # not cancelled or re-armed since
                del timers[key]
                try:
                    self._on_timer(key)
                except (SystemExit, KeyboardInterrupt):
                    raise
                except BaseException as exc:  # as the loop treats a callback
                    self._loop.call_exception_handler({
                        "message": f"Exception in timer {key!r} of {self.name}",
                        "exception": exc,
                    })
        while heap and timers.get(heap[0][2]) is not heap[0]:
            heappop(heap)  # dead: no wake for a cancelled timer
        if heap:
            # Past due already (the loop ran late): one wake takes them all.
            deadline = max(heap[0][0], self._loop.time())
            if deadline < self._wake_at:
                wakes.append(self._loop.call_at(deadline, self._wake))
                self._wake_at = deadline

    def _drop_timers(self) -> None:
        """Forget every timer and disarm every loop handle."""
        self._timers.clear()
        self._heap.clear()
        for handle in self._wakes:
            handle.cancel()
        self._wakes.clear()
        self._wake_at = math.inf

    async def close(self) -> None:
        """Drop timers, reap in-flight sends, and close the transport."""
        self._drop_timers()
        for task in self._send_tasks:  # only those still waiting are in it
            task.cancel()
        await asyncio.gather(*self._send_tasks, return_exceptions=True)
        await self.transport.close()


class _ServerNode(_EngineNode):
    """A server node that can be killed and restarted in process.

    It is given its engine, as the simulator's ``SimServer`` is.  The
    crash model is SIGKILL, not shutdown: :meth:`kill` drops the engine
    and every timer with no goodbye traffic, and the node ignores
    everything until :meth:`restart`.  The restart runs the dropped
    engine's own ``reboot``, which carries forward what survives a crash
    (``ServerEngine.reboot``, ``ReplicaEngine.reboot``).
    """

    def __init__(self, transport: Transport, engine, clock=None, obs=None):
        super().__init__(transport, clock, obs=obs)
        self._start(engine)

    def _start(self, engine) -> None:
        self.engine, self._crashed = engine, None
        self._run_effects(engine.startup_effects(self.clock.now()))

    @property
    def alive(self) -> bool:
        """False between :meth:`kill` and :meth:`restart`."""
        return self.engine is not None

    def kill(self) -> None:
        """SIGKILL: drop the engine and all timers abruptly, no goodbye.

        The transport stays open (the OS-level connection may even stay
        up for a moment — just like a killed process's sockets), but
        every inbound message and timer from here on is ignored, and no
        farewell or state transfer is ever sent.  Idempotent.
        """
        if self.engine is not None:
            self._crashed, self.engine = self.engine, None
        self._drop_timers()

    def restart(self) -> None:
        """Reboot, killing first if alive: the dropped engine's next
        incarnation takes over."""
        self.kill()
        self._start(self._crashed.reboot(self.clock.now()))

    def is_master(self) -> bool:
        """True while the engine serves: always for a lone server that is
        up, only under a currently valid master lease for a replica."""
        return self.engine is not None and self.engine.master_valid(self.clock.now())

    def status(self) -> dict:
        """Operational snapshot (``{"state": "down"}`` while killed)."""
        if self.engine is None:
            return {"state": "down"}
        return self.engine.status(self.clock.now())


class LeaseServerNode(_ServerNode):
    """A real-time lease file server."""

    def __init__(
        self,
        transport: Transport,
        store: FileStore,
        policy: TermPolicy,
        config: ServerConfig | None = None,
        installed: InstalledFileManager | None = None,
        clock=None,
        obs=None,
    ):
        clock = clock or MonotonicClock()
        engine = ServerEngine(
            transport.name,
            store,
            policy,
            config=config,
            installed=installed,
            now=clock.now(),
            obs=obs,
        )
        super().__init__(transport, engine, clock, obs=obs)


class LeaseClientNode(_EngineNode):
    """A real-time lease client cache with an async application API."""

    def __init__(
        self,
        transport: Transport,
        server: HostId,
        config: ClientConfig | None = None,
        clock=None,
        id_base: int | None = None,
        obs=None,
        engine_cls: type[ClientEngine] = ClientEngine,
    ):
        """Args:
            server: the server host name, or the tuple of a replica
                group's host names (the plain ``ClientEngine`` fails over
                between them on ``NotMaster`` redirects) — or, with
                ``engine_cls`` set to
                :class:`~repro.shard.client.ShardedClientEngine`, one such
                address per shard (pair it with a
                :class:`~repro.shard.transport.FanoutTransport` or a hub
                endpoint that reaches every shard).
            engine_cls: the sans-io engine to drive (the single-server
                :class:`~repro.protocol.client.ClientEngine` by default).
        """
        super().__init__(transport, clock, obs=obs)
        if id_base is None:
            # A fresh random epoch per process: two incarnations (or two
            # processes reusing one client name) must never collide in the
            # server's write-dedup space.
            id_base = random.getrandbits(44) << 16
        self.engine = engine_cls(
            transport.name, server, config=config, id_base=id_base, obs=self.obs
        )
        self._futures: dict[int, asyncio.Future] = {}
        self._closed = False
        self._run_effects(self.engine.startup_effects(self.clock.now()))

    async def close(self) -> None:
        """Fail every operation in flight, then close: the time-outs that
        would have failed them are among the timers closing cancels.  An
        operation submitted afterwards is refused at once."""
        self._closed = True
        futures, self._futures = self._futures, {}
        for future in futures.values():
            if not future.done():
                future.set_exception(ReproError("client closed"))
        await super().close()

    def _on_complete(self, effect: Complete) -> None:
        future = self._futures.pop(effect.op_id, None)
        if future is None or future.done():
            return
        if effect.ok:
            future.set_result(effect.value)
        else:
            future.set_exception(ReproError(effect.error or "operation failed"))

    def _submit(self, op_id: int, effects: list[Effect]) -> tuple[asyncio.Future | None, Any]:
        """Execute a submitted operation's effects: ``(future, value)``.

        An operation the engine finished on the spot — the effects are
        exactly its own successful ``Complete``, as for a lease-valid read
        — is answered right here with ``(None, value)``: no Future, no
        ``_futures`` entry, no pass through ``_run_effects``, nothing for
        the caller to await.  Anything else gets the Future a ``Complete``
        will resolve.  (Callers refuse a closed node *before* the engine
        call that produces the arguments, so that a refused operation
        counts nothing, arms no timer and sends nothing.)
        """
        if len(effects) == 1:
            done = effects[0]
            if done.__class__ is Complete and done.op_id == op_id and done.ok:
                return None, done.value
        future = self._futures[op_id] = self._loop.create_future()
        self._run_effects(effects)
        return future, None

    # -- application API ----------------------------------------------------------

    async def read(self, datum: DatumId) -> tuple[int, Any]:
        """Read a datum; returns ``(version, payload)``.

        Served locally with no I/O whenever the cached copy and its lease
        are valid; such a hit costs no Future and no loop iteration.
        """
        if self._closed:
            raise ReproError("client closed")
        future, value = self._submit(*self.engine.read(datum, self.clock.now()))
        return value if future is None else await future

    async def write(
        self, datum: DatumId, content: bytes, cas: int | None = None
    ) -> int:
        """Write a file datum through to the server; returns the version.

        Args:
            cas: version this write was derived from (from a prior
                :meth:`read`); the server rejects the write if the datum
                has since moved past it.
        """
        if self._closed:
            raise ReproError("client closed")
        future, value = self._submit(
            *self.engine.write(datum, content, self.clock.now(), cas=cas)
        )
        return value if future is None else await future

    async def namespace_op(self, op_name: str, args: tuple) -> Any:
        """Submit a namespace mutation (bind/unbind/rename/mkdir)."""
        if self._closed:
            raise ReproError("client closed")
        future, value = self._submit(
            *self.engine.namespace_op(op_name, args, self.clock.now())
        )
        return value if future is None else await future

    def relinquish(self, datum: DatumId) -> None:
        """Voluntarily give up a lease (client option, §4)."""
        if self._closed:
            raise ReproError("client closed")
        self._run_effects(self.engine.relinquish(datum))

    def write_temp(self, path: str, content: bytes) -> None:
        """Write a temporary file locally (never reaches the server)."""
        self.engine.write_temp(path, content)

    def read_temp(self, path: str) -> bytes | None:
        """Read a locally stored temporary file."""
        return self.engine.read_temp(path)
