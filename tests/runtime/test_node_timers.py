"""A node's engine timers: deadlines in one heap, one loop wake at a time.

The node turns ``SetTimer``/``CancelTimer`` into entries of its own
``(deadline, seq, key)`` heap and holds a loop handle only for the
earliest deadline.  These tests drive the node's effect executor with a
scripted engine and check the contract the engines rely on: re-arming
replaces, a cancelled key never fires, a zero-delay timer keeps
``call_later(0)``'s place in the loop, a crash or close leaves nothing
armed, and churn runs in memory proportional to the live timers.
"""

import asyncio
import time

from repro.protocol.effects import CancelTimer, SetTimer
from repro.runtime.node import _COMPACT_MIN, _ServerNode


class Wire:
    """A transport that carries nothing: these tests send no messages."""

    name = "server"

    def set_handler(self, handler):
        pass

    async def send(self, dst, message):
        raise AssertionError("no message expected")

    async def close(self):
        pass


class Scripted:
    """An engine that logs each timer firing as ``(key, loop time)`` and
    answers it with the effects ``script`` holds for the key."""

    def __init__(self, log, script=None):
        self.log = log
        self.script = script or {}

    def startup_effects(self, now):
        return []

    def handle_timer(self, key, now):
        self.log.append((key, asyncio.get_running_loop().time()))
        action = self.script.get(key)
        return action() if callable(action) else list(action or [])

    def handle_message(self, message, src, now):
        return []

    def reboot(self, now):
        return Scripted(self.log, self.script)


def node_with(script=None):
    log = []
    return _ServerNode(Wire(), Scripted(log, script)), log


def keys(log):
    return [key for key, _ in log]


def run(coro):
    asyncio.run(coro)


async def settle(node, timeout=5.0):
    """Wait until every live timer of ``node`` has fired (a stalled loop
    only makes this slower, never the test wrong)."""
    loop = asyncio.get_running_loop()
    give_up = loop.time() + timeout
    while node._timers:
        assert loop.time() < give_up, node._timers
        await asyncio.sleep(0.005)


def test_rearming_a_key_replaces_it():
    async def scenario():
        node, log = node_with()
        loop = asyncio.get_running_loop()
        node._run_effects([SetTimer("t", 0.02)])
        armed = loop.time()
        node._run_effects([SetTimer("t", 0.08)])
        await settle(node)
        assert keys(log) == ["t"]
        assert log[0][1] >= armed + 0.08
        assert not node._timers

    run(scenario())


def test_a_cancelled_key_never_fires():
    async def scenario():
        node, log = node_with()
        node._run_effects([SetTimer("late", 0.02), SetTimer("now", 0.0), SetTimer("kept", 0.03)])
        node._run_effects([CancelTimer("late"), CancelTimer("now"), CancelTimer("never-set")])
        await settle(node)
        assert keys(log) == ["kept"]

    run(scenario())


def test_a_firing_can_cancel_or_rearm_a_key_due_in_the_same_wake():
    """A loop that ran late fires every past-due key in one wake (see
    below); one of them may cancel or re-arm another due with it."""

    async def scenario():
        node, log = node_with({"b": [CancelTimer("c"), SetTimer("d", 0.01)]})
        node._run_effects([SetTimer(k, 0.001 * i) for i, k in enumerate("abdce", 1)])
        time.sleep(0.02)  # block the loop past every deadline
        await settle(node)
        assert keys(log) == ["a", "b", "e", "d"]
        assert log[3][1] >= log[1][1] + 0.01  # the re-armed deadline, once

    run(scenario())


def test_due_keys_fire_in_deadline_then_arming_order():
    async def scenario():
        node, log = node_with()
        node._run_effects([SetTimer("c", 0.03), SetTimer("a", 0.01), SetTimer("b", 0.01)])
        await settle(node)
        assert keys(log) == ["a", "b", "c"]

    run(scenario())


def test_a_zero_delay_timer_armed_in_a_firing_waits_for_a_later_iteration():
    """What the batching flush relies on: a zero-delay timer armed inside a
    firing runs after every callback and task step scheduled in the
    iteration that armed it, not in the same wake."""

    async def scenario():
        loop = asyncio.get_running_loop()
        order = []
        woken = loop.create_future()

        async def waiter():
            await woken
            order.append("task step")

        def first():
            order.append("first")
            loop.call_soon(order.append, "callback")
            if not woken.done():
                woken.set_result(None)
            return [SetTimer("second", 0.0)]

        def second():
            order.append("second")
            return [SetTimer("first", 0.0)] if order.count("second") < 3 else []

        node, log = node_with({"first": first, "second": second})
        task = asyncio.ensure_future(waiter())
        await asyncio.sleep(0)  # the task now waits on ``woken``
        node._run_effects([SetTimer("first", 0.01)])
        await settle(node)
        await task
        assert order[:4] == ["first", "callback", "task step", "second"]
        assert keys(log) == ["first", "second"] * 3

    run(scenario())


def test_a_zero_delay_timer_runs_after_callbacks_scheduled_before_it():
    async def scenario():
        loop = asyncio.get_running_loop()
        order = []
        node, log = node_with({"flush": lambda: order.append("flush") or []})
        node._run_effects([SetTimer("later", 60.0)])  # a handle is armed already
        loop.call_soon(order.append, "before")
        node._run_effects([SetTimer("flush", 0.0)])
        loop.call_soon(order.append, "after")
        await asyncio.sleep(0)  # the next iteration runs both callbacks, then the wake
        await asyncio.sleep(0)
        assert order == ["before", "after", "flush"]

    run(scenario())


def test_kill_and_close_leave_no_live_entry_and_no_armed_handle():
    async def scenario():
        node, log = node_with()
        for delay in (0.02, 0.01, 0.0):  # three handles, each earlier than the last
            node._run_effects([SetTimer(f"t{delay}", delay)])
        assert len(node._wakes) == 3
        wakes = list(node._wakes)
        node.kill()
        assert not node._timers and not node._heap and not node._wakes
        assert all(handle.cancelled() for handle in wakes)
        await asyncio.sleep(0.05)
        assert log == []

        node.restart()
        node._run_effects([SetTimer("t", 0.01), SetTimer("u", 60.0)])
        wakes = list(node._wakes)
        await node.close()
        assert not node._timers and not node._heap and not node._wakes
        assert all(handle.cancelled() for handle in wakes)
        await asyncio.sleep(0.03)
        assert log == []

    run(scenario())


def test_churn_keeps_the_heap_within_twice_the_live_count():
    async def scenario():
        node, log = node_with()
        live = [SetTimer(f"live{i}", 60.0 + i) for i in range(10)]
        node._run_effects(live)
        for i in range(10_000):
            node._run_effects([SetTimer(f"rpc:{i}", 5.0)])
            if i % 2:
                node._run_effects([SetTimer(f"rpc:{i}", 6.0)])  # a re-arm
            node._run_effects([CancelTimer(f"rpc:{i}")])
            assert len(node._heap) <= 2 * len(node._timers) + _COMPACT_MIN + 1
        assert len(node._timers) == 10
        # One handle for the live timers, one for the first rpc: no later
        # deadline ever armed the loop, and no cancel disarmed it.
        assert len(node._wakes) == 2
        assert log == []
        await node.close()

    run(scenario())


def test_a_failing_firing_is_reported_and_spares_the_other_timers():
    async def scenario():
        loop = asyncio.get_running_loop()
        reported = []
        loop.set_exception_handler(lambda loop, context: reported.append(context))

        def boom():
            raise RuntimeError("boom")

        node, log = node_with({"a": boom})
        node._run_effects([SetTimer("a", 0.01), SetTimer("b", 0.01), SetTimer("c", 0.02)])
        await settle(node)
        assert keys(log) == ["a", "b", "c"]
        assert [type(c["exception"]) for c in reported] == [RuntimeError]
        assert not node._timers and not node._heap

    run(scenario())


def test_a_late_wake_fires_everything_past_due_at_once():
    """A loop that ran late owes several deadlines: they fire in order,
    within two wakes, however many there are."""

    async def scenario():
        node, log = node_with()
        node._run_effects([SetTimer(f"t{i}", 0.001 * i) for i in range(1, 6)])
        loop = asyncio.get_running_loop()
        time.sleep(0.02)  # block the loop past every deadline
        before = loop.time()
        await asyncio.sleep(0)
        await asyncio.sleep(0)
        await asyncio.sleep(0)
        assert keys(log) == [f"t{i}" for i in range(1, 6)]
        assert all(at >= before for _, at in log)

    run(scenario())
