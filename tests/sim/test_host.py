"""Tests for simulated hosts: CPU serialization, clocks, timer drift."""

import math

import pytest

from repro.errors import HostDownError
from repro.sim.host import Host
from repro.sim.kernel import Kernel


class TestCpu:
    def test_idle_cpu_starts_now(self):
        kernel = Kernel()
        host = Host("h", kernel)
        assert host.occupy_cpu(0.5) == pytest.approx(0.5)

    def test_busy_cpu_serializes(self):
        kernel = Kernel()
        host = Host("h", kernel)
        host.occupy_cpu(0.5)
        assert host.occupy_cpu(0.3) == pytest.approx(0.8)

    def test_cpu_frees_with_time(self):
        kernel = Kernel()
        host = Host("h", kernel)
        host.occupy_cpu(0.5)
        kernel.run(until=2.0)
        assert host.occupy_cpu(0.1) == pytest.approx(2.1)

    def test_crash_resets_cpu_queue(self):
        kernel = Kernel()
        host = Host("h", kernel)
        host.occupy_cpu(100.0)
        host.crash()
        host.restart()
        assert host.occupy_cpu(0.1) == pytest.approx(0.1)


class TestDelivery:
    def test_deliver_without_handler_raises(self):
        host = Host("h", Kernel())
        with pytest.raises(HostDownError):
            host.deliver("payload", "src")

    def test_deliver_while_down_is_dropped(self):
        host = Host("h", Kernel())
        seen = []
        host.set_handler(lambda p, s: seen.append(p))
        host.crash()
        host.deliver("payload", "src")
        assert seen == []


class TestClockDriftTimers:
    def test_engine_timers_fire_at_local_deadline(self):
        """A drifting host's timers must fire when *its clock* says so:
        the driver converts local delays into kernel delays."""
        from repro.sim.driver import _TimerBank

        kernel = Kernel()
        fast = Host("fast", kernel, clock_drift=1.0)  # local runs 2x
        fired = []
        bank = _TimerBank(fast, lambda key: fired.append((key, fast.clock.now())))
        bank.set("t", 10.0)  # 10 local seconds = 5 kernel seconds
        kernel.run(until=20.0)
        (key, local_time), = fired
        assert local_time == pytest.approx(10.0)
        assert kernel.now == 20.0

    def test_a_delay_below_one_ulp_still_advances_time(self):
        """A positive delay is never scheduled at the current instant.
        Past t = 2 a remainder under half an ulp vanishes in ``now +
        delay``; fired at ``now``, the engine saw the same local time and
        re-armed the same remainder forever (a replica's
        ``master:check`` and a gate's ``write:`` timer did, after a
        backward clock step)."""
        from repro.sim.driver import _TimerBank

        kernel = Kernel()
        host = Host("h", kernel)
        kernel.run(until=2.95)
        delay = 1e-16
        assert kernel.now + delay == kernel.now  # not representable here
        fired = []
        bank = _TimerBank(host, lambda key: fired.append(kernel.now))
        bank.set("t", delay)
        kernel.run(until=3.0)
        assert fired == [math.nextafter(2.95, math.inf)]

    def test_cancelled_timer_does_not_fire(self):
        from repro.sim.driver import _TimerBank

        kernel = Kernel()
        host = Host("h", kernel)
        fired = []
        bank = _TimerBank(host, lambda key: fired.append(key))
        bank.set("t", 1.0)
        bank.cancel("t")
        kernel.run(until=5.0)
        assert fired == []

    def test_rearming_replaces_deadline(self):
        from repro.sim.driver import _TimerBank

        kernel = Kernel()
        host = Host("h", kernel)
        fired = []
        bank = _TimerBank(host, lambda key: fired.append(kernel.now))
        bank.set("t", 1.0)
        bank.set("t", 3.0)
        kernel.run(until=5.0)
        assert fired == [3.0]

    def test_timers_suppressed_while_host_down(self):
        from repro.sim.driver import _TimerBank

        kernel = Kernel()
        host = Host("h", kernel)
        fired = []
        bank = _TimerBank(host, lambda key: fired.append(key))
        bank.set("t", 1.0)
        host.crash()
        kernel.run(until=5.0)
        assert fired == []
