"""Tests for the simulated network: timing model, multicast, loss, FIFO."""

import pytest

from repro.errors import SimulationError
from repro.sim.host import Host
from repro.sim.kernel import Kernel
from repro.sim.network import MessageStats, Network, NetworkParams

M_PROP = 0.27e-3
M_PROC = 0.5e-3


def make_net(n_clients=2, loss_rate=0.0, seed=0):
    kernel = Kernel(seed=seed)
    net = Network(kernel, NetworkParams(m_prop=M_PROP, m_proc=M_PROC, loss_rate=loss_rate))
    hosts = {}
    for name in ["server"] + [f"c{i}" for i in range(n_clients)]:
        host = Host(name, kernel)
        net.attach(host)
        hosts[name] = host
    return kernel, net, hosts


class TestParams:
    def test_round_trip_formula(self):
        params = NetworkParams(m_prop=M_PROP, m_proc=M_PROC)
        assert params.round_trip == pytest.approx(2 * M_PROP + 4 * M_PROC)

    def test_rejects_negative_times(self):
        with pytest.raises(ValueError):
            NetworkParams(m_prop=-1.0)

    def test_rejects_bad_loss_rate(self):
        with pytest.raises(ValueError):
            NetworkParams(loss_rate=1.5)


class TestUnicastTiming:
    def test_one_way_delivery_time(self):
        """One message costs m_proc (send) + m_prop (wire) + m_proc (recv)."""
        kernel, net, hosts = make_net()
        arrivals = []
        hosts["c0"].set_handler(lambda payload, src: arrivals.append(kernel.now))
        net.unicast("server", "c0", "hello")
        kernel.run()
        assert arrivals == [pytest.approx(M_PROP + 2 * M_PROC)]

    def test_request_response_round_trip(self):
        """A unicast RPC completes in 2*m_prop + 4*m_proc (paper §3.1)."""
        kernel, net, hosts = make_net()
        done = []
        hosts["server"].set_handler(
            lambda payload, src: net.unicast("server", src, "reply")
        )
        hosts["c0"].set_handler(lambda payload, src: done.append(kernel.now))
        net.unicast("c0", "server", "request")
        kernel.run()
        assert done == [pytest.approx(2 * M_PROP + 4 * M_PROC)]

    def test_payload_and_src_delivered(self):
        kernel, net, hosts = make_net()
        seen = []
        hosts["c0"].set_handler(lambda payload, src: seen.append((payload, src)))
        net.unicast("server", "c0", {"x": 1})
        kernel.run()
        assert seen == [({"x": 1}, "server")]

    def test_unknown_destination_raises(self):
        kernel, net, hosts = make_net()
        with pytest.raises(SimulationError):
            net.unicast("server", "ghost", "x")

    def test_receiver_cpu_serializes_processing(self):
        """Two simultaneous arrivals are processed m_proc apart."""
        kernel, net, hosts = make_net(n_clients=2)
        arrivals = []
        hosts["server"].set_handler(lambda payload, src: arrivals.append(kernel.now))
        net.unicast("c0", "server", "a")
        net.unicast("c1", "server", "b")
        kernel.run()
        first = M_PROP + 2 * M_PROC
        assert arrivals[0] == pytest.approx(first)
        assert arrivals[1] == pytest.approx(first + M_PROC)

    def test_sender_cpu_serializes_sends(self):
        """Back-to-back sends from one host depart m_proc apart."""
        kernel, net, hosts = make_net(n_clients=2)
        arrivals = {}
        for c in ("c0", "c1"):
            hosts[c].set_handler(
                lambda payload, src, c=c: arrivals.setdefault(c, kernel.now)
            )
        net.unicast("server", "c0", "a")
        net.unicast("server", "c1", "b")
        kernel.run()
        assert arrivals["c1"] - arrivals["c0"] == pytest.approx(M_PROC)


class TestMulticastTiming:
    def test_multicast_approval_formula(self):
        """Multicast + n replies completes in 2*m_prop + (n+3)*m_proc (paper §3.1)."""
        for n in (1, 3, 9):
            kernel, net, hosts = make_net(n_clients=n)
            replies = []
            for i in range(n):
                name = f"c{i}"
                hosts[name].set_handler(
                    lambda payload, src, name=name: net.unicast(name, "server", "ok")
                )
            hosts["server"].set_handler(
                lambda payload, src: replies.append(kernel.now)
            )
            sent = net.multisend("server", [f"c{i}" for i in range(n)], "approve?")
            kernel.run()
            assert sent == n
            assert len(replies) == n
            assert replies[-1] == pytest.approx(2 * M_PROP + (n + 3) * M_PROC)

    def test_multicast_excludes_sender(self):
        kernel, net, hosts = make_net(n_clients=1)
        seen = []
        hosts["c0"].set_handler(lambda payload, src: seen.append(payload))
        hosts["server"].set_handler(lambda payload, src: seen.append("SERVER-GOT-OWN"))
        assert net.multisend("server", ["server", "c0"], "x") == 1
        kernel.run()
        assert seen == ["x"]

    def test_multicast_to_empty_group(self):
        kernel, net, hosts = make_net()
        assert net.multisend("server", [], "x") == 0
        kernel.run()
        assert net.stats["server"].sent["msg"] == 1  # still a send (V model)


class TestFailures:
    def test_crashed_receiver_drops_message(self):
        kernel, net, hosts = make_net()
        seen = []
        hosts["c0"].set_handler(lambda payload, src: seen.append(payload))
        hosts["c0"].crash()
        net.unicast("server", "c0", "x")
        kernel.run()
        assert seen == []
        assert net.dropped == 1

    def test_crashed_sender_sends_nothing(self):
        kernel, net, hosts = make_net()
        seen = []
        hosts["c0"].set_handler(lambda payload, src: seen.append(payload))
        hosts["server"].crash()
        net.unicast("server", "c0", "x")
        kernel.run()
        assert seen == []

    def test_restart_resumes_delivery(self):
        kernel, net, hosts = make_net()
        seen = []
        hosts["c0"].set_handler(lambda payload, src: seen.append(payload))
        hosts["c0"].crash()
        hosts["c0"].restart()
        net.unicast("server", "c0", "x")
        kernel.run()
        assert seen == ["x"]

    def test_crash_during_flight_drops_message(self):
        kernel, net, hosts = make_net()
        seen = []
        hosts["c0"].set_handler(lambda payload, src: seen.append(payload))
        net.unicast("server", "c0", "x")
        kernel.schedule(M_PROP / 2, hosts["c0"].crash)  # crash mid-flight
        kernel.run()
        assert seen == []

    def test_loss_rate_one_drops_everything(self):
        kernel, net, hosts = make_net(loss_rate=1.0)
        seen = []
        hosts["c0"].set_handler(lambda payload, src: seen.append(payload))
        for _ in range(10):
            net.unicast("server", "c0", "x")
        kernel.run()
        assert seen == []
        assert net.dropped == 10

    def test_loss_rate_statistics(self):
        kernel, net, hosts = make_net(loss_rate=0.5, seed=42)
        seen = []
        hosts["c0"].set_handler(lambda payload, src: seen.append(payload))
        for _ in range(400):
            net.unicast("server", "c0", "x")
        kernel.run()
        assert 120 < len(seen) < 280  # loose binomial bounds around 200

    def test_link_filter_blocks_one_direction(self):
        kernel, net, hosts = make_net()
        seen = []
        hosts["c0"].set_handler(lambda payload, src: seen.append("c->s? no, s->c"))
        hosts["server"].set_handler(lambda payload, src: seen.append("to-server"))
        net.add_link_filter(lambda src, dst: not (src == "c0" and dst == "server"))
        net.unicast("c0", "server", "blocked")
        net.unicast("server", "c0", "allowed")
        kernel.run()
        assert seen == ["c->s? no, s->c"]


class TestFifo:
    def test_per_pair_fifo_order(self):
        kernel, net, hosts = make_net()
        seen = []
        hosts["c0"].set_handler(lambda payload, src: seen.append(payload))
        for i in range(5):
            net.unicast("server", "c0", i)
        kernel.run()
        assert seen == [0, 1, 2, 3, 4]


class TestStats:
    def test_send_and_receive_counted_by_kind(self):
        kernel, net, hosts = make_net()
        hosts["server"].set_handler(lambda payload, src: None)
        net.unicast("c0", "server", "a", kind="lease/extend")
        net.unicast("c0", "server", "b", kind="data/read")
        kernel.run()
        assert net.stats["c0"].sent["lease/extend"] == 1
        assert net.stats["server"].received["lease/extend"] == 1
        assert net.stats["server"].handled() == 2
        assert net.stats["server"].handled(["lease/extend"]) == 1
        assert net.stats["server"].handled_prefix("lease/") == 1

    def test_lost_messages_count_as_sent_not_received(self):
        kernel, net, hosts = make_net(loss_rate=1.0)
        net.unicast("c0", "server", "x", kind="k")
        kernel.run()
        assert net.stats["c0"].sent["k"] == 1
        assert net.stats["server"].received["k"] == 0

    def test_empty_stats(self):
        stats = MessageStats()
        assert stats.handled() == 0
        assert stats.handled_prefix("x") == 0

    def test_duplicate_host_rejected(self):
        kernel, net, hosts = make_net()
        with pytest.raises(SimulationError):
            net.attach(Host("server", kernel))
