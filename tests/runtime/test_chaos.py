"""Chaos-injection tests: the §5 fault model exercised over real transports.

Unit tests pin the seeded fault rolls of :class:`ChaosTransport`; the
integration tests run the full protocol over real TCP sockets while the
wrapper drops, delays, duplicates and severs traffic — and, in the
acceptance test, while the server process itself is SIGKILL'd and
restarted.  The workload must complete with zero consistency violations
and every injected fault visible in the obs trace.
"""

import asyncio
import os
import socket
import sys
from pathlib import Path

import pytest

from repro.clock.system import MonotonicClock
from repro.lease.policy import FixedTermPolicy
from repro.obs.bus import TraceBus
from repro.obs.events import CONN_RETRY, CONN_UP, NET_DROP, NET_DUP
from repro.protocol.client import ClientConfig
from repro.protocol.messages import ReadRequest
from repro.protocol.server import ServerConfig
from repro.runtime import ChaosTransport, LeaseClientNode, LeaseServerNode, pathapi
from repro.runtime.cluster import WallKernel
from repro.runtime.resilience import BackoffPolicy
from repro.runtime.tcp import TcpClientTransport, TcpServerTransport
from repro.sim.oracle import ConsistencyOracle
from repro.storage.store import FileStore
from repro.types import DatumId

SRC = Path(__file__).resolve().parents[2] / "src"


def run(coro):
    return asyncio.run(coro)


class _FakeInner:
    """A recording transport for chaos unit tests."""

    def __init__(self, name="c0"):
        self.name = name
        self.sent = []
        self.aborts = []
        self.closed = False
        self._handler = None

    def set_handler(self, handler):
        self._handler = handler

    async def send(self, dst, message):
        self.sent.append((dst, message))

    def abort(self, reason="forced"):
        self.aborts.append(reason)

    async def close(self):
        self.closed = True

    def inject(self, message, src="server"):
        self._handler(message, src)


def _msg(req_id=1):
    return ReadRequest(req_id, DatumId.file("f"))


class TestChaosUnits:
    def test_total_loss_eats_every_send_observably(self):
        async def scenario():
            bus = TraceBus(capacity=None)
            inner = _FakeInner()
            chaos = ChaosTransport(inner, loss=1.0, seed=0, obs=bus)
            for i in range(5):
                await chaos.send("server", _msg(i))
            assert inner.sent == []
            assert chaos.stats.dropped == 5
            drops = bus.events(NET_DROP)
            assert len(drops) == 5
            assert all(e["reason"] == "chaos" for e in drops)
            await chaos.close()

        run(scenario())

    def test_total_dup_doubles_every_send(self):
        async def scenario():
            bus = TraceBus(capacity=None)
            inner = _FakeInner()
            chaos = ChaosTransport(inner, dup=1.0, seed=0, obs=bus)
            for i in range(3):
                await chaos.send("server", _msg(i))
            assert len(inner.sent) == 6
            assert chaos.stats.duplicated == 3
            assert len(bus.events(NET_DUP)) == 3
            await chaos.close()

        run(scenario())

    def test_inbound_legs_are_rolled_too(self):
        async def scenario():
            inner = _FakeInner()
            chaos = ChaosTransport(inner, loss=1.0, seed=0)
            seen = []
            chaos.set_handler(lambda m, src: seen.append(m))
            for i in range(4):
                inner.inject(_msg(i))
            assert seen == []
            assert chaos.stats.received == 4
            assert chaos.stats.dropped == 4
            await chaos.close()

        run(scenario())

    def test_inbound_dup_delivers_twice(self):
        async def scenario():
            inner = _FakeInner()
            chaos = ChaosTransport(inner, dup=1.0, seed=0)
            seen = []
            chaos.set_handler(lambda m, src: seen.append(m))
            inner.inject(_msg())
            assert len(seen) == 2
            await chaos.close()

        run(scenario())

    def test_delay_defers_inbound_delivery(self):
        async def scenario():
            inner = _FakeInner()
            chaos = ChaosTransport(inner, delay=0.03, seed=1)
            seen = []
            chaos.set_handler(lambda m, src: seen.append(m))
            inner.inject(_msg())
            assert seen == []  # parked on a timer, not delivered inline
            await asyncio.sleep(0.05)
            assert len(seen) == 1
            assert chaos.stats.delayed >= 1
            await chaos.close()

        run(scenario())

    def test_close_cancels_parked_deliveries(self):
        async def scenario():
            inner = _FakeInner()
            chaos = ChaosTransport(inner, delay=10.0, seed=1)
            seen = []
            chaos.set_handler(lambda m, src: seen.append(m))
            inner.inject(_msg())
            assert chaos._pending
            await chaos.close()
            await asyncio.sleep(0.02)
            assert seen == []
            assert inner.closed

        run(scenario())

    def test_forced_disconnect_aborts_the_inner_transport(self):
        async def scenario():
            inner = _FakeInner()
            chaos = ChaosTransport(inner, seed=0)
            chaos.disconnect()
            assert inner.aborts == ["chaos"]
            assert chaos.stats.disconnects == 1
            await chaos.close()

        run(scenario())

    def test_transport_without_abort_ignores_disconnects(self):
        class NoAbort:
            name = "c0"

            def set_handler(self, handler):
                pass

            async def close(self):
                pass

        async def scenario():
            chaos = ChaosTransport(NoAbort(), seed=0)
            chaos.disconnect()  # must be a harmless no-op
            assert chaos.stats.disconnects == 0
            await chaos.close()

        run(scenario())

    def test_same_seed_same_fault_schedule(self):
        async def scenario(seed):
            inner = _FakeInner()
            chaos = ChaosTransport(inner, loss=0.5, dup=0.3, seed=seed)
            for i in range(30):
                await chaos.send("server", _msg(i))
            await chaos.close()
            return [m.req_id for _, m in inner.sent]

        first = run(scenario(9))
        second = run(scenario(9))
        different = run(scenario(10))
        assert first == second
        assert first != different

    @pytest.mark.parametrize(
        "kwargs",
        [{"loss": 1.5}, {"loss": -0.1}, {"dup": 2.0}, {"delay": -1.0},
         {"disconnect_period": -0.5}],
    )
    def test_bad_rates_rejected(self, kwargs):
        with pytest.raises(ValueError):
            ChaosTransport(_FakeInner(), **kwargs)


class TestChaosIntegration:
    def test_forced_disconnects_trigger_reconnects(self):
        async def scenario():
            bus = TraceBus(capacity=None)
            store = FileStore()
            store.create_file("/doc", b"v1")
            server_transport = TcpServerTransport(obs=bus)
            await server_transport.start()
            server = LeaseServerNode(
                server_transport, store, FixedTermPolicy(1.0),
                config=ServerConfig(epsilon=0.01, announce_period=0.2, sweep_period=5.0),
                obs=bus,
            )
            tcp = TcpClientTransport(
                "c0", backoff=BackoffPolicy(initial=0.01, cap=0.05, jitter=0.0),
                obs=bus,
            )
            chaos = ChaosTransport(tcp, disconnect_period=0.05, seed=3, obs=bus)
            await chaos.connect(port=server_transport.port)
            client = LeaseClientNode(
                chaos, "server",
                config=ClientConfig(epsilon=0.01, rpc_timeout=0.2,
                                    write_timeout=0.5, max_retries=60),
                obs=bus,
            )
            datum = store.file_datum("/doc")
            deadline = asyncio.get_running_loop().time() + 5.0
            while tcp.connects < 2:
                assert asyncio.get_running_loop().time() < deadline
                await asyncio.wait_for(client.read(datum), 5.0)
                await asyncio.sleep(0.05)
            assert chaos.stats.disconnects >= 1
            assert bus.events(CONN_RETRY)
            await client.close()
            await server.close()

        run(scenario())

    def test_oracle_checked_workload_through_chaos_and_restart(self):
        """In-process kill/restart under 20% loss: every read linearizes."""

        async def scenario():
            bus = TraceBus(capacity=None)
            store = FileStore()
            store.create_file("/doc", b"v1")
            datum = store.file_datum("/doc")
            clock = MonotonicClock()
            oracle = ConsistencyOracle(
                WallKernel(clock), store, strict=True, obs=bus
            )

            term = 0.3

            async def start_server(port=0):
                transport = TcpServerTransport(obs=bus)
                await transport.start(port=port)
                return LeaseServerNode(
                    transport, store, FixedTermPolicy(term),
                    config=ServerConfig(
                        epsilon=0.01, announce_period=0.2, sweep_period=5.0,
                        recovery_delay=term if port else 0.0,
                    ),
                    obs=bus,
                )

            server = await start_server()
            port = server.transport.port

            clients, transports = [], []
            for i, name in enumerate(("alice", "bob")):
                tcp = TcpClientTransport(
                    name, backoff=BackoffPolicy(initial=0.02, cap=0.1, jitter=0.0),
                    obs=bus,
                )
                chaos = ChaosTransport(
                    tcp, loss=0.2, dup=0.05, disconnect_period=0.4,
                    seed=50 + i, obs=bus,
                )
                await chaos.connect(port=port)
                clients.append(LeaseClientNode(
                    chaos, "server",
                    config=ClientConfig(epsilon=0.01, rpc_timeout=0.2,
                                        write_timeout=1.0, max_retries=200),
                    obs=bus,
                ))
                transports.append(tcp)
            alice, bob = clients

            async def checked_read(client):
                invoked = clock.now()
                version, payload = await asyncio.wait_for(client.read(datum), 20.0)
                oracle.check_read(
                    client.name, datum, version, invoked, clock.now()
                )
                return version, payload

            assert await checked_read(alice) == (1, b"v1")
            assert await asyncio.wait_for(bob.write(datum, b"v2"), 20.0) == 2

            await server.close()  # crash mid-workload
            pending = asyncio.get_running_loop().create_task(checked_read(alice))
            await asyncio.sleep(0.1)
            server = await start_server(port=port)  # recovery_delay = term

            assert (await asyncio.wait_for(pending, 20.0))[0] >= 2
            assert await asyncio.wait_for(bob.write(datum, b"v3"), 20.0) == 3
            assert await checked_read(alice) == (3, b"v3")

            assert oracle.clean
            assert oracle.reads_checked >= 3
            chaos_drops = [
                e for e in bus.events(NET_DROP) if e["reason"] == "chaos"
            ]
            assert chaos_drops  # the link really was lossy
            for c in clients:
                await c.close()
            await server.close()

        run(scenario())


def _free_port():
    with socket.socket() as s:
        s.bind(("127.0.0.1", 0))
        return s.getsockname()[1]


async def _spawn_server(port, *extra):
    """Start ``python -m repro.runtime server`` and wait until it listens."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    proc = await asyncio.create_subprocess_exec(
        sys.executable, "-m", "repro.runtime", "server",
        "--port", str(port), "--term", "0.4", "--epsilon", "0.01",
        "--file", "/doc=v1", *extra,
        env=env, stdout=asyncio.subprocess.PIPE, stderr=asyncio.subprocess.STDOUT,
    )
    line = await asyncio.wait_for(proc.stdout.readline(), 30.0)
    assert b"lease server on" in line, line
    return proc


class TestChaosAcceptance:
    def test_sigkilled_server_chaos_clients_zero_violations(self):
        """The ISSUE acceptance scenario: 20% loss + forced disconnects +
        a SIGKILL'd, restarted server process; the mixed workload completes
        and every fault shows up in the trace."""

        async def scenario():
            bus = TraceBus(capacity=None)
            port = _free_port()
            proc = await _spawn_server(port)
            try:
                clients, tcps = [], []
                for i, name in enumerate(("alice", "bob")):
                    tcp = TcpClientTransport(
                        name,
                        backoff=BackoffPolicy(initial=0.02, cap=0.2, jitter=0.5,
                                              seed=i),
                        obs=bus,
                    )
                    chaos = ChaosTransport(
                        tcp, loss=0.2, dup=0.05, disconnect_period=0.4,
                        seed=200 + i, obs=bus,
                    )
                    await chaos.connect(port=port)
                    clients.append(LeaseClientNode(
                        chaos, "server",
                        config=ClientConfig(epsilon=0.01, rpc_timeout=0.2,
                                            write_timeout=1.0, max_retries=200),
                        obs=bus,
                    ))
                    tcps.append(tcp)
                alice, bob = clients

                # Committed history this process observes: version -> content.
                committed = {1: b"v1"}

                async def checked_read(client):
                    version, payload = await asyncio.wait_for(
                        pathapi.read_file(client, "/doc"), 20.0
                    )
                    assert committed[version] == payload, (
                        f"stale read: v{version} returned {payload!r}"
                    )
                    return version

                assert await checked_read(alice) == 1
                assert await checked_read(bob) == 1

                proc.kill()  # SIGKILL: no goodbye, connections just die
                await proc.wait()
                pending = asyncio.get_running_loop().create_task(
                    checked_read(alice)
                )
                await asyncio.sleep(0.2)
                # §2 crash rule: the reborn server defers writes one term.
                proc = await _spawn_server(port, "--recovery-delay", "0.4")

                await asyncio.wait_for(pending, 20.0)
                version = 1
                for content in (b"v2", b"v3", b"v4"):
                    version = await asyncio.wait_for(
                        pathapi.write_file(bob, "/doc", content), 20.0
                    )
                    committed[version] = content
                    assert await checked_read(alice) == version
                assert version == 4

                chaos_drops = [
                    e for e in bus.events(NET_DROP) if e["reason"] == "chaos"
                ]
                assert chaos_drops, "lossy link produced no observable drops"
                assert bus.events(CONN_RETRY), "reconnects left no trace"
                client_ups = [
                    e for e in bus.events(CONN_UP)
                    if e["host"] in ("alice", "bob")
                ]
                assert len(client_ups) >= 4  # 2 initial + reconnects
                for c in clients:
                    await c.close()
            finally:
                if proc.returncode is None:
                    proc.kill()
                    await proc.wait()

        run(scenario())
