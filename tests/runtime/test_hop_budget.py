"""What a sent message may cost the event loop, as exact counts.

A round trip needs three loop iterations: the request is written on the
caller's stack, the server answers from inside ``data_received``, and
the client's ``data_received`` resolves the caller's future.  The design
this replaced spent a Task and a done-callback per sent message (and the
hub another Task per delivery); a counting task factory keeps that from
drifting back.  Counts repeat exactly, so these are assertions, not
timing gates.
"""

import asyncio

import pytest

from repro.errors import ReproError
from repro.lease.policy import ZeroTermPolicy
from repro.obs.bus import TraceBus
from repro.obs.events import TRANSPORT_DROP
from repro.protocol.client import ClientConfig
from repro.protocol.server import ServerConfig
from repro.runtime import ChaosTransport, InMemoryHub, LeaseClientNode, LeaseServerNode
from repro.runtime.tcp import TcpClientTransport, TcpServerTransport
from repro.storage.store import FileStore

ROUND_TRIPS = 200


def run(coro):
    return asyncio.run(coro)


def count_tasks() -> list:
    """Install a task factory that records every Task created from now on."""
    created = []

    def factory(loop, coro, **kwargs):
        task = asyncio.Task(coro, loop=loop, **kwargs)
        created.append(task)
        return task

    asyncio.get_running_loop().set_task_factory(factory)
    return created


async def make_world(fabric, wrap_client=lambda transport: transport):
    """A zero-term server (every read is a round trip) and one client."""
    store = FileStore()
    store.create_file("/doc", b"v1")
    if fabric == "tcp":
        listener = TcpServerTransport()
        await listener.start()
        link = TcpClientTransport("c0")
        await link.connect(port=listener.port)
    else:
        hub = InMemoryHub()
        listener, link = hub.endpoint("server"), hub.endpoint("c0")
    server = LeaseServerNode(
        listener, store, ZeroTermPolicy(), config=ServerConfig(epsilon=0.01, sweep_period=3600.0)
    )
    client = LeaseClientNode(
        wrap_client(link), "server", config=ClientConfig(epsilon=0.01, rpc_timeout=5.0)
    )
    return store.file_datum("/doc"), server, client


class TestHopBudget:
    @pytest.mark.parametrize("fabric", ["tcp", "hub"])
    def test_a_round_trip_creates_no_task(self, fabric):
        async def scenario():
            datum, server, client = await make_world(fabric)
            await client.read(datum)  # the connection is up and said hello
            created = count_tasks()
            for _ in range(ROUND_TRIPS):
                assert await client.read(datum) == (1, b"v1")
            assert client.engine.metrics.read_requests == ROUND_TRIPS + 1
            assert created == []
            await client.close()
            await server.close()

        run(scenario())

    def test_a_send_that_really_waits_costs_exactly_one_task(self):
        async def scenario():
            chaos = None

            def delayed(transport):
                nonlocal chaos
                chaos = ChaosTransport(transport, delay=0.002, seed=7)
                return chaos

            datum, server, client = await make_world("hub", delayed)
            created = count_tasks()
            for _ in range(20):
                assert await client.read(datum) == (1, b"v1")
            assert chaos.stats.sent == 20
            assert len(created) == 20 and all(task.done() for task in created)
            # One still waiting when the node closes is reaped with it.
            read = asyncio.ensure_future(client.read(datum))  # the driver's own
            await asyncio.sleep(0)
            (waiting,) = [task for task in created[20:] if task is not read]
            await client.close()
            assert waiting.cancelled()
            with pytest.raises(ReproError, match="client closed"):
                await read
            assert asyncio.all_tasks() == {asyncio.current_task()}
            await server.close()

        run(scenario())

    def test_a_send_that_raises_creates_no_task_and_is_one_drop(self):
        class CutWire:
            name = "c0"
            sends = 0

            def set_handler(self, handler):
                pass

            async def send(self, dst, message):
                self.sends += 1
                raise OSError("wire cut")

            async def close(self):
                pass

        async def scenario():
            bus = TraceBus(capacity=None)
            wire = CutWire()
            client = LeaseClientNode(
                wire, "server",
                config=ClientConfig(epsilon=0.01, rpc_timeout=0.02, max_retries=1), obs=bus,
            )
            created = count_tasks()
            store = FileStore()
            store.create_file("/doc", b"v1")
            with pytest.raises(ReproError, match="timed out"):
                await client.read(store.file_datum("/doc"))
            drops = bus.events(TRANSPORT_DROP)
            assert wire.sends == 2 and created == []
            assert [(e["dst"], e["reason"]) for e in drops] == [("server", "OSError")] * 2
            await client.close()

        run(scenario())
