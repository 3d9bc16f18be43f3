"""Error-path tests for the asyncio nodes."""

import asyncio
import dataclasses

import pytest

from repro.errors import ReproError
from repro.lease.policy import FixedTermPolicy, ZeroTermPolicy
from repro.obs.bus import TraceBus
from repro.obs.events import TRANSPORT_DROP
from repro.protocol.client import ClientConfig
from repro.protocol.server import ServerConfig
from repro.runtime import InMemoryHub, LeaseClientNode, LeaseServerNode
from repro.storage.store import FileStore
from repro.topology import Topology
from repro.types import DatumId

from tests.runtime import create_doc, run_cluster


CLIENT_CONFIG = ClientConfig(epsilon=0.01, rpc_timeout=0.1, write_timeout=0.1, max_retries=2)
SERVER_CONFIG = ServerConfig(epsilon=0.01, announce_period=0.5, sweep_period=10.0)


def on_cluster(scenario, policy=FixedTermPolicy(1.0), client_config=CLIENT_CONFIG, **kwargs):
    """Run ``scenario(cluster)`` on one server holding ``/doc`` and one client."""
    run_cluster(
        scenario,
        Topology(clients=1),
        policy=policy,
        server_config=SERVER_CONFIG,
        client_config=client_config,
        setup_store=create_doc,
        **kwargs,
    )


class TestNodeErrors:
    def test_missing_datum_raises_repro_error(self):
        async def scenario(cluster):
            client = cluster.client(0)
            with pytest.raises(ReproError, match="no such datum"):
                await client.read(DatumId.file("file:404"))

        on_cluster(scenario)

    def test_unreachable_server_times_out(self):
        async def scenario(cluster):
            client, datum = cluster.client(0), cluster.store.file_datum("/doc")
            cluster.hub.isolate("c0")
            with pytest.raises(ReproError, match="timed out"):
                await asyncio.wait_for(client.read(datum), 5.0)

        on_cluster(scenario)

    def test_namespace_error_propagates(self):
        async def scenario(cluster):
            client = cluster.client(0)
            with pytest.raises(ReproError):
                await client.namespace_op("unbind", ("/ghost",))

        on_cluster(scenario)

    def test_failed_op_does_not_poison_later_ops(self):
        async def scenario(cluster):
            store, client = cluster.store, cluster.client(0)
            with pytest.raises(ReproError):
                await client.read(DatumId.file("file:404"))
            version, payload = await client.read(store.file_datum("/doc"))
            assert payload == b"v1"

        on_cluster(scenario)

    def test_relinquish_then_read_revalidates(self):
        async def scenario(cluster):
            server, client = cluster.server, cluster.client(0)
            datum = cluster.store.file_datum("/doc")
            await client.read(datum)
            client.relinquish(datum)
            await asyncio.sleep(0.05)
            assert not server.engine.table.live_holders(
                datum, server.clock.now()
            )
            version, payload = await client.read(datum)
            assert payload == b"v1"

        on_cluster(scenario, policy=FixedTermPolicy(5.0))

    def test_zero_term_server_still_serves(self):
        async def scenario(cluster):
            datum = cluster.store.file_datum("/doc")
            for _ in range(3):
                assert (await cluster.client(0).read(datum))[1] == b"v1"
            assert cluster.server.engine.table.lease_count() == 0

        on_cluster(scenario, policy=ZeroTermPolicy())


class _BrokenTransport:
    """A transport whose sends always explode (or hang, configurable)."""

    def __init__(self, name="c0", hang=False):
        self.name = name
        self.hang = hang
        self._handler = None

    def set_handler(self, handler):
        self._handler = handler

    async def send(self, dst, message):
        if self.hang:
            await asyncio.Event().wait()
        raise OSError("wire cut")

    async def close(self):
        pass


class TestSendFailureObservability:
    def test_failed_send_emits_transport_drop(self):
        async def scenario():
            bus = TraceBus(capacity=None)
            client = LeaseClientNode(
                _BrokenTransport(), "server",
                config=ClientConfig(
                    epsilon=0.01, rpc_timeout=0.05, write_timeout=0.05, max_retries=1
                ),
                obs=bus,
            )
            with pytest.raises(ReproError):
                await client.read(DatumId.file("file:1"))
            drops = bus.events(TRANSPORT_DROP)
            assert drops
            assert all(e["reason"] == "OSError" for e in drops)
            assert drops[0]["dst"] == "server"
            await client.close()

        asyncio.run(scenario())

    def test_sends_cancelled_by_close_are_not_reported_as_drops(self):
        """A send that really waits is the one case a Task finishes; one cut
        short by close() is not a dropped frame and leaves no Task behind."""

        async def scenario():
            bus = TraceBus(capacity=None)
            client = LeaseClientNode(
                _BrokenTransport(hang=True), "server",
                config=ClientConfig(epsilon=0.01, rpc_timeout=5.0),
                obs=bus,
            )
            before = asyncio.all_tasks()
            read = asyncio.get_running_loop().create_task(
                client.read(DatumId.file("file:1"))
            )
            await asyncio.sleep(0.02)  # the send is now parked in its Task
            (send_task,) = asyncio.all_tasks() - before - {read}
            await client.close()  # cancels it; must not raise or emit
            assert send_task.cancelled()
            assert not asyncio.all_tasks() - before - {read}
            with pytest.raises(ReproError, match="client closed"):
                await asyncio.wait_for(read, 1.0)
            assert not bus.events(TRANSPORT_DROP)

        asyncio.run(scenario())

    def test_op_in_flight_at_close_fails_instead_of_hanging(self):
        """Regression: close() cancels the very time-out that would have
        failed a pending op, so its caller used to wait forever."""

        async def scenario(cluster):
            client, datum = cluster.client(0), cluster.store.file_datum("/doc")
            cluster.hub.isolate("c0")
            ops = [
                asyncio.ensure_future(op)
                for op in (
                    client.read(datum),
                    client.write(datum, b"v2"),
                    client.namespace_op("mkdir", ("/d",)),
                )
            ]
            await asyncio.sleep(0)  # each op has sent its request and waits
            await client.close()
            done, pending = await asyncio.wait(ops, timeout=1.0)
            assert not pending
            for op in ops:
                with pytest.raises(ReproError, match="client closed"):
                    op.result()

        on_cluster(scenario, client_config=ClientConfig(epsilon=0.01, rpc_timeout=0.05, max_retries=1))

    def test_node_constructed_before_asyncio_run_binds_the_right_loop(self):
        # The loop is resolved lazily from inside the running loop; eager
        # binding via the deprecated get_event_loop() captured whatever
        # loop existed at construction time and broke under asyncio.run().
        hub = InMemoryHub()
        store = FileStore()
        store.create_file("/doc", b"v1")

        client = LeaseClientNode(  # constructed with NO loop running
            hub.endpoint("c0"), "server", config=ClientConfig(epsilon=0.01)
        )

        async def scenario():
            server = LeaseServerNode(
                hub.endpoint("server"), store, FixedTermPolicy(1.0),
                config=ServerConfig(epsilon=0.01, sweep_period=10.0),
            )
            assert await client.read(store.file_datum("/doc")) == (1, b"v1")
            await client.close()
            await server.close()

        asyncio.run(scenario())


class TestClosedNode:
    @pytest.mark.parametrize("fabric", ["tcp", "hub"])
    @pytest.mark.parametrize("op", ["miss", "hit", "write", "namespace_op", "relinquish"])
    def test_op_submitted_after_close_is_refused_at_once(self, fabric, op):
        """Regression: close() failed the ops in flight but took new ones —
        a miss armed fresh ``rpc:`` timers on the node that had just
        cancelled its timers and retransmitted into the closed transport
        until ``max_retries`` ran out (18 s for a read, 405 s for a write
        at the ``ClientConfig`` defaults), and a hit was still served."""

        bus = TraceBus(capacity=None)

        async def scenario(cluster):
            store, client = cluster.store, cluster.client(0)
            held, unread = store.file_datum("/doc"), DatumId.file("file:unread")
            assert await client.read(held) == (1, b"v1")  # lease and copy: a hit from now on
            await client.close()

            engine = client.engine
            before = dataclasses.asdict(engine.metrics), engine._next_op, len(bus)
            submit = {
                "miss": lambda: client.read(unread),
                "hit": lambda: client.read(held),
                "write": lambda: client.write(held, b"v2"),
                "namespace_op": lambda: client.namespace_op("mkdir", ("/d",)),
                "relinquish": lambda: client.relinquish(held),
            }[op]
            loop_ran = []
            asyncio.get_running_loop().call_soon(loop_ran.append, True)
            with pytest.raises(ReproError, match="client closed"):
                submitted = submit()
                if submitted is not None:  # relinquish is a plain method
                    await submitted
            assert not loop_ran  # at once: not even one loop iteration later
            assert len(client._timers) == 0 and not client._futures
            assert engine.outstanding_requests() == 0 and held in engine.leases
            assert (dataclasses.asdict(engine.metrics), engine._next_op, len(bus)) == before
            assert not bus.events(TRANSPORT_DROP)
            assert store.file_at("/doc").content == b"v1"

        on_cluster(scenario, policy=FixedTermPolicy(60.0), fabric=fabric, obs=bus)
