"""What a sent message may cost the event loop, as exact counts.

A round trip needs three loop iterations: the request is written on the
caller's stack, the server answers from inside ``buffer_updated``, and
the client's ``buffer_updated`` resolves the caller's future.  The design
this replaced spent a Task and a done-callback per sent message (and the
hub another Task per delivery); a counting task factory keeps that from
drifting back.  Counts repeat exactly, so these are assertions, not
timing gates.

A lease-valid read is cheaper still: it is a function call.  The engine
decides the hit before it allocates anything and the node answers an
operation finished on the spot without a Future, so 200 hits cost the
loop nothing at all — and the three cases in which a resident copy must
*not* be served (lease expired, own write unresolved, copy invalidated)
are pinned through that same shortcut.
"""

import asyncio
import tracemalloc

import pytest

from repro.errors import ReproError
from repro.lease.policy import FixedTermPolicy, ZeroTermPolicy
from repro.obs.bus import TraceBus
from repro.obs.events import TRANSPORT_DROP
from repro.protocol.client import ClientConfig
from repro.protocol.messages import (
    ApprovalReply,
    ApprovalRequest,
    ExtendGrant,
    ExtendReply,
    ExtendRequest,
    ReadReply,
    ReadRequest,
    WriteRequest,
)
from repro.protocol.server import ServerConfig
from repro.runtime import ChaosTransport, LeaseClientNode
from repro.runtime.tcp import _RECV_BUFFER
from repro.shard.client import ShardedClientEngine
from repro.storage.store import FileStore
from repro.topology import Topology
from repro.types import DatumId

from tests.runtime import create_doc, run_cluster

ROUND_TRIPS = 200
HITS = 200


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


def count_futures() -> list:
    """Record every Future the running loop is asked for from now on."""
    loop = asyncio.get_running_loop()
    created = []
    create_future = loop.create_future

    def counting():
        created.append(create_future())
        return created[-1]

    loop.create_future = counting
    return created


CLIENT_CONFIG = ClientConfig(epsilon=0.01, rpc_timeout=5.0)


def on_cluster(scenario, fabric="hub", policy=None, clients=1, shards=1):
    """Run ``scenario(cluster)`` on a server holding ``/doc`` (zero-term
    unless told: every read is a round trip) per shard, and one client."""
    run_cluster(
        scenario,
        Topology(shards=shards, clients=clients),
        fabric=fabric,
        policy=policy or ZeroTermPolicy(),
        server_config=ServerConfig(epsilon=0.01, sweep_period=3600.0),
        client_config=CLIENT_CONFIG,
        setup_store=create_doc,
    )


class TestHopBudget:
    @pytest.mark.parametrize("fabric", ["tcp", "hub"])
    def test_a_round_trip_creates_no_task(self, fabric):
        async def scenario(cluster):
            datum, client = cluster.store.file_datum("/doc"), cluster.client(0)
            await client.read(datum)  # the connection is up and said hello
            created = count_tasks()
            for _ in range(ROUND_TRIPS):
                assert await client.read(datum) == (1, b"v1")
            assert client.engine.metrics.read_requests == ROUND_TRIPS + 1
            assert created == []

        on_cluster(scenario, fabric)

    def test_a_round_trip_allocates_nothing_read_sized(self):
        """Each end reads into its connection's own buffer.  Asyncio's plain
        ``Protocol`` path allocates a fresh 256 KiB per ``recv`` instead, so
        the traced peak over 200 round trips stays under one buffer here."""

        async def scenario(cluster):
            # Debug mode keeps a traceback per callback: not what this counts.
            asyncio.get_running_loop().set_debug(False)
            datum, client = cluster.store.file_datum("/doc"), cluster.client(0)
            for _ in range(20):  # warm-up: connection, caches, free lists
                await client.read(datum)
            tracemalloc.start()
            try:
                base = tracemalloc.get_traced_memory()[0]
                for _ in range(ROUND_TRIPS):
                    assert await client.read(datum) == (1, b"v1")
                peak = tracemalloc.get_traced_memory()[1] - base
            finally:
                tracemalloc.stop()
            assert peak < _RECV_BUFFER, peak

        on_cluster(scenario, "tcp")

    def test_a_send_that_really_waits_costs_exactly_one_task(self):
        async def scenario(cluster):
            datum = cluster.store.file_datum("/doc")
            chaos = ChaosTransport(cluster.hub.endpoint("c0"), delay=0.002, seed=7)
            client = LeaseClientNode(chaos, "server", config=CLIENT_CONFIG)
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

        on_cluster(scenario, clients=0)

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


class TestHitBudget:
    @pytest.mark.parametrize(
        "fabric, sharded", [("tcp", False), ("hub", False), ("hub", True)]
    )
    def test_a_lease_valid_read_never_meets_the_loop(self, fabric, sharded):
        """Plain or behind ``ShardedClientEngine`` (whose ``_wrap`` passes
        the lone ``Complete`` through), a hit takes the same shortcut."""

        async def scenario(cluster):
            datum, client = cluster.store.file_datum("/doc"), cluster.client(0)
            assert await client.read(datum) == (1, b"v1")  # the one round trip
            engine = client.engine
            if sharded:
                assert type(engine) is ShardedClientEngine
                engine = engine.engines[cluster.store.shard_of(datum)]
            metrics = engine.metrics
            sent = metrics.read_requests, metrics.extend_requests
            first_op, hits = engine._next_op, metrics.local_hits
            tasks, futures, loop_ran = count_tasks(), count_futures(), []
            asyncio.get_running_loop().call_soon(loop_ran.append, True)
            for _ in range(HITS):
                assert await client.read(datum) == (1, b"v1")
            assert futures == [] and tasks == []
            assert not loop_ran  # scheduled ahead of the reads, still waiting
            assert (metrics.read_requests, metrics.extend_requests) == sent
            assert metrics.local_hits == hits + HITS
            assert engine._next_op == first_op + HITS  # one op id each
            assert not engine._ops and not client._futures
            assert engine.outstanding_requests() == 0

        on_cluster(scenario, fabric, FixedTermPolicy(60.0), shards=2 if sharded else 1)


class SettableClock:
    def __init__(self, t=0.0):
        self.t = t

    def now(self):
        return self.t


class Wire:
    """A transport the test is the other end of: sends pile up in
    ``sent``, replies go in through ``deliver``."""

    name = "c0"

    def __init__(self):
        self.sent = []

    def set_handler(self, handler):
        self.deliver = handler

    async def send(self, dst, message):
        self.sent.append(message)

    async def close(self):
        pass


F = DatumId.file("file:1")
TERM, EPSILON = 10.0, 0.5


class TestHitShortcutSafety:
    """A copy served past its lease is the violation the paper's §2 rules
    exist to prevent; each refusal is checked at the node, where the
    shortcut lives, and on both sides of the line."""

    async def leased(self):
        """A client holding ``F`` v1 under a lease granted at t=0."""
        wire, clock = Wire(), SettableClock()
        client = LeaseClientNode(
            wire, "server", clock=clock, id_base=0,
            config=ClientConfig(epsilon=EPSILON, rpc_timeout=60.0, write_timeout=60.0),
        )
        first = asyncio.ensure_future(client.read(F))
        await asyncio.sleep(0)
        (request,) = wire.sent
        wire.deliver(ReadReply(request.req_id, F, version=1, payload=b"v1", term=TERM), "server")
        assert await first == (1, b"v1")
        del wire.sent[:]
        return wire, clock, client

    async def goes_to_the_server(self, wire, client):
        """Read ``F``; the one request it had to send (answered as v2)."""
        futures = count_futures()
        read = asyncio.ensure_future(client.read(F))
        await asyncio.sleep(0)
        (request,) = [m for m in wire.sent if isinstance(m, (ReadRequest, ExtendRequest))]
        assert len(futures) == 1 and not read.done()
        if isinstance(request, ExtendRequest):
            assert [d for d, _ in request.items] == [F]
            grant = ExtendGrant(F, TERM, 2, payload=b"v2", changed=True)
            reply = ExtendReply(request.req_id, grants=(grant,))
        else:
            reply = ReadReply(request.req_id, F, version=2, payload=b"v2", term=TERM)
        wire.deliver(reply, "server")
        assert await read == (2, b"v2")
        return request

    def test_just_before_expiry_is_a_hit(self):
        async def scenario():
            wire, clock, client = await self.leased()
            expires = client.engine.leases.expires_at(F)
            assert expires == TERM - EPSILON
            clock.t = expires - 1e-9
            assert await client.read(F) == (1, b"v1")
            assert wire.sent == [] and client.engine.metrics.local_hits == 1
            await client.close()

        run(scenario())

    @pytest.mark.parametrize("late_by", [0.0, 1e-9, 5.0])
    def test_at_and_after_expiry_is_not(self, late_by):
        async def scenario():
            wire, clock, client = await self.leased()
            clock.t = client.engine.leases.expires_at(F) + late_by
            request = await self.goes_to_the_server(wire, client)
            assert isinstance(request, ExtendRequest)  # the copy is resident
            assert client.engine.metrics.local_hits == 0
            await client.close()

        run(scenario())

    def test_no_hit_while_an_own_write_awaits_its_reply(self):
        async def scenario():
            wire, clock, client = await self.leased()
            write = asyncio.ensure_future(client.write(F, b"mine"))
            await asyncio.sleep(0)
            (write_request,) = wire.sent
            assert isinstance(write_request, WriteRequest)
            # A fetch overtaken by the write puts a valid copy back under
            # the valid lease: everything a hit needs, but for the write.
            clock.t = 1.0
            await self.goes_to_the_server(wire, client)
            entry = client.engine.cache.peek(F)
            assert entry.valid and client.engine.leases.valid(F, clock.t)
            del wire.sent[:]
            await self.goes_to_the_server(wire, client)
            assert client.engine.metrics.local_hits == 0 and not write.done()
            await client.close()
            with pytest.raises(ReproError, match="client closed"):
                await write

        run(scenario())

    def test_no_hit_on_a_copy_an_approval_invalidated(self):
        async def scenario():
            wire, clock, client = await self.leased()
            clock.t = 1.0
            wire.deliver(ApprovalRequest(F, 7, 2), "server")
            assert wire.sent == [ApprovalReply(F, 7)]
            assert client.engine.leases.valid(F, clock.t)  # the lease is kept
            await self.goes_to_the_server(wire, client)
            assert client.engine.metrics.local_hits == 0
            clock.t = 2.0
            assert await client.read(F) == (2, b"v2")  # and a hit again
            assert client.engine.metrics.local_hits == 1
            await client.close()

        run(scenario())
