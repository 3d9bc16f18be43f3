"""Crash-recovery of the asyncio server node.

Regression suite for the runtime restart path: ``LeaseServerNode.restart``
must carry the pre-crash ``max_term_granted`` (returned by
``LeaseTable.clear()``) into the new engine's ``recovery_delay``, so a
rebooted real-time server delays writes until every lease granted by its
previous incarnation has provably expired (§2's crash rule).
"""

import asyncio
import dataclasses

from repro.lease.installed import InstalledFileManager
from repro.lease.policy import FixedTermPolicy
from repro.protocol.client import ClientConfig
from repro.protocol.server import ServerConfig
from repro.runtime import InMemoryHub, LeaseClientNode, LeaseServerNode
from repro.storage.store import FileStore
from repro.types import DatumId, FileClass

SERVER_CONFIG = ServerConfig(epsilon=0.01, sweep_period=30.0)
CLIENT_CONFIG = ClientConfig(
    epsilon=0.01, rpc_timeout=0.2, write_timeout=5.0, max_retries=40
)


async def make_world(term: float):
    hub = InMemoryHub()
    store = FileStore()
    store.create_file("/doc", b"v1")
    server = LeaseServerNode(
        hub.endpoint("server"),
        store,
        FixedTermPolicy(term),
        config=SERVER_CONFIG,
    )
    clients = [
        LeaseClientNode(hub.endpoint(f"c{i}"), "server", config=CLIENT_CONFIG)
        for i in range(2)
    ]
    return hub, store, server, clients


async def close_world(server, clients):
    for c in clients:
        await c.close()
    await server.close()


class TestServerRestart:
    def test_restart_without_grants_recovers_instantly(self):
        async def scenario():
            hub, store, server, clients = await make_world(term=0.5)
            server.restart()
            assert server.engine.config.recovery_delay == 0.0
            assert not server.engine.recovering
            datum = store.file_datum("/doc")
            version = await asyncio.wait_for(clients[0].write(datum, b"v2"), 1.0)
            assert version == 2
            await close_world(server, clients)

        asyncio.run(scenario())

    def test_restart_carries_max_term_into_recovery_delay(self):
        async def scenario():
            hub, store, server, clients = await make_world(term=0.4)
            datum = store.file_datum("/doc")
            await clients[0].read(datum)  # grants a 0.4 s lease
            server.restart()
            assert server.engine.config.recovery_delay == 0.4
            assert server.engine.recovering
            await close_world(server, clients)

        asyncio.run(scenario())

    def test_write_after_restart_waits_out_precrash_leases(self):
        async def scenario():
            hub, store, server, clients = await make_world(term=0.4)
            datum = store.file_datum("/doc")
            a, b = clients
            await a.read(datum)
            server.restart()
            loop = asyncio.get_running_loop()
            start = loop.time()
            version = await asyncio.wait_for(b.write(datum, b"v2"), 5.0)
            elapsed = loop.time() - start
            assert version == 2
            assert elapsed >= 0.3  # held for (most of) the recovery window
            assert not server.engine.recovering
            await close_world(server, clients)

        asyncio.run(scenario())

    def test_repeated_restarts_keep_the_largest_bound(self):
        async def scenario():
            hub, store, server, clients = await make_world(term=0.4)
            datum = store.file_datum("/doc")
            await clients[0].read(datum)
            server.restart()  # bound 0.4 from the first incarnation
            server.restart()  # no grants since; the bound must persist
            assert server.engine.config.recovery_delay == 0.4
            await close_world(server, clients)

        asyncio.run(scenario())

    def test_configured_recovery_delay_survives_restart(self):
        """The operator's window is a floor: a restart with no grants
        keeps it rather than dropping to the (zero) crash bound."""

        async def scenario():
            hub = InMemoryHub()
            server = LeaseServerNode(
                hub.endpoint("server"),
                FileStore(),
                FixedTermPolicy(0.2),
                config=dataclasses.replace(SERVER_CONFIG, recovery_delay=0.4),
            )
            server.restart()
            assert server.engine.config.recovery_delay == 0.4
            assert server.engine.recovering
            await server.close()

        asyncio.run(scenario())

    def test_restart_cancels_stale_timers(self):
        async def scenario():
            hub, store, server, clients = await make_world(term=0.4)
            datum = store.file_datum("/doc")
            await clients[0].read(datum)
            before = dict(server._timers)
            server.restart()
            assert all(handle.cancelled() for handle in before.values())
            await close_world(server, clients)

        asyncio.run(scenario())

    def test_restart_with_installed_write_in_flight_announces_the_cover_again(self):
        """An installed-file write in flight at the crash withheld its
        cover from the announcements and will never finish: the next
        incarnation must start from clean announcement state
        (``InstalledFileManager.fresh``, which ``ServerEngine.reboot``
        applies in both fabrics), or
        the cover is never announced again and every read under it is
        deferred for good."""

        async def scenario():
            hub = InMemoryHub()
            store = FileStore()
            store.namespace.mkdir("/bin")
            record = store.create_file("/bin/cat", b"v1", file_class=FileClass.INSTALLED)
            datum = DatumId.file(record.file_id)
            installed = InstalledFileManager(announce_period=0.1, term=0.2)
            installed.register("cover:/bin", datum)
            server = LeaseServerNode(
                hub.endpoint("server"),
                store,
                FixedTermPolicy(0.2),
                config=ServerConfig(epsilon=0.01, announce_period=0.1),
                installed=installed,
            )
            config = dataclasses.replace(CLIENT_CONFIG, write_timeout=0.4)
            clients = [
                LeaseClientNode(hub.endpoint(f"c{i}"), "server", config=config)
                for i in range(2)
            ]
            a, b = clients
            assert await a.read(datum) == (1, b"v1")
            write = asyncio.ensure_future(b.write(datum, b"v2"))
            await asyncio.sleep(0.05)  # the write is waiting out the cover
            assert server.engine.installed.write_pending(datum)
            server.restart()
            assert not server.engine.installed.write_pending(datum)
            assert await asyncio.wait_for(a.read(datum), 1.0) == (1, b"v1")
            # the write is retransmitted to the new incarnation and waits
            # out its announcement like any covered write
            assert await asyncio.wait_for(write, 3.0) == 2
            await asyncio.sleep(0.15)  # one announce period on
            assert await asyncio.wait_for(a.read(datum), 1.0) == (2, b"v2")
            await close_world(server, clients)

        asyncio.run(scenario())
