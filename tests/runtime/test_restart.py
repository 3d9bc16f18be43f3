"""Crash-recovery of the asyncio server node.

Regression suite for the runtime restart path: a server node's ``restart``
must carry the pre-crash ``max_term_granted`` (returned by
``LeaseTable.clear()``) into the new engine's ``recovery_delay``, so a
rebooted real-time server delays writes until every lease granted by its
previous incarnation has provably expired (§2's crash rule).
"""

import asyncio
import dataclasses

from repro.lease.policy import FixedTermPolicy
from repro.protocol.client import ClientConfig
from repro.protocol.server import ServerConfig
from repro.topology import Topology
from repro.types import FileClass

from tests.runtime import create_doc, run_cluster

SERVER_CONFIG = ServerConfig(epsilon=0.01, sweep_period=30.0)
CLIENT_CONFIG = ClientConfig(
    epsilon=0.01, rpc_timeout=0.2, write_timeout=5.0, max_retries=40
)


def on_cluster(scenario, term, server_config=SERVER_CONFIG, client_config=CLIENT_CONFIG, **kwargs):
    """Run ``scenario(cluster)`` on one server holding ``/doc`` and two clients."""
    kwargs.setdefault("setup_store", create_doc)
    run_cluster(
        scenario,
        Topology(clients=2),
        policy=FixedTermPolicy(term),
        server_config=server_config,
        client_config=client_config,
        **kwargs,
    )


class TestServerRestart:
    def test_restart_without_grants_recovers_instantly(self):
        async def scenario(cluster):
            server = cluster.server
            server.restart()
            assert server.engine.config.recovery_delay == 0.0
            assert not server.engine.recovering
            datum = cluster.store.file_datum("/doc")
            version = await asyncio.wait_for(cluster.client(0).write(datum, b"v2"), 1.0)
            assert version == 2

        on_cluster(scenario, term=0.5)

    def test_restart_carries_max_term_into_recovery_delay(self):
        async def scenario(cluster):
            server, datum = cluster.server, cluster.store.file_datum("/doc")
            await cluster.client(0).read(datum)  # grants a 0.4 s lease
            server.restart()
            assert server.engine.config.recovery_delay == 0.4
            assert server.engine.recovering

        on_cluster(scenario, term=0.4)

    def test_write_after_restart_waits_out_precrash_leases(self):
        async def scenario(cluster):
            server, datum = cluster.server, cluster.store.file_datum("/doc")
            a, b = cluster.clients
            await a.read(datum)
            server.restart()
            loop = asyncio.get_running_loop()
            start = loop.time()
            version = await asyncio.wait_for(b.write(datum, b"v2"), 5.0)
            elapsed = loop.time() - start
            assert version == 2
            assert elapsed >= 0.3  # held for (most of) the recovery window
            assert not server.engine.recovering

        on_cluster(scenario, term=0.4)

    def test_repeated_restarts_keep_the_largest_bound(self):
        async def scenario(cluster):
            server, datum = cluster.server, cluster.store.file_datum("/doc")
            await cluster.client(0).read(datum)
            server.restart()  # bound 0.4 from the first incarnation
            server.restart()  # no grants since; the bound must persist
            assert server.engine.config.recovery_delay == 0.4

        on_cluster(scenario, term=0.4)

    def test_configured_recovery_delay_survives_restart(self):
        """The operator's window is a floor: a restart with no grants
        keeps it rather than dropping to the (zero) crash bound."""

        async def scenario(cluster):
            server = cluster.server
            server.restart()
            assert server.engine.config.recovery_delay == 0.4
            assert server.engine.recovering

        config = dataclasses.replace(SERVER_CONFIG, recovery_delay=0.4)
        on_cluster(scenario, term=0.2, server_config=config)

    def test_no_timer_of_the_old_incarnation_reaches_the_new_one(self):
        """The first incarnation waits out a reader's lease on its
        ``write:`` timer when the crash comes.  The next incarnation never
        sees that timer: it fires only its own ``recovery`` timer, then
        commits the retransmitted write."""

        async def scenario(cluster):
            server, datum = cluster.server, cluster.store.file_datum("/doc")
            a, b = cluster.clients
            await a.read(datum)  # a 0.4 s lease the write has to wait out
            await a.close()  # so no approval ever comes back
            write = asyncio.ensure_future(b.write(datum, b"v2"))
            await asyncio.sleep(0.05)
            assert server.status()["pending_writes"] == 1
            server.restart()
            fired, handle_timer = [], server.engine.handle_timer

            def recording(key, now):
                fired.append(key)
                return handle_timer(key, now)

            server.engine.handle_timer = recording
            assert await asyncio.wait_for(write, 5.0) == 2
            await asyncio.sleep(0.1)  # well past the old wait-out's deadline
            assert fired == ["recovery"]

        on_cluster(scenario, term=0.4)

    def test_restart_with_installed_write_in_flight_announces_the_cover_again(self):
        """An installed-file write in flight at the crash withheld its
        cover from the announcements and will never finish: the next
        incarnation must start from clean announcement state
        (``InstalledFileManager.fresh``, which ``ServerEngine.reboot``
        applies in both fabrics), or
        the cover is never announced again and every read under it is
        deferred for good."""

        def setup(store):
            store.namespace.mkdir("/bin")
            store.create_file("/bin/cat", b"v1", file_class=FileClass.INSTALLED)

        async def scenario(cluster):
            server, datum = cluster.server, cluster.store.file_datum("/bin/cat")
            a, b = cluster.clients
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

        on_cluster(
            scenario,
            term=0.2,
            server_config=ServerConfig(epsilon=0.01, announce_period=0.1),
            client_config=dataclasses.replace(CLIENT_CONFIG, write_timeout=0.4),
            cover_term=0.2,
            setup_store=setup,
        )
