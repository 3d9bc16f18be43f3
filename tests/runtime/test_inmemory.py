"""Tests for the asyncio runtime over the in-memory hub.

The same engines as the simulator, now on wall clocks.  Timings use short
lease terms so the suite stays fast.
"""

import asyncio

import pytest

from repro.errors import ReproError
from repro.lease.installed import InstalledFileManager
from repro.lease.policy import FixedTermPolicy
from repro.obs.bus import TraceBus
from repro.obs.events import APPROVAL_REQUEST
from repro.protocol.client import ClientConfig
from repro.protocol.server import ServerConfig
from repro.runtime import LeaseClientNode
from repro.sim.driver import install_tree
from repro.topology import Topology
from repro.types import DatumId

from tests.runtime import create_doc, run_cluster

CLIENT_CONFIG = ClientConfig(epsilon=0.01, rpc_timeout=0.5, write_timeout=2.0)
SERVER_CONFIG = ServerConfig(epsilon=0.01, announce_period=0.2, sweep_period=5.0)


def on_cluster(scenario, term=0.5, clients=2, client_config=CLIENT_CONFIG, **kwargs):
    """Run ``scenario(cluster)`` on one server holding ``/doc`` and two hub clients."""
    kwargs.setdefault("setup_store", create_doc)
    run_cluster(
        scenario,
        Topology(clients=clients),
        policy=FixedTermPolicy(term),
        server_config=SERVER_CONFIG,
        client_config=client_config,
        **kwargs,
    )


class TestReadWrite:
    def test_read_returns_data(self):
        async def scenario(cluster):
            datum = cluster.store.file_datum("/doc")
            version, payload = await cluster.client(0).read(datum)
            assert (version, payload) == (1, b"v1")

        on_cluster(scenario)

    def test_cached_read_within_term(self):
        async def scenario(cluster):
            datum = cluster.store.file_datum("/doc")
            await cluster.client(0).read(datum)
            cluster.hub.isolate("c0")  # prove the second read needs no network
            version, payload = await asyncio.wait_for(cluster.client(0).read(datum), 0.2)
            assert payload == b"v1"

        on_cluster(scenario, term=1.0)

    def test_write_propagates(self):
        async def scenario(cluster):
            datum = cluster.store.file_datum("/doc")
            a, b = cluster.clients
            await a.read(datum)
            version = await b.write(datum, b"v2")
            assert version == 2
            assert await a.read(datum) == (2, b"v2")

        on_cluster(scenario)

    def test_read_after_expiry_refetches(self):
        async def scenario(cluster):
            datum = cluster.store.file_datum("/doc")
            await cluster.client(0).read(datum)
            await asyncio.sleep(0.3)
            cluster.store.commit_file_write(datum, b"v2", now=0.0)  # out-of-band change
            version, payload = await cluster.client(0).read(datum)
            assert payload == b"v2"

        on_cluster(scenario, term=0.15)

    def test_missing_datum_raises(self):
        async def scenario(cluster):
            with pytest.raises(ReproError):
                await cluster.client(0).read(DatumId.file("file:999"))

        on_cluster(scenario)

    def test_namespace_ops(self):
        async def scenario(cluster):
            client = cluster.client(0)
            await client.namespace_op("mkdir", ("/src",))
            await client.namespace_op("bind", ("/src/a.c", b"int x;", "normal"))
            datum = cluster.store.file_datum("/src/a.c")
            assert (await client.read(datum))[1] == b"int x;"

        on_cluster(scenario)

    def test_temp_files_local(self):
        async def scenario(cluster):
            cluster.client(0).write_temp("/tmp/x", b"scratch")
            assert cluster.client(0).read_temp("/tmp/x") == b"scratch"

        on_cluster(scenario)


class TestFaultTolerance:
    def test_partitioned_holder_delays_write_one_term(self):
        async def scenario(cluster):
            datum = cluster.store.file_datum("/doc")
            a, b = cluster.clients
            await a.read(datum)
            cluster.hub.isolate("c0")
            loop = asyncio.get_running_loop()
            start = loop.time()
            version = await b.write(datum, b"v2")
            elapsed = loop.time() - start
            assert version == 2
            assert 0.2 < elapsed < 1.0  # bounded by the 0.5 s term

        on_cluster(scenario)

    def test_reachable_holder_approves_quickly(self):
        async def scenario(cluster):
            datum = cluster.store.file_datum("/doc")
            a, b = cluster.clients
            await a.read(datum)
            loop = asyncio.get_running_loop()
            start = loop.time()
            await b.write(datum, b"v2")
            assert loop.time() - start < 0.2

        on_cluster(scenario, term=5.0)

    def test_lossy_hub_retransmission(self):
        async def scenario(cluster):
            cluster.hub.loss_rate = 0.3
            cluster.hub._rng.seed(5)
            datum = cluster.store.file_datum("/doc")
            config = ClientConfig(epsilon=0.01, rpc_timeout=0.1, write_timeout=0.2, max_retries=40)
            lossy = LeaseClientNode(cluster.hub.endpoint("lossy"), "server", config=config)
            for i in range(5):
                await asyncio.wait_for(lossy.write(datum, b"w%d" % i), 20.0)
            assert cluster.store.file_at("/doc").version == 6
            await lossy.close()

        on_cluster(scenario)


class TestTimers:
    def test_approved_writes_leave_only_the_sweep_timer(self):
        """Under an hour-long term every write below waits for c0's
        approval.  The gate's ``write:`` timer ends with that wait, so the
        server's timers stay at ``sweep`` instead of growing by one per
        write until the term runs out."""
        writes = 20

        async def scenario(cluster):
            datum = cluster.store.file_datum("/doc")
            a, b = cluster.clients
            for i in range(writes):
                await a.read(datum)  # a fresh lease for the next write to ask
                await b.write(datum, b"w%d" % i)
            assert cluster.store.file_at("/doc").version == 1 + writes
            assert len(cluster.obs.events(APPROVAL_REQUEST)) == writes
            assert list(cluster.server._timers) == ["sweep"]

        on_cluster(scenario, term=3600.0, obs=TraceBus(capacity=None))


class TestInstalledFiles:
    def test_announcements_keep_covers_alive(self):
        installed = InstalledFileManager(announce_period=0.2, term=0.5)
        datums = {}

        async def scenario(cluster):
            client, latex = cluster.client(0), datums["/bin/latex"]
            await client.read(latex)
            await asyncio.sleep(1.0)  # several terms; announcements extend
            cluster.hub.isolate("c0")
            version, payload = await asyncio.wait_for(client.read(latex), 0.2)
            assert payload == b"v1"  # still cached, still leased

        on_cluster(
            scenario,
            clients=1,
            client_config=ClientConfig(epsilon=0.01, announce_delay_bound=0.05),
            installed=installed,
            setup_store=lambda store: datums.update(
                install_tree(store, installed, "/bin", {"latex": b"v1"})
            ),
        )
