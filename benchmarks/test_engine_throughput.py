"""Performance microbenchmarks of the substrate itself.

Not a paper artifact — these track the reproduction's own efficiency:
kernel event throughput, network message throughput, trace-replay speed,
codec speed, and end-to-end simulated operations per second.
"""

import json

import pytest

from repro.lease.policy import FixedTermPolicy
from repro.obs import TraceBus
from repro.protocol.codec import decode_message, encode_message
from repro.protocol.messages import ReadReply
from repro.sim.driver import build_cluster
from repro.sim.kernel import Kernel
from repro.types import DatumId
from repro.workload.tracesim import simulate_trace


class TestKernel:
    def test_event_dispatch_throughput(self, benchmark):
        def run_events():
            kernel = Kernel()
            for i in range(10_000):
                kernel.schedule(i * 1e-6, lambda: None)
            kernel.run()

        benchmark(run_events)


class TestTraceReplay:
    def test_trace_replay_throughput(self, benchmark, v_trace, params_s1):
        result = benchmark(lambda: simulate_trace(v_trace, 10.0, params_s1))
        assert result.n_reads > 0


class TestCodec:
    def test_roundtrip_throughput(self, benchmark):
        msg = ReadReply(1, DatumId.file("file:1"), version=3, payload=b"x" * 512, term=10.0)

        def roundtrip():
            return decode_message(json.loads(json.dumps(encode_message(msg))))

        assert benchmark(roundtrip) == msg


class TestRuntimeThroughput:
    def test_asyncio_cached_reads_per_second(self, benchmark):
        """Wall-clock cost of cached reads through the asyncio runtime
        (lease hit path: no I/O, just the engine and the event loop)."""
        import asyncio

        from repro.protocol.client import ClientConfig
        from repro.protocol.server import ServerConfig
        from repro.runtime import InMemoryHub, LeaseClientNode, LeaseServerNode
        from repro.storage.store import FileStore

        async def run_reads():
            hub = InMemoryHub()
            store = FileStore()
            store.create_file("/f", b"payload")
            server = LeaseServerNode(
                hub.endpoint("server"),
                store,
                FixedTermPolicy(60.0),
                config=ServerConfig(epsilon=0.01, announce_period=10.0, sweep_period=60.0),
            )
            client = LeaseClientNode(
                hub.endpoint("c0"), "server", config=ClientConfig(epsilon=0.01)
            )
            datum = store.file_datum("/f")
            await client.read(datum)  # warm: fetch + lease
            for _ in range(2000):
                await client.read(datum)
            await client.close()
            await server.close()
            return 2000

        assert benchmark.pedantic(
            lambda: asyncio.run(run_reads()), rounds=3, iterations=1
        ) == 2000


class TestEndToEnd:
    @pytest.mark.parametrize(
        "make_obs",
        [
            lambda: None,
            lambda: TraceBus(active=False),
            lambda: TraceBus(capacity=65536),
        ],
        ids=["obs-disabled", "obs-inactive-bus", "obs-enabled"],
    )
    def test_simulated_reads_per_second(self, benchmark, make_obs):
        """Wall-clock cost of driving 2000 leased reads end to end, under
        the three observability modes side by side: no bus (one
        ``None`` check per emission site — must stay ~free), a bus that
        is switched off (held, but no payload built), and a bounded
        active bus recording everything."""

        def run_reads():
            cluster = build_cluster(
                n_clients=4,
                policy=FixedTermPolicy(10.0),
                setup_store=lambda store: store.create_file("/f", b"v1"),
                obs=make_obs(),
            )
            datum = cluster.store.file_datum("/f")
            for k in range(500):
                for client in cluster.clients:
                    cluster.kernel.schedule_at(
                        0.001 * k, lambda c=client, d=datum: c.read(d)
                    )
            # bounded run: the server's housekeeping timers re-arm forever
            cluster.run(until=5.0)
            return cluster.oracle.reads_checked

        assert benchmark.pedantic(run_reads, rounds=3, iterations=1) == 2000
