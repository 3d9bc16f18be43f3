"""Schema parity between simulated and real (asyncio) executions.

The tentpole guarantee of the observability layer: the same scenario run
under the discrete-event simulator and under the asyncio runtime emits
event streams with *identical shapes* — every event validates against
``repro.obs.events.SCHEMA``, and the protocol-level event types appear in
both streams with the same payload fields.  Only the meaning of ``ts``
differs (virtual vs wall-clock seconds).
"""

from repro.lease.policy import FixedTermPolicy
from repro.obs import TraceBus, events
from repro.sim.driver import build_cluster
from repro.storage.store import FileStore
from repro.topology import Topology

from tests.runtime import run_cluster

#: Protocol events every run of the shared scenario must produce.
EXPECTED_COMMON = {
    events.LEASE_GRANT,
    events.LOCAL_HIT,
    events.APPROVAL_REQUEST,
    events.APPROVAL_REPLY,
    events.WRITE_COMMIT,
    events.NET_SEND,
    events.NET_RECV,
}


def sim_trace() -> list[dict]:
    """Run the scenario under the simulator; return the event stream."""
    bus = TraceBus(capacity=None)

    def setup(store: FileStore) -> None:
        store.create_file("/doc", b"v1")

    cluster = build_cluster(
        n_clients=2, policy=FixedTermPolicy(10.0), setup_store=setup, obs=bus
    )
    datum = cluster.store.file_datum("/doc")
    a, b = cluster.clients
    cluster.run_until_complete(a, a.read(datum))
    cluster.run_until_complete(a, a.read(datum))  # cached: local hit
    cluster.run_until_complete(b, b.write(datum, b"v2"), limit=60.0)
    cluster.run_until_complete(a, a.read(datum), limit=60.0)
    return bus.events()


def asyncio_trace() -> list[dict]:
    """Run the same scenario on the asyncio runtime; return the stream."""
    bus = TraceBus(capacity=None)

    def setup(store: FileStore) -> None:
        store.create_file("/doc", b"v1")

    async def scenario(cluster):
        datum = cluster.store.file_datum("/doc")
        a, b = cluster.clients
        await a.read(datum)
        await a.read(datum)  # cached: local hit
        await b.write(datum, b"v2")
        await a.read(datum)

    run_cluster(
        scenario, Topology(clients=2), policy=FixedTermPolicy(10.0), setup_store=setup, obs=bus
    )
    return bus.events()


class TestSchemaParity:
    def test_every_sim_event_validates(self):
        trace = sim_trace()
        assert trace
        for event in trace:
            events.validate(event)

    def test_every_asyncio_event_validates(self):
        trace = asyncio_trace()
        assert trace
        for event in trace:
            events.validate(event)

    def test_protocol_events_appear_in_both_runtimes(self):
        sim_types = {e["type"] for e in sim_trace()}
        rt_types = {e["type"] for e in asyncio_trace()}
        assert EXPECTED_COMMON <= sim_types
        assert EXPECTED_COMMON <= rt_types

    def test_common_types_share_payload_fields_exactly(self):
        """Field-level parity: for each type seen in both streams, the sim
        and asyncio events carry the same payload keys (the SCHEMA set)."""
        sim_events = sim_trace()
        rt_events = asyncio_trace()

        def fields_by_type(trace):
            out = {}
            for e in trace:
                out.setdefault(e["type"], set()).add(frozenset(e) - {"type", "ts", "host"})
            return out

        sim_fields = fields_by_type(sim_events)
        rt_fields = fields_by_type(rt_events)
        for etype in set(sim_fields) & set(rt_fields):
            assert sim_fields[etype] == rt_fields[etype], etype
            assert sim_fields[etype] == {frozenset(events.SCHEMA[etype])}

    def test_jsonl_roundtrip_preserves_schema(self, tmp_path):
        from repro.obs import read_jsonl

        bus = TraceBus(capacity=None)
        bus.emit("lease.grant", 0.0, "server", datum="file:1", holder="c0", term=2.0)
        path = str(tmp_path / "t.jsonl")
        bus.export_jsonl(path)
        for event in read_jsonl(path):
            events.validate(event)
