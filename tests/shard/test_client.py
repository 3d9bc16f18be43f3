"""Sans-io tests of the sharded client engine's multiplexing contract."""

from repro.obs import TraceBus, events
from repro.protocol.client import ClientConfig
from repro.protocol.effects import Send, SetTimer
from repro.protocol.messages import BatchRequest, ReadRequest, WriteRequest
from repro.shard.client import ShardedClientEngine
from repro.shard.router import SHARD_ID_SPAN, ShardRouter
from repro.topology import Topology
from repro.types import DatumId

HOSTS = Topology(shards=4).servers()


def datums_on_shards(router: ShardRouter, *shards: int) -> list[DatumId]:
    """One file datum per requested shard, found by scanning ids."""
    found: dict[int, DatumId] = {}
    i = 1
    while len(found) < len(set(shards)):
        datum = DatumId.file(f"file:{i}")
        shard = router.shard_of(datum)
        if shard in shards and shard not in found:
            found[shard] = datum
        i += 1
    return [found[s] for s in shards]


class TestRoutingAndIds:
    def test_sends_target_owning_shard(self):
        engine = ShardedClientEngine("c0", HOSTS)
        for i in range(1, 20):
            datum = DatumId.file(f"file:{i}")
            _, effects = engine.read(datum, 0.0)
            sends = [e for e in effects if isinstance(e, Send)]
            assert sends, "uncached read must hit the network"
            expected = HOSTS[engine.router.shard_of(datum)]
            assert all(send.dst == expected for send in sends)

    def test_op_ids_disjoint_across_shards(self):
        engine = ShardedClientEngine("c0", HOSTS, id_base=7)
        datum_a, datum_b = datums_on_shards(engine.router, 0, 3)
        op_a, _ = engine.read(datum_a, 0.0)
        op_b, _ = engine.read(datum_b, 0.0)
        assert op_a // SHARD_ID_SPAN != op_b // SHARD_ID_SPAN

    def test_timer_keys_prefixed_and_dispatched(self):
        engine = ShardedClientEngine("c0", HOSTS)
        (datum,) = datums_on_shards(engine.router, 2)
        _, effects = engine.read(datum, 0.0)
        timers = [e for e in effects if isinstance(e, SetTimer)]
        assert timers and all(t.key.startswith("2:") for t in timers)
        # Inner keys contain colons themselves (rpc:{id}); the dispatch
        # must split on the *first* colon only.
        retry = engine.handle_timer(timers[0].key, 1.0)
        assert any(
            isinstance(e, Send) and e.dst == HOSTS[2] for e in retry
        ), "rpc timeout timer must retransmit to the owning shard"

    def test_unknown_source_dropped_with_event(self):
        bus = TraceBus(capacity=None)
        engine = ShardedClientEngine("c0", HOSTS, obs=bus)
        msg = ReadRequest(req_id=1, datum=DatumId.file("file:1"), cached_version=None)
        assert engine.handle_message(msg, "intruder", 0.0) == []
        misses = [e for e in bus.events() if e["type"] == events.SHARD_MISS]
        assert len(misses) == 1 and misses[0]["src"] == "intruder"

    def test_route_events_validate_against_schema(self):
        bus = TraceBus(capacity=None)
        engine = ShardedClientEngine("c0", HOSTS, obs=bus)
        engine.read(DatumId.file("file:1"), 0.0)
        engine.write(DatumId.file("file:2"), b"x", 0.0)
        routes = [e for e in bus.events() if e["type"] == events.SHARD_ROUTE]
        assert {e["kind"] for e in routes} == {"read", "write"}
        for event in bus.events():
            events.validate(event)


class TestBatchSplitting:
    def test_one_batch_per_shard_order_preserved(self):
        """Ops issued in one instant split into one BatchRequest per shard,
        preserving per-file submission order inside each."""
        config = ClientConfig(batching=True)
        engine = ShardedClientEngine("c0", HOSTS, config=config)
        datum_a, datum_b = datums_on_shards(engine.router, 1, 3)

        effects = []
        _, eff = engine.read(datum_a, 0.0)
        effects += eff
        _, eff = engine.write(datum_a, b"w1", 0.0)
        effects += eff
        _, eff = engine.read(datum_b, 0.0)
        effects += eff
        _, eff = engine.write(datum_a, b"w2", 0.0)
        effects += eff
        # Nothing ships until the flush timers fire; each touched shard
        # armed its own.
        assert not any(isinstance(e, Send) for e in effects)
        flush_keys = {
            e.key for e in effects if isinstance(e, SetTimer) and ":pipeline.flush" in e.key
        }
        assert flush_keys == {"1:pipeline.flush", "3:pipeline.flush"}

        sends = []
        for key in sorted(flush_keys):
            sends += [
                e for e in engine.handle_timer(key, 0.0) if isinstance(e, Send)
            ]
        assert [s.dst for s in sends] == [HOSTS[1], HOSTS[3]]
        batch_a, single_b = (s.message for s in sends)
        # Shard 1 got file A's three ops as one frame, in submission order.
        assert isinstance(batch_a, BatchRequest)
        kinds_a = [type(op).__name__ for op in batch_a.ops]
        assert kinds_a == ["ReadRequest", "WriteRequest", "WriteRequest"]
        assert [
            op.content for op in batch_a.ops if isinstance(op, WriteRequest)
        ] == [b"w1", b"w2"]
        # Shard 3's lone op ships unwrapped (the pipeline never pads).
        assert isinstance(single_b, ReadRequest)


class TestAggregation:
    def test_metrics_and_counters_sum_over_shards(self):
        engine = ShardedClientEngine("c0", HOSTS)
        datum_a, datum_b = datums_on_shards(engine.router, 0, 2)
        engine.read(datum_a, 0.0)
        engine.read(datum_b, 0.0)
        engine.write(datum_b, b"x", 0.0)
        assert engine.metrics.reads == 2
        assert engine.metrics.writes == 1
        assert engine.outstanding_requests() == 3
        assert engine.shard_counts[0] == 1 and engine.shard_counts[2] == 2

    def test_startup_and_relinquish_cover_every_shard(self):
        engine = ShardedClientEngine("c0", HOSTS)
        # Bare engines boot with no pending work on any shard; both calls
        # must iterate every inner engine without raising.
        assert engine.startup_effects(0.0) == []
        assert engine.relinquish_all(1.0) == []
