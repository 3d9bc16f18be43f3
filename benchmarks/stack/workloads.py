"""The five workloads: what each one builds, drives, checks and counts.

Four run the real asyncio stack — one event loop hosting a
``LeaseServerNode`` and two ``LeaseClientNode`` s over two loopback TCP
connections (127.0.0.1, no injected delay: latency is processor plus
kernel-loopback time) — and one runs the discrete-event stack through
``repro.check.runner.run_scenario``.  Every load is closed-loop and a
fixed op count generated from the seed; nothing on a measured path sleeps
for a duration or is paced by a timer.
"""

from __future__ import annotations

import asyncio
import dataclasses
import gc
import itertools
import json
import random
import resource
import time
from array import array
from collections import Counter
from dataclasses import dataclass
from typing import Callable

import repro
from repro.check.generator import GeneratorConfig, ScenarioGenerator
from repro.check.runner import build_scenario_cluster, run_scenario
from repro.errors import ReproError
from repro.lease.policy import FixedTermPolicy
from repro.lease.table import LeaseTable
from repro.profile.core import ping_storm, timer_storm
from repro.protocol.client import ClientConfig
from repro.protocol.codec import decode_message, encode_message
from repro.protocol.server import ServerConfig
from repro.runtime.node import LeaseClientNode, LeaseServerNode
from repro.runtime.tcp import TcpClientTransport, TcpServerTransport
from repro.runtime.transport import InMemoryHub
from repro.sim.metrics import percentile
from repro.storage.store import FileStore

from tracing import (
    CLIENT_MESSAGE,
    CLIENT_READ,
    CLIENT_TIMER,
    CLIENT_WRITE,
    NODE_HANDLER,
    OP,
    RUN_SCENARIO,
    SERVER_MESSAGE,
    SERVER_TIMER,
    SIM_BUILD,
    TCP_SEND,
    TracedServerEngine,
    Tracer,
    TracingTransport,
    traced_client_engine,
)

PAYLOAD_BYTES = 256
EPSILON = 0.01
#: Equal-count segments a process's timed section is cut into (see
#: ``Recorder``).  ``mixed_rw`` takes 5: a segment must hold enough ops for
#: its hit ratio, and so the mode its p90 sits in, to be the workload's.
SEGMENTS = 20
#: Counts are multiples of 640 = 8 x 16 x 5: the warm-up is exactly one
#: eighth of the timed count, every stream (16 on ``mixed_rw``) gets the same
#: share of both, and every segment (20 or 5) holds the same count.
COUNT_QUANTUM = 8 * 16 * 5
#: The most ops a traced run measures: two to four spans per op, kept in
#: memory and written out as one document.
TRACED_COUNT_CAP = 240 * COUNT_QUANTUM
#: ``des_sweep`` draws its scenarios from this fixed generator seed; the
#: ``--seed`` argument only permutes the order they run in, because ops per
#: second differ by a fifth between scenario sets.
SCENARIO_BASE_SEED = 1989
#: The final read-back covers at most this many files per client.
FINAL_READ_FILES = 512

_pc = time.perf_counter


@dataclass
class Stream:
    """One closed-loop application stream, stored compactly.

    Op ``i`` touches file ``files[i]`` on client ``clients[i % len(clients)]``
    and writes ``payloads[i]`` if there is one, else reads.  Arrays instead
    of a tuple per op keep the load generator's own memory a few megabytes,
    so ``peak_rss_mb`` is mostly the stack's.
    """

    clients: tuple[int, ...]
    files: array
    payloads: dict[int, bytes]


def payload_for(filler: bytes, writer: str, seq: int) -> bytes:
    """256 bytes that name the write that produced them."""
    head = f"{writer}:{seq}|".encode()
    return head + filler[len(head):]


def _zipf(rng: random.Random, files: int, count: int) -> array:
    """``count`` file indices, Zipf(1.0) over ``files``."""
    cum = list(itertools.accumulate(1.0 / (rank + 1) for rank in range(files)))
    return array("i", rng.choices(range(files), cum_weights=cum, k=count))


def plan_hot_read(rng, files, count, filler, phase) -> list[Stream]:
    """Two clients, Zipf reads of files both already hold under lease."""
    return [Stream((ci,), _zipf(rng, files, count // 2), {}) for ci in (0, 1)]


def plan_cold_read(rng, files, count, filler, phase) -> list[Stream]:
    """Two clients, uniform reads over a working set 20x the cache."""
    return [
        Stream((ci,), array("i", (rng.randrange(files) for _ in range(count // 2))), {})
        for ci in (0, 1)
    ]


def plan_shared_write(rng, files, count, filler, phase) -> list[Stream]:
    """``count`` cycles: holder c1 reads a file, then writer c0 writes it.

    Files are visited in a seeded permutation, round-robin: c1's copy of
    each is stale by the time it comes round again, and the first stale
    read refreshes all of them with one batched extension.
    """
    order = rng.sample(range(files), files)
    touched = array("i", (order[cycle % files] for cycle in range(count) for _ in (0, 1)))
    payloads = {
        2 * cycle + 1: payload_for(filler, f"{phase}0", cycle) for cycle in range(count)
    }
    return [Stream((1, 0), touched, payloads)]


def plan_mixed_rw(rng, files, count, filler, phase) -> list[Stream]:
    """Eight closed-loop streams per client, Zipf, 95 % reads / 5 % writes."""
    streams = []
    for stream in range(16):
        touched = _zipf(rng, files, count // 16)
        payloads = {
            i: payload_for(filler, f"{phase}{stream}", i)
            for i in range(len(touched))
            if rng.random() < 0.05
        }
        streams.append(Stream((stream // 8,), touched, payloads))
    return streams


@dataclass(frozen=True)
class Mix:
    """One asyncio workload: its world, its op mix and its size.

    ``ops_per_second`` is how many timed ops (cycles on ``shared_write``)
    the reference 2-core box completes per second; the count measured is
    that times ``--seconds``, so a run measures for about ``--seconds``
    while the work stays a fixed, seed-determined count.
    """

    files: int
    term: float
    cache_capacity: int
    batching: bool
    ops_per_second: int
    plan: Callable[..., list[Stream]]
    #: The primary op class, whose latency is reported: writes only
    #: (``shared_write``: the read is there to make c1 a holder) or any op.
    primary_is_write: bool = False
    segments: int = SEGMENTS
    #: Clients that read every file during set-up.
    preread: tuple[int, ...] = ()
    #: Give every (file, client) pair a lease record during set-up, as a
    #: long-running server would have: the table is at its steady-state
    #: size from the first timed op instead of growing through the run.
    full_table: bool = False


MIXES = {
    "hot_read": Mix(512, 3600.0, 4096, False, 200_000, plan_hot_read, preread=(0, 1)),
    "cold_read": Mix(20_000, 3600.0, 1024, False, 6_000, plan_cold_read, full_table=True),
    "shared_write": Mix(
        64, 3600.0, 4096, False, 2_000, plan_shared_write, primary_is_write=True, preread=(1,)
    ),
    "mixed_rw": Mix(256, 2.0, 4096, True, 7_000, plan_mixed_rw, segments=5),
}
#: Passes over the 32 scenarios the reference box completes per second.
DES_PASSES_PER_SECOND = 2.5


def timed_count(workload: str, seconds: float, traced: bool) -> int:
    """Ops (passes on ``des_sweep``) one measuring process runs in ``seconds``."""
    if workload == "des_sweep":
        return max(1, round(DES_PASSES_PER_SECOND * seconds))
    count = int(MIXES[workload].ops_per_second * seconds)
    if traced:
        count = min(count, TRACED_COUNT_CAP)
    return max(COUNT_QUANTUM, count // COUNT_QUANTUM * COUNT_QUANTUM)


def _peak_rss_mb() -> float:
    """Peak resident set so far; read when the timed section ends, before
    the harness sorts latencies and analyses spans."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


class Recorder:
    """Primary-op latencies and the times equal-count segments completed."""

    def __init__(self, primaries: int, segments: int):
        # Preallocated during set-up, so the harness's own memory is
        # constant while the clock runs.
        self.latency = array("d", bytes(8 * primaries))
        self.n = 0
        self.marks: list[float] = []
        self._segment = primaries // segments
        self._next_mark = self._segment

    def done(self, latency: float, now: float) -> None:
        n = self.n
        self.latency[n] = latency
        self.n = n = n + 1
        if n == self._next_mark:
            self.marks.append(now)
            self._next_mark += self._segment

    def summary(self, started: float, work_per_segment: float) -> dict:
        """Rate and latency percentiles of each segment, in the metric units."""
        edges = [started, *self.marks]
        size = self._segment
        out: dict = {"ops_per_s": [], "op_p50_us": [], "op_p90_us": []}
        for i, (a, b) in enumerate(zip(edges, edges[1:])):
            ranked = sorted(self.latency[i * size : (i + 1) * size])
            out["ops_per_s"].append(work_per_segment / (b - a))
            out["op_p50_us"].append(percentile(ranked, 0.50) * 1e6)
            out["op_p90_us"].append(percentile(ranked, 0.90) * 1e6)
        ranked = sorted(self.latency[: self.n])
        out["op_p99_us"] = percentile(ranked, 0.99) * 1e6 if ranked else 0.0
        return out


class Checker:
    """Checks every op's result, not a sample.

    Payloads name the write that produced them, so a read is checked
    against the version it returns.  Leases promise more than per-client
    monotonic reads: an op submitted after another op completed — on
    either client — must not see an older version of the datum, and a
    write must return a version above every one seen before it began.
    ``floor`` is that bound, taken by the caller when it submits the op.
    """

    def __init__(self, initial: list[tuple[int, bytes]]):
        #: Per file: version -> payload, filled in as writes complete.
        self.content = [{version: payload} for version, payload in initial]
        #: Per file: the highest version any completed op has returned.
        self.high = [version for version, _ in initial]
        #: Reads of a version whose write had not completed at its writer.
        self.deferred: list[tuple[int, int, bytes]] = []
        self.attempted = 0
        self.failed = 0

    def fail(self) -> None:
        self.attempted += 1
        self.failed += 1

    def read(self, k: int, value, floor: int) -> None:
        self.attempted += 1
        version, payload = value
        if version < floor:
            self.failed += 1
            return
        if version > self.high[k]:
            self.high[k] = version
        want = self.content[k].get(version)
        if want is None:
            self.deferred.append((k, version, payload))
        elif want != payload:
            self.failed += 1

    def write(self, k: int, payload: bytes, version: int, floor: int) -> None:
        self.attempted += 1
        if version <= floor or version in self.content[k]:
            self.failed += 1
            return
        if version > self.high[k]:
            self.high[k] = version
        self.content[k][version] = payload

    def settle(self) -> None:
        """Resolve the reads that ran ahead of their write's completion."""
        for k, version, payload in self.deferred:
            if self.content[k].get(version) != payload:
                self.failed += 1
        self.deferred.clear()


@dataclass
class World:
    """A running server, two clients and the files they share."""

    store: FileStore
    datums: list
    server: LeaseServerNode
    clients: list[LeaseClientNode]

    async def close(self) -> None:
        for client in self.clients:
            await client.close()
        await self.server.close()

    def counters(self) -> Counter:
        """Protocol counters summed over both clients."""
        total: Counter = Counter()
        for client in self.clients:
            engine = client.engine
            total.update(dataclasses.asdict(engine.metrics))
            total["evictions"] += engine.cache.stats.evictions
            batches, batched = engine.pipeline_stats()
            total["batches"] += batches
            total["batched_ops"] += batched
        return total


async def build_world(mix: Mix, fabric: str, tracer: Tracer | None, filler: bytes) -> World:
    """Populate the store, start the server, connect both clients."""
    store = FileStore()
    datums = []
    for k in range(mix.files):
        store.create_file(f"/f{k}", payload_for(filler, "init", k))
        datums.append(store.file_datum(f"/f{k}"))

    def wrap(transport):
        return TracingTransport(transport, tracer) if tracer is not None else transport

    hub = InMemoryHub() if fabric == "hub" else None
    if hub is None:
        listener = TcpServerTransport("server")
        await listener.start()
    else:
        listener = hub.endpoint("server")
    server = LeaseServerNode(
        wrap(listener),
        store,
        FixedTermPolicy(mix.term),
        # The sweep timer would scan the whole table in the middle of a
        # timed section; with these terms nothing expires for it to find.
        config=ServerConfig(epsilon=EPSILON, sweep_period=3600.0),
    )
    if tracer is not None:
        server.engine = TracedServerEngine(server.engine, tracer)
    config = ClientConfig(
        epsilon=EPSILON, cache_capacity=mix.cache_capacity, batching=mix.batching
    )
    extra = {} if tracer is None else {"engine_cls": traced_client_engine(tracer)}
    clients = []
    for ci in range(2):
        if hub is None:
            link = TcpClientTransport(f"c{ci}", "server")
            await link.connect(port=listener.port)
        else:
            link = hub.endpoint(f"c{ci}")
        clients.append(
            LeaseClientNode(wrap(link), "server", config=config, id_base=(ci + 1) << 32, **extra)
        )
    if mix.full_table:
        now = server.clock.now()
        for client in clients:
            for datum in datums:
                server.engine.table.grant(datum, client.name, now, mix.term)
    return World(store, datums, server, clients)


async def _stream(world: World, stream: Stream, all_primary, recorder, checker, tracer) -> None:
    """Run one stream: each op is submitted when the one before completes."""
    clients = [world.clients[ci] for ci in stream.clients]
    turns = len(clients)
    datums = world.datums
    payload_at = stream.payloads.get
    done = recorder.done
    high = checker.high
    for i, k in enumerate(stream.files):
        client = clients[i % turns]
        payload = payload_at(i)
        floor = high[k]
        t0 = _pc()
        if tracer is not None:
            sid = tracer.next_op = tracer.open(OP, -1, t0)
        try:
            if payload is None:
                value = await client.read(datums[k])
            else:
                value = await client.write(datums[k], payload)
        except ReproError:
            value = None
        t1 = _pc()
        if tracer is not None:
            tracer.close(sid, t1)
        if value is None:
            checker.fail()
            continue
        if all_primary or payload is not None:
            done(t1 - t0, t1)
        if payload is None:
            checker.read(k, value, floor)
        else:
            checker.write(k, payload, value, floor)
        if i & 255 == 255:
            # A lease-valid hit completes without ever yielding to the
            # loop; this bare yield lets hot_read's two clients interleave.
            await asyncio.sleep(0)


async def _drive(world: World, mix: Mix, streams, checker, tracer) -> tuple[Recorder, float]:
    """Run the streams to completion; returns the recorder and the start time."""
    all_primary = not mix.primary_is_write
    primaries = sum(
        len(stream.files) if all_primary else len(stream.payloads) for stream in streams
    )
    recorder = Recorder(primaries, mix.segments)
    started = _pc()
    await asyncio.gather(
        *(_stream(world, stream, all_primary, recorder, checker, tracer) for stream in streams)
    )
    return recorder, started


async def _measure_mix(name, rng, count, traced, fabric, t0) -> dict:
    mix = MIXES[name]
    tracer = Tracer() if traced else None
    filler = rng.randbytes(PAYLOAD_BYTES)
    world = await build_world(mix, fabric, tracer, filler)
    checker = Checker([world.store.read_datum(d) for d in world.datums])
    for ci in mix.preread:
        for k, datum in enumerate(world.datums):
            checker.read(k, await world.clients[ci].read(datum), checker.high[k])
    warm_up = mix.plan(rng, mix.files, count // 8, filler, "u")
    timed = mix.plan(rng, mix.files, count, filler, "t")
    await _drive(world, mix, warm_up, checker, tracer)
    if tracer is not None:
        tracer.reset()
    before = world.counters()
    # Everything set-up allocated moves out of the collector's sight, so a
    # collection during the timed section scans only what the run creates.
    gc.collect()
    gc.freeze()
    recorder, started = await _drive(world, mix, timed, checker, tracer)
    finished = _pc()
    peak_rss_mb = _peak_rss_mb()
    delta = world.counters() - before
    sizes = {
        "lease.table.records_peak": world.server.engine.table.lease_count(),
        "lease.holder.holdings_peak": max(len(c.engine.leases) for c in world.clients),
    }
    # The seams keep recording through the read-back; what was measured is
    # set aside first.
    trace = tracer.take() if tracer is not None else None

    order = rng.sample(range(mix.files), min(mix.files, FINAL_READ_FILES))
    for client in world.clients:
        for k in order:
            value = await client.read(world.datums[k])
            checker.read(k, value, checker.high[k])
            if value != world.store.read_datum(world.datums[k]):
                checker.failed += 1
    checker.settle()
    await world.close()

    result = recorder.summary(started, recorder.n / mix.segments)
    result.update(
        setup_s=[started - t0],
        timed_s=finished - started,
        peak_rss_mb=[peak_rss_mb],
        attempted=checker.attempted,
        failed=checker.failed,
    )
    if trace is not None:
        layers, checks = mix_layers(name, mix, trace, delta, recorder.n)
        result.update(layers=layers | sizes, checks=checks, tracer=trace)
    return result


def mix_layers(name, mix, tracer, delta, ops) -> tuple[dict, list[str]]:
    """Per-layer metrics of one traced asyncio run, and its count self-checks."""
    count, seconds = tracer.totals()
    client_busy = sum(
        seconds[s] for s in (CLIENT_READ, CLIENT_WRITE, CLIENT_MESSAGE, CLIENT_TIMER)
    )
    server_busy = seconds[SERVER_MESSAGE] + seconds[SERVER_TIMER]
    engine_in_handler = seconds[CLIENT_MESSAGE] + seconds[SERVER_MESSAGE]
    sent = len(tracer.messages)
    server_out = sum(1 for sender, _ in tracer.messages if sender == "server")
    kinds = Counter(type(message).__name__ for _, message in tracer.messages)
    extend_items = sum(
        len(inner.items)
        for _, message in tracer.messages
        for inner in getattr(message, "ops", (message,))
        if type(inner).__name__ == "ExtendRequest"
    )
    codec = replay_codec([message for _, message in tracer.messages])
    requests = delta["read_requests"] + delta["extend_requests"] + delta["writes"]
    writes = delta["writes"]

    def per(total: float, n: int, scale: float = 1.0) -> float:
        return total * scale / n if n else 0.0

    layers = {
        "protocol.client.busy_us_per_op": per(client_busy, ops, 1e6),
        "protocol.client.requests_per_op": per(requests, ops),
        "protocol.client.extend_items_per_op": per(extend_items, ops),
        "protocol.client.retransmits": delta["retransmissions"],
        "cache.hit_ratio": per(delta["local_hits"], delta["reads"]),
        "cache.evictions_per_op": per(delta["evictions"], ops),
        "protocol.pipeline.ops_per_batch": per(delta["batched_ops"], delta["batches"]),
        "protocol.pipeline.batches_per_op": per(delta["batches"], ops),
        "protocol.codec.encode_us_per_msg": per(codec["encode_s"], sent, 1e6),
        "protocol.codec.decode_us_per_msg": per(codec["decode_s"], sent, 1e6),
        "protocol.codec.bytes_per_msg": per(codec["bytes"], sent),
        "runtime.tcp.send_us_per_msg": per(seconds[TCP_SEND], sent, 1e6),
        "runtime.tcp.msgs_per_op": per(sent, ops),
        "runtime.tcp.bytes_per_op": per(codec["bytes"], ops),
        "runtime.node.dispatch_us_per_msg": per(
            seconds[NODE_HANDLER] - engine_in_handler, count[NODE_HANDLER], 1e6
        ),
        "runtime.node.wait_us_per_op": tracer.wait_per_op() * 1e6,
        "protocol.server.busy_us_per_msg": per(server_busy, count[SERVER_MESSAGE], 1e6),
        "protocol.server.msgs_per_op": per(count[SERVER_MESSAGE] + server_out, ops),
        "protocol.server.approval_rounds_per_write": per(kinds["ApprovalRequest"], writes),
        "lease.table.grant_us_per_call": grant_us_per_call(mix.files, mix.term),
    }

    # These counts repeat exactly from run to run, so they are asserted.
    checks = []

    def expect(ok: bool, what: str) -> None:
        if not ok:
            checks.append(f"{name}: {what}")

    if not mix.batching:
        expect(delta["batches"] == 0, f"depth-1 workload sent {delta['batches']} batches")
    if name == "hot_read":
        expect(sent == 0, f"{sent} messages sent in the timed section")
        expect(delta["local_hits"] == delta["reads"], "hit ratio below 1.0")
    if name == "cold_read":
        expect(sent == 2 * requests, f"{sent} messages for {requests} requests")
        expect(delta["retransmissions"] == 0, f"{delta['retransmissions']} retransmits")
    if name == "shared_write":
        path = ("WriteRequest", "ApprovalRequest", "ApprovalReply", "WriteReply")
        expect(
            all(kinds[kind] == writes for kind in path),
            f"write path {[kinds[kind] for kind in path]} messages for {writes} writes",
        )
    return layers, checks


def replay_codec(messages: list) -> dict:
    """Push every captured message through the wire codec, off line.

    The same two steps ``repro.runtime.tcp`` performs per frame: encode +
    ``json.dumps`` on the way out, ``json.loads`` + decode on the way in.
    """
    encode_s = decode_s = 0.0
    size = 0
    for message in messages:
        t0 = _pc()
        body = json.dumps(encode_message(message), separators=(",", ":")).encode("utf-8")
        t1 = _pc()
        decode_message(json.loads(body.decode("utf-8")))
        t2 = _pc()
        encode_s += t1 - t0
        decode_s += t2 - t1
        size += 4 + len(body)
    return {"encode_s": encode_s, "decode_s": decode_s, "bytes": size}


def grant_us_per_call(files: int, term: float) -> float:
    """Direct drive of ``LeaseTable.grant`` at the workload's table size."""
    table = LeaseTable()
    pairs = [(repro.DatumId.file(f"file:{k}"), f"c{ci}") for ci in (0, 1) for k in range(files)]
    for datum, holder in pairs:
        table.grant(datum, holder, 0.0, term)
    t0 = _pc()
    for datum, holder in pairs:
        table.grant(datum, holder, 1.0, term)
    return (_pc() - t0) * 1e6 / len(pairs)


# -- des_sweep ---------------------------------------------------------------------


def des_scenarios() -> list[tuple[str, object]]:
    """The 32 pinned scenarios, each with its topology group."""
    smoke = GeneratorConfig.smoke()
    groups = (
        ("single", smoke, 16),
        ("sharded", dataclasses.replace(GeneratorConfig.smoke(batching=True), shards=4), 8),
        ("replicated", dataclasses.replace(smoke, replicas=3), 8),
    )
    return [
        (group, ScenarioGenerator(SCENARIO_BASE_SEED, config).generate(index))
        for group, config, n in groups
        for index in range(n)
    ]


def _measure_des(rng, passes, traced, t0) -> dict:
    scenarios = des_scenarios()
    rng.shuffle(scenarios)
    tracer = Tracer() if traced else None
    # The warm-up pass also pins what every later pass must reproduce.
    pinned = []
    for _, scenario in scenarios:
        result = run_scenario(scenario)
        pinned.append(
            (result.ops_completed, result.events_executed, result.reads_checked, result.fingerprint)
        )
    ops_per_pass = sum(ops for ops, *_ in pinned)
    recorder = Recorder(passes * len(scenarios), segments=passes)
    failed = 0
    gc.collect()
    gc.freeze()
    started = _pc()
    for _ in range(passes):
        for (_, scenario), want in zip(scenarios, pinned):
            if tracer is not None:
                sid = tracer.open(SIM_BUILD, -1)
                build_scenario_cluster(scenario)
                tracer.close(sid)
                sid = tracer.open(RUN_SCENARIO, -1)
            t1 = _pc()
            result = run_scenario(scenario)
            t2 = _pc()
            if tracer is not None:
                tracer.close(sid, t2)
            # One latency sample per scenario run: wall per completed op.
            recorder.done((t2 - t1) / max(1, result.ops_completed), t2)
            got = (
                result.ops_completed, result.events_executed,
                result.reads_checked, result.fingerprint,
            )
            if result.verdict != "pass" or got != want:
                failed += want[0]
    finished = _pc()

    result = recorder.summary(started, ops_per_pass)
    result.update(
        setup_s=[started - t0],
        timed_s=finished - started,
        peak_rss_mb=[_peak_rss_mb()],
        attempted=passes * ops_per_pass,
        failed=failed,
    )
    if tracer is not None:
        result.update(layers=des_layers(tracer, scenarios, pinned), checks=[], tracer=tracer)
    return result


def des_layers(tracer: Tracer, scenarios, pinned) -> dict:
    """Per-layer metrics of one traced ``des_sweep`` run."""
    count, seconds = tracer.totals()
    runs, run_s = count[RUN_SCENARIO], seconds[RUN_SCENARIO]
    builds, build_s = count[SIM_BUILD], seconds[SIM_BUILD]
    passes = runs // len(scenarios)
    ops = passes * sum(p[0] for p in pinned)
    events = passes * sum(p[1] for p in pinned)
    reads_checked = passes * sum(p[2] for p in pinned)
    by_group: Counter = Counter()
    spans = (
        (s, e) for name, s, e in zip(tracer.name, tracer.start, tracer.end)
        if name == RUN_SCENARIO
    )
    for i, (s, e) in enumerate(spans):
        by_group[scenarios[i % len(scenarios)][0]] += e - s

    def storm_rate(storm) -> float:
        t0 = _pc()
        executed = storm()
        return executed / (_pc() - t0)

    return {
        "sim.kernel.events_per_s": storm_rate(timer_storm),
        "sim.network.events_per_s": storm_rate(ping_storm),
        "sim.driver.build_us_per_scenario": build_s * 1e6 / builds,
        "check.runner.events_per_op": events / ops,
        "check.runner.events_per_s": events / run_s,
        "sim.oracle.reads_checked_per_op": reads_checked / ops,
        "check.runner.share_single": by_group["single"] / run_s,
        "check.runner.share_sharded": by_group["sharded"] / run_s,
        "check.runner.share_replicated": by_group["replicated"] / run_s,
    }


def measure(workload: str, seed: str, count: int, traced: bool, fabric: str, t0: float) -> dict:
    """Set up, warm up, measure and check one workload in this process.

    ``t0`` is when the process began (before ``import repro``): set-up time
    runs from there to the first timed op.
    """
    rng = random.Random(f"{seed}/{workload}")
    if workload == "des_sweep":
        result = _measure_des(rng, count, traced, t0)
    else:
        result = asyncio.run(_measure_mix(workload, rng, count, traced, fabric, t0))
    result.update(
        workload=workload,
        count=count,
        build=repro.build_info()["build"],
    )
    return result
