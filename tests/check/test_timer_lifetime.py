"""No timer outlives its wait, over seeded DES scenarios.

A write gate's ``write:<id>`` timer is cancelled when the gate proceeds,
and a Paxos round's ``paxos:round`` timer when the round resolves
(``repro.protocol.server._Gate``, ``repro.replica.engine``).  So every
``write:`` firing that reaches a :class:`ServerEngine` finds its gate,
and every ``paxos:round`` firing finds the proposer mid-round.  A deposed
epoch's inner timers stop in the replica before they reach a
``ServerEngine``, and a crash cancels every timer of the crashed host, so
neither shows up here.
"""

import dataclasses
from collections import Counter

import pytest

from repro.check import run_scenario
from repro.check.generator import GeneratorConfig, ScenarioGenerator
from repro.protocol.server import ServerEngine
from repro.replica.engine import ReplicaEngine

BASE_SEED = 1989

SMOKE = GeneratorConfig.smoke()
SHARDED = dataclasses.replace(GeneratorConfig.smoke(batching=True), shards=4)
REPLICATED = dataclasses.replace(GeneratorConfig.smoke(clock_faults=True), replicas=3)


@pytest.fixture
def firings(monkeypatch):
    """Classify every ``write:`` and ``paxos:round`` firing as it is
    delivered: ``live`` counts firings with a wait to end, ``stale``
    lists the others as ``(host, key, now)``."""
    seen = {"live": Counter(), "stale": []}
    server_timer = ServerEngine.handle_timer
    replica_timer = ReplicaEngine.handle_timer

    def on_server_timer(engine, key, now):
        if key.startswith("write:"):
            if int(key.split(":", 1)[1]) in engine._gates:
                seen["live"]["write"] += 1
            else:
                seen["stale"].append((engine.name, key, now))
        return server_timer(engine, key, now)

    def on_replica_timer(engine, key, now):
        if key == "paxos:round":
            if engine.proposer.phase != "idle":
                seen["live"]["paxos:round"] += 1
            else:
                seen["stale"].append((engine.name, key, now))
        return replica_timer(engine, key, now)

    monkeypatch.setattr(ServerEngine, "handle_timer", on_server_timer)
    monkeypatch.setattr(ReplicaEngine, "handle_timer", on_replica_timer)
    return seen


@pytest.mark.parametrize(
    "config, count",
    [(SMOKE, 100), (SHARDED, 30), (REPLICATED, 30)],
    ids=["single", "4x1", "1x3-clock"],
)
def test_every_firing_has_a_wait_to_end(firings, config, count):
    generator = ScenarioGenerator(BASE_SEED, config)
    for index in range(count):
        run_scenario(generator.generate(index))
    assert firings["stale"] == []
    # Teeth: some writes did wait out a silent holder's lease.
    assert firings["live"]["write"] > 0
