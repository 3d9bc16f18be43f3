"""Sharded DES cluster: oracle coverage, faults on shards, digest pins."""

import json
import pathlib

from repro.check.generator import GeneratorConfig, ScenarioGenerator
from repro.check.runner import run_scenario
from repro.check.scenario import Fault, Op, Scenario
from repro.sim.driver import build_cluster

GOLDEN_DIR = pathlib.Path(__file__).parent.parent / "check" / "golden"


def _files(store, n):
    for i in range(n):
        store.create_file(f"/file{i}", b"init")


class TestShardedSim:
    def test_oracle_spans_all_shards(self):
        """A write on one shard must be visible to reads routed there,
        and the oracle must merge histories without datum-id collisions."""
        cluster = build_cluster(
            3, shards=4, setup_store=lambda s: _files(s, 8), seed=3
        )
        datums = [cluster.store.file_datum(f"/file{i}") for i in range(8)]
        assert {cluster.store.shard_of(d) for d in datums} == {0, 1, 2, 3}
        for i, datum in enumerate(datums):
            cluster.schedule_op(
                1.0 + i, i % 3, lambda c, d=datum: c.write(d, b"payload")
            )
            cluster.schedule_op(
                10.0 + i, (i + 1) % 3, lambda c, d=datum: c.read(d)
            )
        cluster.run(until=60.0)
        assert cluster.oracle.violations == []
        assert cluster.oracle.reads_checked >= 8


class TestShardedScenarios:
    def test_crash_of_one_shard_is_survivable(self):
        """Crashing s1 only stalls s1's files; the others stay live."""
        scenario = Scenario(
            name="shard-crash",
            seed=11,
            n_clients=3,
            n_files=8,
            shards=4,
            duration=20.0,
            term=5.0,
            ops=tuple(
                Op(at=1.0 + 0.5 * i, client=i % 3, kind="write" if i % 3 == 0 else "read", file=i % 8)
                for i in range(24)
            ),
            faults=(Fault("crash", at=5.0, host="s1", duration=3.0),),
        )
        result = run_scenario(scenario)
        assert result.ok, (result.failure_kinds, result.violations)

    def test_generated_sweep_at_four_shards(self):
        """A small oracle-checked sweep with the full fault grammar."""
        generator = ScenarioGenerator(
            base_seed=5, config=GeneratorConfig(shards=4)
        )
        for index in range(5):
            scenario = generator.generate(index)
            assert scenario.shards == 4
            result = run_scenario(scenario)
            assert result.ok, (index, result.failure_kinds, result.violations)

    def test_scenario_roundtrip_with_shards(self):
        scenario = Scenario(name="s", shards=4, n_files=3)
        restored = Scenario.loads(scenario.dumps())
        assert restored.shards == 4
        assert "shards" in scenario.to_json()

    def test_single_shard_prunes_and_matches_legacy_digest(self):
        """``shards=1`` serializes identically to a pre-shard scenario."""
        assert "shards" not in Scenario(name="s").to_json()
        assert Scenario(name="s").digest() == Scenario(name="s", shards=1).digest()

    def test_stress_goldens_unchanged(self):
        """A committed pre-shard scenario file loads with ``shards == 1``
        and re-serializes without the field — its digest is untouched."""
        scenario = Scenario.load(str(GOLDEN_DIR / "stress_seed7.json"))
        assert scenario.shards == 1
        assert "shards" not in scenario.to_json()
        on_disk = json.loads((GOLDEN_DIR / "stress_seed7.json").read_text())
        assert Scenario.from_json(on_disk).digest() == scenario.digest()


class TestShardFaultClassification:
    def test_shard_clock_fault_directions(self):
        """§5 danger directions follow the *server* rule on shard hosts."""
        fast_shard = Fault("clock_step", at=1.0, host="s2", delta=3.0)
        slow_shard = Fault("clock_step", at=1.0, host="s2", delta=-3.0)
        assert fast_shard.dangerous and not slow_shard.dangerous
        slow_client = Fault("clock_step", at=1.0, host="c0", delta=-3.0)
        assert slow_client.dangerous
