"""Generator determinism and grammar coverage."""

from collections import Counter

import pytest

from repro.check import GeneratorConfig, ScenarioGenerator
from tests.sim import equivalence

N_SAMPLE = 60

#: Schedule digests of the 32 ``des_sweep`` scenarios, generated before
#: host naming moved into ``repro.topology``.
DES_SWEEP_GOLDEN = equivalence.load_golden(equivalence.SCENARIO_GOLDEN_PATH)


class TestDeterminism:
    def test_same_index_same_scenario(self):
        a = ScenarioGenerator(5).generate(3)
        b = ScenarioGenerator(5).generate(3)
        assert a == b
        assert a.digest() == b.digest()

    def test_generation_is_index_independent(self):
        """Scenario i does not depend on which scenarios came before."""
        fresh = ScenarioGenerator(5)
        warmed = ScenarioGenerator(5)
        for i in range(7):
            warmed.generate(i)
        assert warmed.generate(9) == fresh.generate(9)

    def test_different_base_seeds_differ(self):
        assert ScenarioGenerator(1).generate(0) != ScenarioGenerator(2).generate(0)

    def test_different_indices_differ(self):
        gen = ScenarioGenerator(1)
        assert gen.generate(0) != gen.generate(1)


class TestDesSweepPin:
    """The benchmark's scenario set is a fixed point of generator refactors:
    same RNG draws in the same order, same host names, same JSON."""

    def test_pin_covers_the_benchmark_set(self):
        labels = [label for label, _, _ in equivalence.DES_SWEEP_CASES]
        assert len(labels) == 32 and set(labels) == set(DES_SWEEP_GOLDEN)

    @pytest.mark.parametrize("group", ["single", "sharded", "replicated"])
    def test_schedules_are_byte_identical(self, group):
        cases = [c for c in equivalence.DES_SWEEP_CASES if c[0].startswith(group)]
        assert cases
        for label, config, index in cases:
            scenario = equivalence.scenario_for(config, index)
            assert scenario.digest() == DES_SWEEP_GOLDEN[label], label


class TestGrammarCoverage:
    """A modest sample must exercise every production of the grammar."""

    def setup_method(self):
        gen = ScenarioGenerator(0, GeneratorConfig.smoke(clock_faults=True))
        self.scenarios = [gen.generate(i) for i in range(N_SAMPLE)]

    def test_every_scenario_validates(self):
        for scenario in self.scenarios:
            scenario.validate()

    def test_fault_kinds_all_appear(self):
        kinds = Counter(f.kind for s in self.scenarios for f in s.faults)
        assert kinds["crash"] > 0
        assert kinds["partition"] > 0
        assert kinds["loss"] > 0
        assert kinds["clock_step"] + kinds["clock_drift"] > 0

    def test_server_and_client_crashes_both_appear(self):
        hosts = {f.host for s in self.scenarios for f in s.faults if f.kind == "crash"}
        assert "server" in hosts
        assert any(h.startswith("c") for h in hosts)

    def test_both_clock_directions_appear(self):
        clock_faults = [
            f
            for s in self.scenarios
            for f in s.faults
            if f.kind in ("clock_step", "clock_drift")
        ]
        assert any(f.dangerous for f in clock_faults)
        assert any(not f.dangerous for f in clock_faults)

    def test_may_violate_tracks_dangerous_faults(self):
        for scenario in self.scenarios:
            assert scenario.may_violate == scenario.has_dangerous_clock_fault

    def test_reads_and_writes_both_generated(self):
        kinds = Counter(op.kind for s in self.scenarios for op in s.ops)
        assert kinds["read"] > kinds["write"] > 0

    def test_window_faults_heal_before_duration(self):
        """The liveness/convergence precondition: a whole network at drain."""
        for scenario in self.scenarios:
            for fault in scenario.faults:
                if fault.kind in ("crash", "partition", "loss"):
                    assert fault.at + fault.duration < scenario.duration

    def test_smoke_mode_without_clock_faults_stays_safe(self):
        gen = ScenarioGenerator(0, GeneratorConfig.smoke())
        for i in range(30):
            scenario = gen.generate(i)
            assert not scenario.may_violate
            assert not any(
                f.kind in ("clock_step", "clock_drift") for f in scenario.faults
            )

    def test_long_mode_widens_the_grammar(self):
        config = GeneratorConfig.long()
        assert config.n_clients[1] > GeneratorConfig().n_clients[1]
        assert config.p_clock_fault > 0
