"""The equivalence contract: kernel and network refactors change nothing,
byte for byte.

Every case in :mod:`tests.sim.equivalence` runs against the committed
golden digests (trace stream hash, per-host message stats, oracle
fingerprint/verdict, executed-event count), pinned before the timer
wheel and the inline delivery path existed.  The kernel has one code
path; what it must do is specified by the reference heap in
``tests/sim/test_kernel.py``, and these digests pin that the whole
stack on top of it still produces the same runs.

A failure here means a hot-path change altered observable behaviour.
Never regenerate the goldens to make a perf refactor pass.
"""

import pytest

from tests.sim import equivalence

GOLDEN = equivalence.load_golden()

_CASE_BY_LABEL = {label: (config, index) for label, config, index in equivalence.CASES}


class TestGoldenDigests:
    @pytest.mark.parametrize(
        "label", [label for label, _, _ in equivalence.CASES]
    )
    def test_default_flags_match_golden(self, label):
        config, index = _CASE_BY_LABEL[label]
        digest = equivalence.core_digest(equivalence.scenario_for(config, index))
        assert digest == GOLDEN[label]


TOPOLOGY_GOLDEN = equivalence.load_golden(equivalence.TOPOLOGY_GOLDEN_PATH)

_TOPOLOGY_BY_LABEL = {
    label: (config, index) for label, config, index in equivalence.TOPOLOGY_CASES
}


class TestTopologyDigests:
    """The multi-server topologies, pinned from the four-assembler code:
    the single assembler must reproduce every byte."""

    @pytest.mark.parametrize("label", list(_TOPOLOGY_BY_LABEL))
    def test_topology_matches_golden(self, label):
        config, index = _TOPOLOGY_BY_LABEL[label]
        scenario = equivalence.scenario_for(config, index)
        assert (scenario.shards, scenario.replicas) == tuple(
            int(n) for n in label.split("-")[0].split("x")
        )
        assert equivalence.core_digest(scenario) == TOPOLOGY_GOLDEN[label]

    def test_golden_file_covers_every_case(self):
        assert set(TOPOLOGY_GOLDEN) == set(_TOPOLOGY_BY_LABEL)
        for shape in ("4x1", "1x3", "2x3"):
            assert sum(label.startswith(shape) for label in _TOPOLOGY_BY_LABEL) >= 4


class TestCaseSet:
    def test_golden_file_covers_every_case(self):
        assert set(GOLDEN) == {label for label, _, _ in equivalence.CASES}
        assert len(equivalence.CASES) >= 20

    def test_case_set_covers_fault_space(self):
        """The pinned set must exercise every fault channel the fast
        paths could mishandle — and fully quiet runs where they engage
        on every single leg."""
        seen = set()
        for label, config, index in equivalence.CASES:
            scenario = equivalence.scenario_for(config, index)
            if scenario.loss_rate > 0:
                seen.add("loss")
            if scenario.duplicate_rate > 0:
                seen.add("duplicate")
            if not scenario.faults and scenario.loss_rate == 0:
                seen.add("quiet")
            for fault in scenario.faults:
                if fault.kind == "crash":
                    seen.add("server_crash" if fault.host == "server" else "client_crash")
                elif fault.kind == "partition":
                    seen.add("partition")
                elif fault.kind == "loss":
                    seen.add("loss")
                elif fault.kind in ("clock_step", "clock_drift"):
                    seen.add("clock")
        assert seen >= {
            "quiet",
            "loss",
            "duplicate",
            "partition",
            "client_crash",
            "server_crash",
            "clock",
        }
