"""Explorer sweeps, failure artifacts, and the repro.check CLI."""

import dataclasses
import json
import os

from repro.check import Explorer, Scenario, demo_clock_fault_scenario, run_scenario
from repro.check.__main__ import main
from repro.check.scenario import Fault
from repro.obs.bus import TraceBus
from repro.obs.registry import Registry

N_SWEEP = 4


def failing_scenario() -> Scenario:
    """The demo violation with its waiver revoked: a true failure."""
    return dataclasses.replace(demo_clock_fault_scenario(), may_violate=False)


class TestSweep:
    def test_smoke_sweep_is_clean(self):
        report = Explorer(base_seed=0).explore(N_SWEEP)
        assert report.ok
        assert report.scenarios == N_SWEEP
        assert report.passed + report.violations + report.failed == N_SWEEP
        assert len(report.verdicts) == N_SWEEP

    def test_sweep_is_deterministic(self):
        a = Explorer(base_seed=2).explore(N_SWEEP)
        b = Explorer(base_seed=2).explore(N_SWEEP)
        assert a.verdicts == b.verdicts
        assert a.to_json() == b.to_json()

    def test_progress_callback_sees_every_outcome(self):
        seen = []
        Explorer(base_seed=0).explore(N_SWEEP, progress=seen.append)
        assert [o.index for o in seen] == list(range(N_SWEEP))

    def test_counters_and_events(self):
        bus, registry = TraceBus(), Registry()
        Explorer(base_seed=0, obs=bus, registry=registry).explore(N_SWEEP)
        counters = registry.snapshot()["counters"]
        assert counters["check.scenarios"] == N_SWEEP
        runs = [e for e in bus.events() if e["type"] == "check.run"]
        assert len(runs) == N_SWEEP
        assert all(e["verdict"] in ("pass", "violation", "fail") for e in runs)


class FailingExplorer(Explorer):
    """An explorer whose generator always yields the failing demo."""

    def __init__(self, **kwargs):
        super().__init__(base_seed=0, **kwargs)
        self.generator.generate = lambda index: failing_scenario()


class TestFailureHandling:
    def test_failure_is_shrunk_and_artifacts_written(self, tmp_path):
        out = str(tmp_path / "failures")
        explorer = FailingExplorer(out_dir=out, shrink_budget=100)
        outcome = explorer.run_index(0)

        assert outcome.result.verdict == "fail"
        assert outcome.shrunk is not None
        assert outcome.shrunk.events <= 5
        assert outcome.repro_path is not None and os.path.exists(outcome.repro_path)
        assert outcome.trace_path is not None and os.path.exists(outcome.trace_path)

        # The emitted repro file reproduces the failure on replay.
        replayed = run_scenario(Scenario.load(outcome.repro_path))
        assert "consistency" in replayed.failure_kinds

        with open(outcome.trace_path, encoding="utf-8") as fh:
            trace = [json.loads(line) for line in fh]
        assert any(e["type"] == "oracle.violation" for e in trace)

    def test_shrink_can_be_disabled(self, tmp_path):
        out = str(tmp_path / "failures")
        explorer = FailingExplorer(out_dir=out, shrink=False)
        outcome = explorer.run_index(0)
        assert outcome.shrunk is None
        assert os.path.exists(outcome.repro_path)

    def test_failure_without_out_dir_still_reported(self):
        explorer = FailingExplorer(shrink_budget=100)
        report = explorer.explore(1)
        assert report.failed == 1
        assert report.failures[0].repro_path is None

    def test_report_json_describes_failures(self, tmp_path):
        out = str(tmp_path / "failures")
        explorer = FailingExplorer(out_dir=out, shrink_budget=100)
        data = explorer.explore(1).to_json()
        assert data["failed"] == 1
        (entry,) = data["failures"]
        assert entry["failure_kinds"] == ["consistency"]
        assert entry["events_after"] <= 5
        assert entry["repro"] and entry["trace"]


class TestCli:
    def test_smoke_sweep_exits_zero(self, tmp_path, capsys):
        report_path = str(tmp_path / "report.json")
        status = main(["--seeds", "3", "--quiet", "--json", report_path])
        assert status == 0
        with open(report_path, encoding="utf-8") as fh:
            report = json.load(fh)
        assert report["scenarios"] == 3 and report["failed"] == 0
        assert "explored 3 scenarios" in capsys.readouterr().out

    def test_progress_lines_printed_by_default(self, capsys):
        assert main(["--seeds", "2"]) == 0
        out = capsys.readouterr().out
        assert out.count("gen-0-") >= 2

    def test_replay_reproducing_file_exits_zero(self, tmp_path, capsys):
        path = str(tmp_path / "demo.json")
        demo_clock_fault_scenario().save(path)
        assert main(["--replay", path]) == 0
        assert "verdict=violation" in capsys.readouterr().out

    def test_replay_clean_file_exits_one(self, tmp_path):
        scenario = dataclasses.replace(
            demo_clock_fault_scenario(), faults=(), may_violate=False
        )
        path = str(tmp_path / "clean.json")
        scenario.save(path)
        assert main(["--replay", path, "--quiet"]) == 1

    def test_replay_unrunnable_file_exits_two(self, tmp_path, capsys):
        """A fault the runner cannot execute is a bad argument (2), not a
        scenario that failed to reproduce (1), and it is named."""
        scenario = dataclasses.replace(
            demo_clock_fault_scenario(),
            faults=(Fault("partition", at=5.0, hosts=("c0",), duration=-2.0),),
        )
        path = str(tmp_path / "bad.json")
        scenario.save(path)
        assert main(["--replay", path]) == 2
        err = capsys.readouterr().err
        assert "cannot replay" in err and "duration must be finite and >= 0" in err
