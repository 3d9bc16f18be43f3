"""Parallel exploration: byte-identical to serial, error/exit semantics."""

import dataclasses
import json
import os
import signal
import subprocess
import sys
import time

import pytest

from repro.check import Explorer, demo_clock_fault_scenario
from repro.check.__main__ import main
from repro.check.generator import ScenarioGenerator
from repro.obs.bus import TraceBus
from repro.obs.registry import Registry
from repro.parallel import SweepJobError

N = 6


class AlwaysFailingGenerator(ScenarioGenerator):
    """Module-level (picklable) generator whose every scenario truly fails."""

    def generate(self, index):
        """The demo clock-fault scenario with its waiver revoked."""
        return dataclasses.replace(
            demo_clock_fault_scenario(),
            may_violate=False,
            name=f"always-fail-{index}",
        )


class RaisingGenerator(ScenarioGenerator):
    """Module-level (picklable) generator that explodes on index 2."""

    def generate(self, index):
        """Raise for index 2, delegate otherwise."""
        if index == 2:
            raise RuntimeError("generator bug at index 2")
        return super().generate(index)


def exit_status(argv):
    """``main``'s exit status, whether returned or raised by argparse."""
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


def report_bytes(report):
    """The canonical serialized form the CLI writes with ``--json``."""
    return json.dumps(report.to_json(), indent=2, sort_keys=True)


class TestEquivalence:
    def test_report_is_byte_identical_across_worker_counts(self):
        serial = Explorer(base_seed=7).explore(N, workers=1)
        for workers in (2, 4):
            parallel = Explorer(base_seed=7).explore(N, workers=workers)
            assert report_bytes(parallel) == report_bytes(serial)

    def test_failure_artifacts_are_byte_identical(self, tmp_path):
        outs = {}
        for workers in (1, 2):
            out = str(tmp_path / f"w{workers}")
            explorer = Explorer(
                base_seed=0,
                out_dir=out,
                shrink_budget=60,
                generator_cls=AlwaysFailingGenerator,
            )
            report = explorer.explore(2, workers=workers)
            assert report.failed == 2
            outs[workers] = out
        names = sorted(os.listdir(outs[1]))
        assert names == sorted(os.listdir(outs[2]))
        assert names  # repro + trace per failure
        for name in names:
            with open(os.path.join(outs[1], name), "rb") as fh:
                serial = fh.read()
            with open(os.path.join(outs[2], name), "rb") as fh:
                parallel = fh.read()
            assert serial == parallel, f"artifact {name} diverged"

    def test_check_events_and_counters_match_serial(self):
        snapshots = {}
        for workers in (1, 3):
            bus, registry = TraceBus(capacity=None), Registry()
            Explorer(base_seed=1, obs=bus, registry=registry).explore(
                N, workers=workers
            )
            check_events = [
                e for e in bus.events() if e["type"].startswith("check.")
            ]
            snapshots[workers] = (check_events, registry.snapshot()["counters"])
        assert snapshots[1] == snapshots[3]

    def test_progress_callback_order_is_serial_order(self):
        seen = []
        Explorer(base_seed=0).explore(N, workers=3, progress=seen.append)
        assert [o.index for o in seen] == list(range(N))


class TestSweepErrors:
    def test_generator_error_raises_sweep_job_error_at_its_index(self):
        explorer = Explorer(base_seed=0, generator_cls=RaisingGenerator)
        with pytest.raises(SweepJobError) as excinfo:
            explorer.explore(N, workers=2)
        assert excinfo.value.index == 2
        assert "generator bug at index 2" in str(excinfo.value)

    def test_generator_error_raises_inline_when_serial(self):
        explorer = Explorer(base_seed=0, generator_cls=RaisingGenerator)
        with pytest.raises(RuntimeError, match="generator bug"):
            explorer.explore(N, workers=1)


class TestCliExitCodes:
    def test_parallel_stdout_matches_serial(self, capsys):
        assert main(["--seeds", "4", "--workers", "1"]) == 0
        serial = capsys.readouterr().out
        assert main(["--seeds", "4", "--workers", "2"]) == 0
        assert capsys.readouterr().out == serial

    def test_bad_workers_spec_exits_2(self, capsys):
        assert exit_status(["--seeds", "1", "--workers", "lots"]) == 2
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize("seeds", ["0", "-3"])
    def test_sweep_of_no_seeds_exits_2(self, seeds, capsys):
        assert exit_status(["--seeds", seeds, "--quiet"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--seeds" in captured.err

    def test_sweep_error_exits_2(self, monkeypatch, capsys):
        def boom(self, n, progress=None, workers=1):
            raise RuntimeError("harness exploded")

        monkeypatch.setattr(Explorer, "explore", boom)
        assert main(["--seeds", "2", "--quiet"]) == 2
        assert "sweep error" in capsys.readouterr().err

    def test_interrupt_exits_130(self, monkeypatch, capsys):
        def interrupted(self, n, progress=None, workers=1):
            raise KeyboardInterrupt()

        monkeypatch.setattr(Explorer, "explore", interrupted)
        assert main(["--seeds", "2", "--quiet"]) == 130
        assert "interrupted" in capsys.readouterr().err

    @pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc")
    def test_terminal_ctrl_c_exits_130_and_leaves_no_worker(self):
        """SIGINT to the whole process group, as a terminal sends it."""
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro.check", "--seeds", "5000",
             "--workers", "2", "--quiet"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            start_new_session=True,
        )
        children = f"/proc/{proc.pid}/task/{proc.pid}/children"
        try:
            deadline = time.monotonic() + 30
            workers = []
            while len(workers) < 2 and time.monotonic() < deadline:
                time.sleep(0.05)
                with open(children) as fh:
                    workers = [int(pid) for pid in fh.read().split()]
            assert len(workers) >= 2, "the sweep never started its workers"
            time.sleep(0.5)  # let the sweep get going
            os.killpg(proc.pid, signal.SIGINT)
            _, err = proc.communicate(timeout=15)
        finally:
            if proc.poll() is None:
                os.killpg(proc.pid, signal.SIGKILL)
                proc.wait()
        assert proc.returncode == 130
        assert "interrupted" in err
        assert "KeyboardInterrupt" not in err
        assert [pid for pid in workers if os.path.exists(f"/proc/{pid}")] == []
