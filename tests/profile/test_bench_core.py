"""Tests for the core workloads and the ``bench_core`` CLI."""

import json

import pytest

from repro.profile import core


def make_report(core_eps, build="pure"):
    """What ``--speedup-vs`` reads of a reference report."""
    return {
        "workloads": {"core": {"events_per_sec": core_eps}},
        "build": {"build": build},
    }


class TestWorkloads:
    def test_storms_are_deterministic(self):
        assert core.timer_storm(8, 50) == core.timer_storm(8, 50)
        assert core.ping_storm(4, 30) == core.ping_storm(4, 30)

    def test_storm_event_count_is_pinned(self):
        """The storms are fixed work: ``benchmarks/stack`` divides this
        count by wall time, so a kernel or network change that alters it
        changed semantics, not speed."""
        assert core.timer_storm() + core.ping_storm() == 83504

    def test_best_of_rejects_nondeterminism(self):
        drift = iter((100, 101))

        def flaky():
            return next(drift)

        with pytest.raises(RuntimeError, match="non-deterministic"):
            core._best_of(flaky, trials=2)

    def test_best_of_returns_minimum_wall(self):
        events, wall = core._best_of(lambda: 7, trials=3)
        assert events == 7
        assert wall >= 0.0


class TestCli:
    def test_speedup_gate_passes_against_slow_reference(self, tmp_path, capsys):
        reference = tmp_path / "pure.json"
        with open(reference, "w", encoding="utf-8") as fh:
            json.dump(make_report(core_eps=1.0), fh)
        assert core.main([
            "--jobs", "2", "--trials", "1",
            "--speedup-vs", str(reference), "--min-speedup", "2.0",
        ]) == 0
        err = capsys.readouterr().err
        assert "core speedup vs" in err
        assert "(pure -> " in err

    def test_speedup_gate_fails_below_minimum(self, tmp_path, capsys):
        reference = tmp_path / "pure.json"
        with open(reference, "w", encoding="utf-8") as fh:
            json.dump(make_report(core_eps=1e12), fh)
        rc = core.main([
            "--jobs", "2", "--trials", "1",
            "--speedup-vs", str(reference), "--min-speedup", "2.0",
        ])
        assert rc == 1
        assert "SPEEDUP GATE FAIL" in capsys.readouterr().err

    def test_out_writes_stable_json(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        assert core.main([
            "--jobs", "2", "--trials", "1", "--out", str(out),
        ]) == 0
        with open(out, encoding="utf-8") as fh:
            report = json.load(fh)
        assert report["benchmark"] == "core_hot_path"
        assert set(report["workloads"]) == {"core", "scenario"}
