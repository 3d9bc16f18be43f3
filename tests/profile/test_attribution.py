"""Unit tests for repro.profile: classification, attribution, artifacts."""

import json

from repro import profile
from repro.profile.core import timer_storm


class TestClassify:
    def test_repo_subsystems(self):
        assert profile.classify("/x/src/repro/sim/kernel.py") == "kernel"
        assert profile.classify("/x/src/repro/sim/network.py") == "network"
        assert profile.classify("/x/src/repro/sim/host.py") == "network"
        assert profile.classify("/x/src/repro/sim/driver.py") == "driver"
        assert profile.classify("/x/src/repro/protocol/server.py") == "protocol"
        assert profile.classify("/x/src/repro/lease/table.py") == "lease"
        assert profile.classify("/x/src/repro/obs/bus.py") == "obs"
        assert profile.classify("/x/src/repro/check/runner.py") == "harness"
        assert profile.classify("/x/src/repro/storage/store.py") == "support"

    def test_unclaimed_repo_file_is_other(self):
        assert profile.classify("/x/src/repro/new_subsystem/mod.py") == "other"

    def test_stdlib_and_builtins_are_builtin(self):
        assert profile.classify("/usr/lib/python3.11/json/encoder.py") == "builtin"
        assert profile.classify("~") == "builtin"

    def test_windows_separators_normalized(self):
        assert profile.classify("C:\\x\\repro\\sim\\kernel.py") == "kernel"

    def test_hot_twin_files_claimed(self):
        # Twins staged outside the repo tree (REPRO_HOT_DIR) carry no
        # repro/ prefix; the _hot/ fragments must still claim them.
        assert profile.classify("/tmp/stage/_hot/kernel.py") == "kernel"
        assert profile.classify("/tmp/stage/_hot/network.py") == "network"
        assert profile.classify("/tmp/stage/_hot/table.py") == "lease"
        assert profile.classify("/tmp/stage/_hot/codec.py") == "protocol"
        assert profile.classify("/tmp/stage/_hot/messages.py") == "protocol"
        assert profile.classify("/tmp/stage/_hot/filecache.py") == "support"


class TestClassifyEntry:
    def test_filename_wins_when_usable(self):
        assert (
            profile.classify_entry("/x/src/repro/sim/kernel.py", "run") == "kernel"
        )

    def test_compiled_frames_recovered_by_name(self):
        # mypyc-compiled functions profile builtin-style: filename "~",
        # the module or native-class name embedded in the entry name.
        assert (
            profile.classify_entry("~", "<built-in method repro._hot.kernel.Kernel>")
            == "kernel"
        )
        assert (
            profile.classify_entry("~", "<method 'run' of 'kernel.Kernel' objects>")
            == "kernel"
        )
        assert (
            profile.classify_entry("~", "<method 'unicast' of 'Network' objects>")
            == "network"
        )
        assert (
            profile.classify_entry("~", "<method 'grant' of 'table.LeaseTable' objects>")
            == "lease"
        )
        assert (
            profile.classify_entry("~", "<built-in method repro._hot.codec.encode_message>")
            == "protocol"
        )
        assert (
            profile.classify_entry("~", "<method 'put' of 'FileCache' objects>")
            == "support"
        )

    def test_true_builtins_stay_builtin(self):
        assert profile.classify_entry("~", "<built-in method builtins.len>") == "builtin"
        assert (
            profile.classify_entry("~", "<method 'append' of 'list' objects>")
            == "builtin"
        )


class TestCompareReports:
    @staticmethod
    def _report(label, build, kernel_t, network_t):
        total = kernel_t + network_t
        return {
            "label": label,
            "build": {"build": build},
            "total_tottime": total,
            "subsystems": {
                "kernel": {"tottime": kernel_t, "calls": 10, "share": kernel_t / total},
                "network": {"tottime": network_t, "calls": 5, "share": network_t / total},
            },
        }

    def test_diff_table_sorted_by_delta_magnitude(self):
        before = self._report("core_storms", "pure", 3.0, 1.0)
        after = self._report("core_storms", "compiled", 1.0, 0.9)
        out = profile.compare_reports(before, after)
        assert "[pure]" in out and "[compiled]" in out
        # kernel moved by 2.0s, network by 0.1s: kernel row first.
        kernel_at = out.index("kernel")
        network_at = out.index("network")
        assert kernel_at < network_at
        assert "-2.000" in out

    def test_subsystem_missing_on_one_side_defaults_to_zero(self):
        before = self._report("a", "pure", 2.0, 1.0)
        after = self._report("b", "pure", 2.0, 1.0)
        del after["subsystems"]["network"]
        out = profile.compare_reports(before, after)
        assert "network" in out
        assert "-1.000" in out

    def test_build_block_optional(self):
        before = self._report("a", "pure", 2.0, 1.0)
        del before["build"]
        out = profile.compare_reports(before, self._report("b", "pure", 2.0, 1.0))
        assert "a" in out and "b" in out


class TestProfileRun:
    def test_kernel_storm_attributes_to_kernel(self):
        report = profile.profile_run(lambda: timer_storm(8, 40), "storm")
        assert report.label == "storm"
        assert report.total_tottime > 0
        # A pure timer workload must charge the kernel more than any
        # other repo subsystem.
        kernel = report.subsystems["kernel"]["tottime"]
        for name, row in report.subsystems.items():
            if name not in ("kernel", "builtin"):
                assert row["tottime"] <= kernel

    def test_shares_sum_to_one(self):
        report = profile.profile_run(lambda: timer_storm(4, 20), "storm")
        total_share = sum(r["share"] for r in report.subsystems.values())
        assert abs(total_share - 1.0) < 1e-9

    def test_subsystems_sorted_by_self_time(self):
        report = profile.profile_run(lambda: timer_storm(4, 20), "storm")
        times = [r["tottime"] for r in report.subsystems.values()]
        assert times == sorted(times, reverse=True)

    def test_top_functions_tagged_and_bounded(self):
        report = profile.profile_run(lambda: timer_storm(4, 20), "storm", top=5)
        assert 0 < len(report.top_functions) <= 5
        for row in report.top_functions:
            assert set(row) == {"tottime", "calls", "subsystem", "where"}

    def test_workload_exception_still_disables_profiler(self):
        import pytest

        with pytest.raises(RuntimeError):
            profile.profile_run(self._boom, "boom")
        # Profiling again must work (the first profiler was disabled).
        assert profile.profile_run(lambda: timer_storm(2, 5), "ok").total_tottime > 0

    @staticmethod
    def _boom():
        raise RuntimeError("workload failed")


class TestArtifacts:
    def test_dump_writes_json_and_pstats(self, tmp_path):
        import pstats

        report = profile.profile_run(lambda: timer_storm(4, 20), "storm")
        json_path, pstats_path = report.dump(str(tmp_path))
        with open(json_path, encoding="utf-8") as fh:
            data = json.load(fh)
        assert data["label"] == "storm"
        assert data["subsystems"]["kernel"]["tottime"] > 0
        # The pstats artifact must round-trip through the stdlib reader.
        loaded = pstats.Stats(pstats_path)
        assert loaded.stats

    def test_table_lists_every_subsystem(self):
        report = profile.profile_run(lambda: timer_storm(4, 20), "storm")
        table = report.table()
        for name in report.subsystems:
            assert name in table
