"""The experiment harness entry point runs end to end (subprocess) and
rejects a bad argument before it prints anything."""

import subprocess
import sys

import pytest

from repro.experiments.__main__ import main as experiments_main


class TestHarnessEntry:
    def test_quick_run_produces_all_artifacts(self):
        result = subprocess.run(
            [sys.executable, "-m", "repro.experiments", "--quick"],
            capture_output=True,
            text=True,
            timeout=600,
        )
        assert result.returncode == 0, result.stderr[-2000:]
        out = result.stdout
        assert "Table 2" in out
        assert "Figure 1" in out
        assert "Figure 2" in out
        assert "Figure 3" in out
        assert "Headline claims" in out
        assert "Scaling analysis" in out
        assert "FAIL" not in out  # every claim passes

    def test_bad_workers_spec_exits_2_before_any_output(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            experiments_main(["--quick", "--workers", "lots"])
        assert excinfo.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--workers" in captured.err

    def test_baselines_entry(self):
        result = subprocess.run(
            [sys.executable, "-m", "repro.baselines"],
            capture_output=True,
            text=True,
            timeout=600,
        )
        assert result.returncode == 0, result.stderr[-2000:]
        assert "Protocol comparison" in result.stdout
        assert "leases (10 s)" in result.stdout
