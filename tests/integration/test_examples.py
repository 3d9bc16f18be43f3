"""Every example runs: the README and DESIGN send readers to them."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[2]

#: Simulated-time examples, run here.
SIMULATED = [
    "document_production",
    "fault_tolerance_demo",
    "leader_election",
    "protocol_comparison",
    "quickstart",
    "wan_lease_tuning",
    "write_back_editor",
]

#: Real-socket examples, run by the CI ``runtime-debug`` job under
#: asyncio debug mode.
REAL_SOCKET = ["asyncio_cluster", "chaos_tcp"]


@pytest.mark.parametrize("name", SIMULATED)
def test_example_runs_clean(name):
    env = dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src"))
    result = subprocess.run(
        [sys.executable, "-W", "error::ResourceWarning", f"examples/{name}.py"],
        capture_output=True, text=True, timeout=60, env=env, cwd=REPO_ROOT,
    )
    assert result.returncode == 0, result.stderr
    assert result.stderr == ""


def test_no_example_is_unrun():
    on_disk = sorted(p.stem for p in (REPO_ROOT / "examples").glob("*.py"))
    assert sorted(SIMULATED + REAL_SOCKET) == on_disk
