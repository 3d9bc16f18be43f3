"""Smoke test of the benchmark itself: ``--quick`` runs of every workload.

    PYTHONPATH=src python -m pytest benchmarks/stack -q

Outside tier-1's ``testpaths``, so tier-1 time is unchanged.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

sys.path.insert(0, str(HERE))


def quick_run(workload: str, trace: int, root: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [
            sys.executable, str(root / "benchmarks" / "stack" / "run.py"),
            "--workload", workload, "--quick", "--trace", str(trace),
        ],
        cwd=root, capture_output=True, text=True, timeout=170,
    )


def check_output(workload: str, trace: int) -> dict:
    """Every declared metric printed once with its unit; every check passes."""
    done = quick_run(workload, trace)
    assert done.returncode == 0, done.stdout + done.stderr
    lines = done.stdout.splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == declared
    for name, unit in declared.items():
        printed = [line for line in lines if line.startswith(f"{workload}/{name} = ")]
        assert len(printed) == 1 and printed[0].endswith(f" {unit}"), (name, printed)
    assert not [line for line in lines if "FAILED" in line]
    return result


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics(workload):
    result = check_output(workload, trace=0)
    # The contract asks for end-to-end metrics that are never 0.
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_per_layer_metrics_and_trace(workload):
    check_output(workload, trace=1)
    trace = json.loads((HERE / "out" / f"trace-{workload}.json").read_text(encoding="utf-8"))
    assert trace["meta"]["workload"] == workload
    spans = trace["spans"]
    n = len(spans["name"])
    assert n > 0 and all(len(column) == n for column in spans.values())
    for sid in range(n):
        assert 0 <= spans["name"][sid] < len(trace["names"])
        assert spans["end_ns"][sid] >= spans["start_ns"][sid] >= 0
        # A span's parent and op exist, and began before it did.
        assert -1 <= spans["parent"][sid] < sid
        assert -1 <= spans["op"][sid] <= sid
        op = spans["op"][sid]
        assert op == -1 or trace["names"][spans["name"][op]] == "op"


def test_checker_rejects_what_leases_forbid():
    from workloads import Checker

    checker = Checker([(1, b"init")])
    checker.read(0, (1, b"init"), floor=1)
    checker.write(0, b"new", 2, floor=1)
    checker.read(0, (2, b"new"), floor=2)
    assert (checker.attempted, checker.failed) == (3, 0)
    checker.read(0, (1, b"init"), floor=2)  # older than a completed op saw
    checker.read(0, (2, b"other"), floor=2)  # not the bytes version 2 holds
    checker.write(0, b"again", 2, floor=2)  # a write that did not advance
    checker.read(0, (3, b"ahead"), floor=2)  # version nobody ever wrote
    checker.settle()
    assert (checker.attempted, checker.failed) == (7, 4)


def test_refuses_to_run_without_the_stack(tmp_path):
    """Only BENCHMARK.json and the benchmark's own files: non-zero, no result."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        HERE, tmp_path / "benchmarks" / "stack",
        ignore=shutil.ignore_patterns("out", "__pycache__"),
    )
    done = quick_run("hot_read", 0, root=tmp_path)
    assert done.returncode != 0
    assert not done.stdout.strip()
