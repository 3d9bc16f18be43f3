"""ordered_map: deterministic merge, warm reuse, failures, teardown."""

import multiprocessing
import os
import signal
import subprocess
import sys
import time
from concurrent.futures.process import BrokenProcessPool

import pytest

from repro.parallel import SweepJobError, ordered_map, resolve_workers


def square(x):
    """Trivial pure job."""
    return x * x


def slow_pid(x):
    """Returns the worker's pid after a short beat (forces interleaving)."""
    time.sleep(0.005)
    return os.getpid()


def kill_self_always(x):
    """SIGKILL the worker every time the poison item is attempted."""
    if x == 3:
        os.kill(os.getpid(), signal.SIGKILL)
    return x


def interrupt_self(x):
    """A Ctrl-C delivered to the worker in the middle of its job."""
    os.kill(os.getpid(), signal.SIGINT)
    time.sleep(0.01)
    return x


def raise_on_seven(x):
    """Raise inside the worker for item 7."""
    if x == 7:
        raise ValueError("job 7 exploded")
    return x


@pytest.fixture(autouse=True)
def no_leftover_children():
    """Fails the test if it leaves a child process running."""
    before = set(multiprocessing.active_children())
    yield
    assert set(multiprocessing.active_children()) <= before


class TestResolveWorkers:
    def test_auto_and_none_and_zero_mean_cpu_count(self):
        assert resolve_workers("auto") >= 1
        assert resolve_workers(None) == resolve_workers("auto")
        assert resolve_workers(0) == resolve_workers("auto")

    def test_auto_counts_only_cpus_this_process_may_use(self, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: 4)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        assert resolve_workers("auto") == 1

    def test_numeric_specs(self):
        assert resolve_workers(3) == 3
        assert resolve_workers("4") == 4

    def test_rejects_garbage(self):
        with pytest.raises(ValueError):
            resolve_workers("lots")
        with pytest.raises(ValueError):
            resolve_workers(-2)


class TestDeterministicMerge:
    def test_map_matches_serial_for_any_worker_count(self):
        expected = [square(i) for i in range(40)]
        for workers in (1, 2, 5):
            assert list(ordered_map(square, range(40), workers)) == expected

    def test_imap_streams_in_index_order(self):
        seen = []
        for value in ordered_map(square, range(17), 3):
            seen.append(value)
        assert seen == [square(i) for i in range(17)]

    def test_empty_input(self):
        assert list(ordered_map(square, [], 2)) == []


class TestWarmReuse:
    def test_workers_persist_across_chunks(self):
        # 16 jobs in 8 chunks ran on at most 2 resident processes.
        pids = set(ordered_map(slow_pid, range(16), 2))
        assert len(pids) <= 2
        assert os.getpid() not in pids


class TestCrashIsolation:
    def test_retry_budget_is_bounded(self):
        """The budget is zero: the first dead worker fails the sweep."""
        start = time.monotonic()
        with pytest.raises(BrokenProcessPool, match=r"before job \d+ finished"):
            list(ordered_map(kill_self_always, range(10), 2))
        assert time.monotonic() - start < 30

    def test_job_exception_reraised_at_its_index(self):
        seen = []
        with pytest.raises(SweepJobError) as excinfo:
            for value in ordered_map(raise_on_seven, range(12), 2):
                seen.append(value)
        assert excinfo.value.index == 7
        assert seen == list(range(7))
        assert "job 7 exploded" in str(excinfo.value)


class TestLifecycle:
    def test_context_exit_leaves_no_children(self):
        assert list(ordered_map(square, range(10), 3)) == [square(i) for i in range(10)]

    def test_workers_ignore_sigint(self):
        try:
            out = list(ordered_map(interrupt_self, range(8), 2))
        except KeyboardInterrupt:
            pytest.fail("a worker took SIGINT instead of leaving it to the parent")
        assert out == list(range(8))

    def test_error_inside_block_forces_teardown(self):
        with pytest.raises(RuntimeError, match="consumer bug"):
            for _ in ordered_map(square, range(400), 2):
                raise RuntimeError("consumer bug")


def test_import_repro_check_loads_no_multiprocessing():
    """Every benchmark process imports ``repro.check``; only a parallel
    sweep may pay for the multiprocessing modules."""
    loaded = subprocess.run(
        [sys.executable, "-c", "import sys, repro.check; print(*sorted(sys.modules))"],
        capture_output=True, text=True, check=True,
    ).stdout.split()
    assert "repro.parallel" in loaded
    assert "multiprocessing" not in loaded
    assert "concurrent.futures.process" not in loaded
