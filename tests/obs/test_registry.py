"""Unit tests for the metrics registry: named counters."""

import pytest

from repro.obs import Registry


class TestCounter:
    def test_inc_accumulates(self):
        reg = Registry()
        reg.inc("reads")
        reg.inc("reads", 4)
        assert reg.counter("reads").value == 5

    def test_counter_cannot_decrease(self):
        reg = Registry()
        with pytest.raises(ValueError):
            reg.counter("x").inc(-1)

    def test_handles_are_stable(self):
        reg = Registry()
        assert reg.counter("x") is reg.counter("x")


class TestExport:
    def test_snapshot_shape(self):
        reg = Registry()
        reg.inc("c", 2)
        reg.inc("a")
        assert reg.snapshot() == {"counters": {"a": 1, "c": 2}}
