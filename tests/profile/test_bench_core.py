"""Tests for the two storms ``benchmarks/stack`` times."""

from repro.profile import core


class TestWorkloads:
    def test_storms_are_deterministic(self):
        assert core.timer_storm(8, 50) == core.timer_storm(8, 50)
        assert core.ping_storm(4, 30) == core.ping_storm(4, 30)

    def test_storm_event_count_is_pinned(self):
        """The storms are fixed work: ``benchmarks/stack`` divides this
        count by wall time, so a kernel or network change that alters it
        changed semantics, not speed."""
        assert core.timer_storm() + core.ping_storm() == 83504
