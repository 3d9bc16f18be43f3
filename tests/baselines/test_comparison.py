"""Tests for the head-to-head protocol comparison (§6 in numbers)."""

import pytest

from repro.baselines import ProtocolOutcome, compare_protocols, render

#: ``compare_protocols(seed=0)``, row by row: the comparison moves only by
#: a deliberate re-pin.  Fields: protocol, consistency msgs, mean read
#: latency, stale reads, reads checked, writes completed, writes
#: submitted, mean write latency.
GOLDEN_SEED_0 = [
    ProtocolOutcome(
        "leases (10 s)", 905, 0.017874014633702966, 0, 624, 88, 88, 0.8493646738999133
    ),
    ProtocolOutcome(
        "check-on-use (term 0)", 1244, 0.0854438720213594, 0, 630, 88, 88, 0.797994545454553
    ),
    ProtocolOutcome(
        "callbacks (term inf)", 1350, 0.0007046002956461467, 0, 252, 27, 88, 0.006857777777779241
    ),
    ProtocolOutcome(
        "NFS TTL (10 s)", 168, 0.1200388554350155, 268, 640, 88, 88, 0.797994545454553
    ),
    ProtocolOutcome(
        "DFS locks (min 2 s / hold 10 s)",
        436, 0.0021500583798723175, 158, 624, 88, 88, 0.8000165909091049,
    ),
]


@pytest.fixture(scope="module")
def outcomes():
    return {o.protocol: o for o in compare_protocols(seed=0)}


def test_seed_0_outcomes_are_pinned(outcomes):
    assert list(outcomes.values()) == GOLDEN_SEED_0


class TestGuarantees:
    def test_leases_never_stale(self, outcomes):
        assert outcomes["leases (10 s)"].stale_reads == 0

    def test_check_on_use_never_stale(self, outcomes):
        assert outcomes["check-on-use (term 0)"].stale_reads == 0

    def test_ttl_serves_stale_reads(self, outcomes):
        assert outcomes["NFS TTL (10 s)"].stale_reads > 0

    def test_dfs_locks_serve_stale_reads(self, outcomes):
        assert outcomes["DFS locks (min 2 s / hold 10 s)"].stale_reads > 0


class TestTraffic:
    def test_leases_cheaper_than_check_on_use(self, outcomes):
        assert (
            outcomes["leases (10 s)"].consistency_msgs
            < outcomes["check-on-use (term 0)"].consistency_msgs
        )


class TestAvailability:
    def test_leases_keep_writes_available_under_partition(self, outcomes):
        assert outcomes["leases (10 s)"].write_availability == 1.0

    def test_infinite_term_loses_write_availability(self, outcomes):
        """§6: the callback scheme blocks writers on unreachable clients."""
        assert outcomes["callbacks (term inf)"].write_availability < 0.8

    def test_leases_bound_write_delay_by_the_term(self, outcomes):
        # mean is inflated by the partition window; bound loosely by term
        assert outcomes["leases (10 s)"].mean_write_latency < 11.0


class TestRender:
    def test_render_mentions_all_protocols(self, outcomes):
        text = render(list(outcomes.values()))
        for name in outcomes:
            assert name in text
