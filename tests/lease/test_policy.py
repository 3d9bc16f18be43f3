"""Tests for term policies."""

import math

import pytest

from repro.analytic import v_params
from repro.lease import (
    AdaptiveTermPolicy,
    DatumStats,
    DistanceCompensatingPolicy,
    FixedTermPolicy,
    InfiniteTermPolicy,
    PerClassPolicy,
    ZeroTermPolicy,
)
from repro.lease.policy import longest_finite_term, reads_stats
from repro.types import DatumId, FileClass

F = DatumId.file("f1")


class TestFixed:
    def test_returns_configured_term(self):
        assert FixedTermPolicy(10.0).term(F, "c0", 0.0) == 10.0

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            FixedTermPolicy(-1.0)

    def test_zero_policy(self):
        assert ZeroTermPolicy().term(F, "c0", 0.0) == 0.0

    def test_infinite_policy(self):
        assert math.isinf(InfiniteTermPolicy().term(F, "c0", 0.0))


class TestPerClass:
    def test_routes_by_class(self):
        policy = PerClassPolicy(
            default=FixedTermPolicy(10.0),
            by_class={
                FileClass.WRITE_SHARED: ZeroTermPolicy(),
                FileClass.INSTALLED: FixedTermPolicy(60.0),
            },
        )
        assert policy.term(F, "c0", 0.0, file_class=FileClass.NORMAL) == 10.0
        assert policy.term(F, "c0", 0.0, file_class=FileClass.WRITE_SHARED) == 0.0
        assert policy.term(F, "c0", 0.0, file_class=FileClass.INSTALLED) == 60.0

    def test_unmapped_class_uses_default(self):
        policy = PerClassPolicy(default=FixedTermPolicy(7.0))
        assert policy.term(F, "c0", 0.0, file_class=FileClass.TEMPORARY) == 7.0


class TestDistanceCompensating:
    def test_adds_overhead_and_epsilon(self):
        policy = DistanceCompensatingPolicy(
            FixedTermPolicy(10.0), overhead_of={"far": 0.05}, epsilon=0.1
        )
        assert policy.term(F, "far", 0.0) == pytest.approx(10.15)

    def test_unknown_client_gets_epsilon_only(self):
        policy = DistanceCompensatingPolicy(
            FixedTermPolicy(10.0), overhead_of={}, epsilon=0.1
        )
        assert policy.term(F, "c0", 0.0) == pytest.approx(10.1)

    def test_zero_stays_zero(self):
        """A tiny positive term is worse than zero (paper §3.1)."""
        policy = DistanceCompensatingPolicy(
            ZeroTermPolicy(), overhead_of={"far": 0.05}, epsilon=0.1
        )
        assert policy.term(F, "far", 0.0) == 0.0

    def test_infinite_stays_infinite(self):
        policy = DistanceCompensatingPolicy(
            InfiniteTermPolicy(), overhead_of={}, epsilon=0.1
        )
        assert math.isinf(policy.term(F, "c0", 0.0))


class TestAdaptive:
    def make_stats(self, reads_per_s, writes_per_s, sharing, now=1000.0, span=600.0):
        stats = DatumStats()
        stats.sharing = sharing
        # Feed steady streams so the estimators converge.
        t = now - span
        while t < now:
            stats.reads.record(t, reads_per_s * 1.0)
            stats.writes.record(t, writes_per_s * 1.0)
            t += 1.0
        return stats

    def test_default_term_without_stats(self):
        policy = AdaptiveTermPolicy(v_params(), default_term=10.0)
        assert policy.term(F, "c0", 0.0, stats=None) == 10.0

    def test_read_mostly_datum_gets_positive_term(self):
        policy = AdaptiveTermPolicy(v_params())
        stats = self.make_stats(reads_per_s=1.0, writes_per_s=0.01, sharing=2)
        term = policy.term(F, "c0", 1000.0, stats=stats)
        assert policy.min_term <= term <= policy.max_term

    def test_write_shared_datum_gets_zero(self):
        """alpha <= 1: leasing cannot win, so term should be zero."""
        policy = AdaptiveTermPolicy(v_params())
        stats = self.make_stats(reads_per_s=0.2, writes_per_s=2.0, sharing=20)
        assert policy.term(F, "c0", 1000.0, stats=stats) == 0.0

    def test_unread_datum_gets_zero(self):
        policy = AdaptiveTermPolicy(v_params())
        stats = DatumStats()
        stats.writes.record(1000.0)
        assert policy.term(F, "c0", 1000.0, stats=stats) == 0.0

    def test_term_clamped_to_max(self):
        policy = AdaptiveTermPolicy(v_params(), max_term=5.0)
        stats = self.make_stats(reads_per_s=0.01, writes_per_s=0.0001, sharing=1)
        assert policy.term(F, "c0", 1000.0, stats=stats) <= 5.0

    def test_higher_read_rate_gives_shorter_term(self):
        """More reads amortize the extension faster: the knee moves left."""
        policy = AdaptiveTermPolicy(v_params(), min_term=0.0, max_term=1e9)
        slow = self.make_stats(reads_per_s=0.1, writes_per_s=0.001, sharing=1)
        fast = self.make_stats(reads_per_s=10.0, writes_per_s=0.001, sharing=1)
        t_slow = policy.term(F, "c0", 1000.0, stats=slow)
        t_fast = policy.term(F, "c0", 1000.0, stats=fast)
        assert t_fast < t_slow

    def test_validation(self):
        with pytest.raises(ValueError):
            AdaptiveTermPolicy(v_params(), target_reduction=1.0)
        with pytest.raises(ValueError):
            AdaptiveTermPolicy(v_params(), min_term=5.0, max_term=1.0)


class TestLongestTerm:
    """Every policy states an upper bound on what it grants: the replica
    handoff wait-out is sized by it, so a low answer is unsafe."""

    def test_fixed_policy_exposes_seconds(self):
        assert FixedTermPolicy(7.5).longest_term() == 7.5
        assert longest_finite_term(FixedTermPolicy(7.5)) == 7.5
        assert longest_finite_term(ZeroTermPolicy()) == 0.0

    def test_distance_compensation_pads_the_bound(self):
        policy = DistanceCompensatingPolicy(FixedTermPolicy(10), {"c0": 5.0}, 0.1)
        assert policy.term(F, "c0", 0.0) == pytest.approx(15.1)
        assert longest_finite_term(policy) == pytest.approx(15.1)
        # zero and infinite inner terms pass through unpadded, as term() does
        assert DistanceCompensatingPolicy(ZeroTermPolicy(), {"c0": 5.0}, 0.1).longest_term() == 0
        assert math.isinf(
            DistanceCompensatingPolicy(InfiniteTermPolicy(), {}, 0.1).longest_term()
        )

    def test_per_class_takes_the_longest_sub_policy(self):
        assert longest_finite_term(PerClassPolicy(FixedTermPolicy(30))) == 30
        policy = PerClassPolicy(
            FixedTermPolicy(10.0), {FileClass.INSTALLED: FixedTermPolicy(120.0)}
        )
        assert longest_finite_term(policy) == 120.0

    def test_adaptive_bound_covers_clamp_and_default(self):
        assert AdaptiveTermPolicy(v_params(), max_term=30.0).longest_term() == 30.0
        assert (
            AdaptiveTermPolicy(v_params(), max_term=5.0, default_term=10.0).longest_term()
            == 10.0
        )

    def test_infinite_policy_has_no_finite_bound(self):
        assert math.isinf(InfiniteTermPolicy().longest_term())
        with pytest.raises(ValueError, match="finite"):
            longest_finite_term(InfiniteTermPolicy())
        with pytest.raises(ValueError, match="finite"):
            longest_finite_term(
                PerClassPolicy(FixedTermPolicy(5), {FileClass.INSTALLED: InfiniteTermPolicy()})
            )

    def test_opaque_policy_is_rejected(self):
        class Weird:
            def term(self, *args, **kwargs):
                return 3.0

        with pytest.raises(ValueError, match="longest_term"):
            longest_finite_term(Weird())


class TestReadsStats:
    """A server keeps per-datum statistics only for a policy that reads
    them (``ServerEngine`` asks :func:`reads_stats`)."""

    def test_the_adaptive_policy_and_wrappers_around_it_read_them(self):
        adaptive = AdaptiveTermPolicy(v_params())
        assert reads_stats(adaptive)
        assert reads_stats(
            PerClassPolicy(FixedTermPolicy(5), {FileClass.TEMPORARY: adaptive})
        )
        assert reads_stats(DistanceCompensatingPolicy(adaptive, {}, epsilon=0.1))

    def test_fixed_terms_and_wrappers_around_them_do_not(self):
        for policy in (
            FixedTermPolicy(5),
            ZeroTermPolicy(),
            InfiniteTermPolicy(),
            PerClassPolicy(FixedTermPolicy(5), {FileClass.INSTALLED: InfiniteTermPolicy()}),
            DistanceCompensatingPolicy(FixedTermPolicy(5), {}, epsilon=0.1),
        ):
            assert not reads_stats(policy), policy

    def test_a_policy_that_does_not_say_is_assumed_to(self):
        class Opaque:
            def term(self, *args, **kwargs):
                return 3.0

        assert reads_stats(Opaque())
