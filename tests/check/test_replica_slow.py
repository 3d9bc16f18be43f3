"""Long replicated-authority sweeps (tier-2: run with ``pytest -m slow``).

The ISSUE 10 acceptance sweep: 100 generated scenarios against a
3-replica PaxosLease authority with the full fault grammar on — crash
and restart windows, partitions, loss, and the §5 clock-fault taxonomy.
No scenario may fail an invariant; oracle violations are admissible only
where the schedule carries a dangerous clock fault (``may_violate``).
"""

import dataclasses

import pytest

from repro.check import Explorer, GeneratorConfig

pytestmark = pytest.mark.slow


def replicated_config(**overrides) -> GeneratorConfig:
    base = GeneratorConfig.smoke(clock_faults=True)
    return dataclasses.replace(base, replicas=3, **overrides)


def test_hundred_seed_replicated_sweep_has_no_failures():
    """Zero invariant failures over 100 seeds while a majority survives
    every crash window (the grammar crashes at most one replica of 3 per
    fault, so the group always retains a quorum)."""
    report = Explorer(base_seed=0, config=replicated_config(), shrink=False).explore(
        100
    )
    assert report.failed == 0, report.verdicts


def test_replicated_sweep_is_deterministic():
    config = replicated_config()
    a = Explorer(base_seed=3, config=config, shrink=False).explore(20)
    b = Explorer(base_seed=3, config=config, shrink=False).explore(20)
    assert a.verdicts == b.verdicts


def test_sharded_replicated_sweep_is_clean():
    config = dataclasses.replace(replicated_config(), shards=2)
    report = Explorer(base_seed=1, config=config, shrink=False).explore(25)
    assert report.failed == 0, report.verdicts


@pytest.mark.parametrize("base_seed, index", [(112, 70), (207, 24), (210, 72)])
def test_sub_ulp_timer_remainders_do_not_livelock(base_seed, index):
    """These runs never ended while the simulator could schedule a
    positive timer delay at the current instant: after a backward clock
    step a replica's ``master:check`` (112/70) or a gate's inner
    ``write:`` timer (207/24, 210/72) re-armed a remainder too small for
    the kernel's clock, fired at the same instant, and re-armed again."""
    outcome = Explorer(base_seed=base_seed, config=replicated_config(), shrink=False).run_index(
        index
    )
    assert outcome.result.ok, outcome.result.failure_kinds


@pytest.mark.parametrize("base_seed, index", [(208, 49), (210, 83), (214, 69)])
def test_a_backward_clock_step_does_not_reopen_recovery(base_seed, index):
    """These runs stranded a write: a replica's inner server boots with a
    recovery window that is already closed, and its clock then stepped
    back past that instant (in 208/49, r0 by 2.58 s at t = 1.48).  The
    window reopened, the write was queued for a ``recovery`` timer never
    armed, and every retransmission was swallowed as a duplicate."""
    outcome = Explorer(base_seed=base_seed, config=replicated_config(), shrink=False).run_index(
        index
    )
    assert outcome.result.ok, outcome.result.failure_kinds
