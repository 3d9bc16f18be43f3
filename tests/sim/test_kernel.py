"""Unit and property tests for the discrete-event kernel."""

import heapq
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SimulationError
from repro.sim.kernel import Kernel


class TestScheduling:
    def test_time_starts_at_zero(self):
        assert Kernel().now == 0.0

    def test_events_fire_in_time_order(self):
        kernel = Kernel()
        fired = []
        kernel.schedule(3.0, fired.append, "c")
        kernel.schedule(1.0, fired.append, "a")
        kernel.schedule(2.0, fired.append, "b")
        kernel.run()
        assert fired == ["a", "b", "c"]

    def test_same_time_events_fire_in_schedule_order(self):
        kernel = Kernel()
        fired = []
        for tag in "abcde":
            kernel.schedule(1.0, fired.append, tag)
        kernel.run()
        assert fired == list("abcde")

    def test_now_advances_to_event_time(self):
        kernel = Kernel()
        seen = []
        kernel.schedule(2.5, lambda: seen.append(kernel.now))
        kernel.run()
        assert seen == [2.5]
        assert kernel.now == 2.5

    def test_events_can_schedule_events(self):
        kernel = Kernel()
        fired = []

        def first():
            fired.append(("first", kernel.now))
            kernel.schedule(1.0, second)

        def second():
            fired.append(("second", kernel.now))

        kernel.schedule(1.0, first)
        kernel.run()
        assert fired == [("first", 1.0), ("second", 2.0)]

    def test_schedule_rejects_negative_delay(self):
        with pytest.raises(SimulationError):
            Kernel().schedule(-1.0, lambda: None)

    def test_schedule_at_rejects_past(self):
        kernel = Kernel()
        kernel.schedule(5.0, lambda: None)
        kernel.run()
        with pytest.raises(SimulationError):
            kernel.schedule_at(4.0, lambda: None)

    def test_zero_delay_runs_after_current_event(self):
        kernel = Kernel()
        fired = []
        kernel.schedule(1.0, lambda: (fired.append("a"), kernel.schedule(0.0, fired.append, "b")))
        kernel.schedule(1.0, fired.append, "c")
        kernel.run()
        assert fired[0] == "a"
        assert set(fired) == {"a", "b", "c"}
        # zero-delay event at t=1 scheduled during the first event runs after
        # the already-queued same-time event
        assert fired == ["a", "c", "b"]


class TestCancellation:
    def test_cancelled_event_does_not_fire(self):
        kernel = Kernel()
        fired = []
        handle = kernel.schedule(1.0, fired.append, "x")
        handle.cancel()
        kernel.run()
        assert fired == []

    def test_cancel_is_idempotent(self):
        kernel = Kernel()
        handle = kernel.schedule(1.0, lambda: None)
        handle.cancel()
        handle.cancel()
        kernel.run()

    def test_pending_excludes_cancelled(self):
        kernel = Kernel()
        keep = kernel.schedule(1.0, lambda: None)
        drop = kernel.schedule(2.0, lambda: None)
        drop.cancel()
        assert kernel.pending() == 1
        assert not keep.cancelled


class TestCompaction:
    """Regression tests: lazy cancellation must not leak heap entries.

    Before compaction existed, every cancelled handle sat in the heap
    until popped, so timer-churn workloads (arm + cancel per lease
    renewal) grew the heap without bound and ``pending()`` was O(heap).
    """

    def test_timer_churn_keeps_heap_bounded(self):
        kernel = Kernel()
        keepers = [kernel.schedule(1000.0 + i, lambda: None) for i in range(10)]
        for i in range(10_000):
            kernel.schedule(1.0 + i * 1e-4, lambda: None).cancel()
        # dead weight may never exceed the live count (plus the fixed floor)
        assert kernel._size() <= 2 * kernel.pending() + 64
        assert kernel.pending() == len(keepers)
        kernel.run()
        assert kernel._size() == 0

    def test_pending_is_maintained_incrementally(self):
        kernel = Kernel()
        handles = [kernel.schedule(float(i + 1), lambda: None) for i in range(100)]
        assert kernel.pending() == 100
        for h in handles[:40]:
            h.cancel()
        assert kernel.pending() == 60
        kernel.run()
        assert kernel.pending() == 0

    def test_compaction_preserves_firing_order(self):
        kernel = Kernel()
        fired = []
        for i in range(50):
            kernel.schedule(100.0 + i, fired.append, i)
        for _ in range(200):  # force at least one compaction
            kernel.schedule(1.0, lambda: None).cancel()
        kernel.run()
        assert fired == list(range(50))

    def test_cancel_after_fire_does_not_corrupt_counts(self):
        kernel = Kernel()
        handle = kernel.schedule(1.0, lambda: None)
        kernel.run()
        handle.cancel()  # too late: already popped and executed
        assert kernel.pending() == 0
        assert kernel._cancelled == 0

    def test_compaction_emits_kernel_event(self):
        from repro.obs import TraceBus

        bus = TraceBus(capacity=None)
        kernel = Kernel(obs=bus)
        kernel.schedule(1000.0, lambda: None)
        for _ in range(200):
            kernel.schedule(1.0, lambda: None).cancel()
        compactions = bus.events("kernel.compact")
        assert compactions
        assert all(e["removed"] > 0 for e in compactions)


class TestRunUntil:
    def test_run_until_stops_before_later_events(self):
        kernel = Kernel()
        fired = []
        kernel.schedule(1.0, fired.append, "a")
        kernel.schedule(10.0, fired.append, "b")
        kernel.run(until=5.0)
        assert fired == ["a"]
        assert kernel.now == 5.0

    def test_run_until_includes_boundary_event(self):
        kernel = Kernel()
        fired = []
        kernel.schedule(5.0, fired.append, "edge")
        kernel.run(until=5.0)
        assert fired == ["edge"]

    def test_run_until_advances_time_with_no_events(self):
        kernel = Kernel()
        kernel.run(until=42.0)
        assert kernel.now == 42.0

    def test_resume_after_run_until(self):
        kernel = Kernel()
        fired = []
        kernel.schedule(10.0, fired.append, "late")
        kernel.run(until=5.0)
        kernel.run()
        assert fired == ["late"]
        assert kernel.now == 10.0


class TestStep:
    def test_step_runs_one_event(self):
        kernel = Kernel()
        fired = []
        kernel.schedule(1.0, fired.append, "a")
        kernel.schedule(2.0, fired.append, "b")
        assert kernel.step()
        assert fired == ["a"]

    def test_step_returns_false_when_empty(self):
        assert not Kernel().step()

    def test_step_skips_cancelled(self):
        kernel = Kernel()
        fired = []
        kernel.schedule(1.0, fired.append, "a").cancel()
        kernel.schedule(2.0, fired.append, "b")
        assert kernel.step()
        assert fired == ["b"]


class TestDeterminism:
    def test_rng_is_seeded(self):
        a = [Kernel(seed=7).rng.random() for _ in range(3)]
        b = [Kernel(seed=7).rng.random() for _ in range(3)]
        assert a == b

    def test_different_seeds_differ(self):
        assert Kernel(seed=1).rng.random() != Kernel(seed=2).rng.random()

    @given(st.lists(st.floats(0, 100), min_size=1, max_size=50))
    def test_events_always_fire_in_nondecreasing_time(self, delays):
        """Property: observed firing times are sorted regardless of schedule order."""
        kernel = Kernel()
        times = []
        for d in delays:
            kernel.schedule(d, lambda: times.append(kernel.now))
        kernel.run()
        assert times == sorted(times)
        assert len(times) == len(delays)


class TestExecutedCounter:
    def test_counts_fired_events(self):
        kernel = Kernel()
        for d in (1.0, 2.0, 3.0):
            kernel.schedule(d, lambda: None)
        kernel.run()
        assert kernel.executed == 3

    def test_cancelled_events_are_not_counted(self):
        kernel = Kernel()
        kernel.schedule(1.0, lambda: None)
        kernel.schedule(2.0, lambda: None).cancel()
        kernel.run()
        assert kernel.executed == 1

    def test_step_increments_by_one(self):
        kernel = Kernel()
        kernel.schedule(1.0, lambda: None)
        kernel.schedule(2.0, lambda: None)
        assert kernel.step()
        assert kernel.executed == 1
        assert kernel.step()
        assert kernel.executed == 2


class TestRejectsNaN:
    """NaN compares false with everything: it used to slip past the
    past-time checks, fire out of order and leave ``now == nan`` for good
    (after which every later past-time check passed vacuously)."""

    @pytest.mark.parametrize(
        "entry",
        [
            lambda k, fn: k.schedule(float("nan"), fn),
            lambda k, fn: k.schedule_at(float("nan"), fn),
            lambda k, fn: k.post_args(float("nan"), fn, ()),
            lambda k, fn: k.defer_args(float("nan"), fn, ()),
        ],
        ids=["schedule", "schedule_at", "post_args", "defer_args"],
    )
    def test_nan_deadline_is_rejected(self, entry):
        kernel = Kernel()
        fired = []
        kernel.schedule(1.0, fired.append, "a")
        with pytest.raises(SimulationError):
            entry(kernel, lambda: fired.append("nan"))
        kernel.run(until=5.0)
        assert fired == ["a"]
        assert kernel.now == 5.0
        assert kernel.pending() == 0


class ReferenceKernel:
    """The kernel's executable specification: one heap, strict
    ``(time, seq)`` order, lazy cancellation, and ``defer_args`` is
    nothing but ``post_args``.  Everything else in ``repro.sim.kernel``
    (O(1) live counts, compaction, handle-less entries, inline execution
    and the cancelled heads its quiet check pops) is an optimization that
    must not show."""

    class Handle:
        cancelled = False

        def cancel(self):
            self.cancelled = True

    def __init__(self):
        self.now = 0.0
        self.executed = 0
        self._heap = []
        self._seq = 0

    def schedule_at(self, time, fn, *args):
        handle = self.Handle()
        heapq.heappush(self._heap, (time, self._seq, handle, fn, args))
        self._seq += 1
        return handle

    def schedule(self, delay, fn, *args):
        return self.schedule_at(self.now + delay, fn, *args)

    def post_args(self, time, fn, args):
        self.schedule_at(time, fn, *args)

    defer_args = post_args

    def pending(self):
        return sum(not entry[2].cancelled for entry in self._heap)

    def step(self, until=None):
        heap = self._heap
        while heap and heap[0][2].cancelled:
            heapq.heappop(heap)
        if not heap or (until is not None and heap[0][0] > until):
            return False
        self.now, _, _, fn, args = heapq.heappop(heap)
        self.executed += 1
        fn(*args)
        return True

    def run(self, until=None):
        while self.step(until):
            pass
        if until is not None and until > self.now:
            self.now = until


#: Delays the generated programs draw from.  Repeats and zeros make
#: same-instant ties common (where ``(time, seq)`` order and the inline
#: ``head.time > time`` test are decided); the spread runs from
#: sub-millisecond to a lease term; the tail is deadlines of 2**40 s and
#: beyond, and ``inf``, which must still order strictly by ``seq``.
_DELAYS = (
    0.0, 0.0, 0.0, 0.01, 0.01, 0.02, 0.05, 0.05, 0.1, 0.3, 1.0, 1.0, 2.5, 7.0,
    30.0, float(2**40), float(2**40), float(2**41) + 3.0, float("inf"),
)
#: Delays of a *storm* program: a long, cancel-free run of near-term
#: events, hundreds consumed while more are inserted just ahead of them —
#: the ping-pong shape of a fault-free network, where most ``defer_args``
#: calls run inline.
_STORM_DELAYS = (0.0, 0.0, 1e-4, 1e-4, 2e-4, 5e-4, 0.06, float(2**40))


class Program:
    """One seeded program, run against one kernel.

    Every decision comes from ``random.Random(seed)`` in firing order, so
    two kernels that fire the same events in the same order execute the
    same program — and the first divergence shows in :attr:`log`.
    """

    def __init__(self, kernel, seed):
        self.kernel = kernel
        self.rng = rng = random.Random(seed)
        self.storm = rng.random() < 0.1
        self.delays = _STORM_DELAYS if self.storm else _DELAYS
        self.budget = rng.randint(600, 1500) if self.storm else rng.randint(20, 120)
        self.handles = []
        self.log = []  # (event id, now, executed, pending) per firing + checkpoints
        self.next_id = 0
        # What the run reached inside the real kernel (stay 0 on the model):
        self.inlined = 0  # defer_args calls that ran their event before returning
        self.pruned = 0  # defer_args calls whose quiet check popped a cancelled head
        self.dead = None  # cancelled-entry count when a defer_args call began
        # What the program scheduled (the same on both kernels):
        self.huge = 0  # deadlines at or beyond 2**40 s, inf included
        self.infinite = 0  # deadlines of inf

    def spawn(self):
        """Schedule one new event through a randomly chosen entry point.
        Returns True after a ``defer_args``: that is a tail call, so the
        caller must do nothing more."""
        kernel, rng = self.kernel, self.rng
        self.budget -= 1
        ident = self.next_id
        self.next_id += 1
        delay = rng.choice(self.delays)
        how = rng.choice(("schedule", "schedule_at", "post_args", "defer_args"))
        deadline = kernel.now + delay
        self.huge += deadline >= 2**40
        self.infinite += deadline == float("inf")
        if how == "schedule":
            self.handles.append(kernel.schedule(delay, self.fire, ident))
        elif how == "schedule_at":
            self.handles.append(kernel.schedule_at(deadline, self.fire, ident))
        elif how == "post_args":
            kernel.post_args(deadline, self.fire, (ident,))
        else:
            fired = len(self.log)
            self.dead = getattr(kernel, "_cancelled", 0)
            kernel.defer_args(deadline, self.fire, (ident,))
            self.quiet_check_done()  # queued (if it ran inline, fire did this)
            self.inlined += len(self.log) > fired
            return True
        return False

    def quiet_check_done(self):
        """A ``defer_args`` call has decided: count whether its quiet check
        popped cancelled heads.  Nothing else can drop the cancelled count
        between the call and its decision — inline ``fire`` or return."""
        if self.dead is not None:
            self.pruned += getattr(self.kernel, "_cancelled", 0) < self.dead
            self.dead = None

    def churn(self):
        """Arm and cancel a burst of timers — enough dead entries that the
        kernel must compact (more than 64, and more than the live ones)."""
        burst = [
            self.kernel.schedule(self.rng.choice(self.delays), self.fire, -1)
            for _ in range(self.rng.randint(70, 160))
        ]
        for handle in burst:
            handle.cancel()

    def act(self):
        """What a callback (or the top level) does: cancel some handles,
        maybe churn, spawn children — stopping at a tail ``defer_args``."""
        rng = self.rng
        if not self.storm:
            for _ in range(rng.choice((0, 0, 1, 2))):
                if self.handles:
                    self.handles.pop(rng.randrange(len(self.handles))).cancel()
            if rng.random() < 0.03:
                self.churn()
        for _ in range(rng.choice((0, 1, 2, 2, 3, 4))):
            if self.budget <= 0 or self.spawn():
                return

    def fire(self, ident):
        kernel = self.kernel
        assert ident >= 0, "a cancelled timer fired"
        self.quiet_check_done()
        self.log.append((ident, kernel.now, kernel.executed, kernel.pending()))
        self.act()

    def checkpoint(self, tag):
        kernel = self.kernel
        self.log.append((tag, kernel.now, kernel.executed, kernel.pending()))

    def execute(self):
        """Top level: schedule from outside ``run`` (where ``defer_args``
        must queue), run to a few horizons with ``step()`` calls and more
        scheduling in between, then drain."""
        rng, kernel = self.rng, self.kernel
        for _ in range(rng.randint(1, 8)):
            self.act()
        self.checkpoint("setup")
        horizon = 0.0
        for _ in range(rng.randint(1, 4)):
            horizon += rng.choice(_DELAYS[:-4])
            kernel.run(until=horizon)
            self.checkpoint("until")
            for _ in range(rng.randint(0, 3)):
                self.log.append(("step", kernel.step()))
            self.act()
            self.checkpoint("between")
        kernel.run()
        self.checkpoint("end")
        return self.log


class TestAgainstReferenceModel:
    """Model-based check of the whole scheduling surface: the same seeded
    programs run on :class:`Kernel` and on :class:`ReferenceKernel` must
    fire the same events in the same order, see the same ``now``,
    ``executed`` and ``pending()`` at every firing, and agree at every
    ``run(until=…)`` / ``step()`` boundary."""

    @staticmethod
    def run_pair(seed):
        """Run program ``seed`` on both; return the real kernel's program
        and how many times that kernel compacted."""
        from repro.obs import TraceBus

        bus = TraceBus(capacity=None)
        real = Program(Kernel(obs=bus), seed)
        model = Program(ReferenceKernel(), seed)
        assert real.execute() == model.execute(), f"diverged at seed {seed}"
        assert real.kernel.pending() == 0 and real.kernel._size() == 0
        return real, len(bus.events("kernel.compact"))

    def check_seeds(self, seeds):
        """Run every seed in ``seeds`` on both kernels, then demand that the
        programs reached the mechanisms they are here to check: inline
        execution, compaction, a quiet check that pops cancelled heads,
        and deadlines of 2**40 s and beyond, ``inf`` included.  The
        thresholds are per 1 000 programs."""
        fired = inlined = compactions = pruned = huge = infinite = 0
        for seed in seeds:
            program, compacted = self.run_pair(seed)
            fired += sum(isinstance(row[0], int) for row in program.log)
            inlined += program.inlined
            compactions += compacted
            pruned += program.pruned
            huge += program.huge
            infinite += program.infinite
        per_1000 = len(seeds) / 1000
        assert fired > 50_000 * per_1000
        assert inlined > 2_000 * per_1000
        assert compactions > 500 * per_1000
        assert pruned > 1_000 * per_1000
        assert huge > 20_000 * per_1000
        assert infinite > 2_000 * per_1000

    def test_seeded_programs_match_reference(self):
        self.check_seeds(range(1000))

    @pytest.mark.slow
    def test_seeded_programs_match_reference_deep(self):
        self.check_seeds(range(1000, 21_000))

    @settings(max_examples=200, deadline=None)
    @given(st.integers(min_value=0, max_value=2**32))
    def test_any_seed_matches_reference(self, seed):
        self.run_pair(seed)
