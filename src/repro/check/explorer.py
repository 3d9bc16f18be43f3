"""Budgeted scenario exploration with automatic failure minimization.

The :class:`Explorer` is the harness's driver loop: generate scenario
``i``, run it, classify the verdict, and — on an invariant failure —
shrink it to a minimal reproduction, write the repro scenario file, and
capture a full observability trace of the failing run.  Exploration is
deterministic in ``(base_seed, n)``: the same sweep always produces the
same verdicts, which is what lets CI treat "0 failures out of N" as a
regression gate rather than a coin flip.

Observability: when given a trace bus the explorer emits one
``check.run`` event per scenario and a ``check.shrink`` event per
minimization; when given a metrics registry it maintains
``check.scenarios`` / ``check.passed`` / ``check.violations`` /
``check.failed`` / ``check.shrink_runs`` counters.
"""

from __future__ import annotations

import functools
import os
from dataclasses import dataclass, field
from typing import Iterator

from repro.check.generator import GeneratorConfig, ScenarioGenerator, effective_config
from repro.check.runner import RunResult, run_scenario
from repro.check.scenario import Scenario
from repro.check.shrink import ShrinkResult, shrink_scenario, strip_unused
from repro.obs.bus import TraceBus
from repro.obs.events import CHECK_RUN, CHECK_SHRINK
from repro.parallel import ordered_map, resolve_workers


@dataclass
class ScenarioOutcome:
    """Everything the explorer learned about one scenario.

    Attributes:
        index: the scenario's index in the sweep.
        scenario: the generated scenario.
        result: the run result (verdict, evidence).
        shrunk: the minimization outcome, when the run failed and
            shrinking was enabled.
        repro_path: where the minimal scenario file was written.
        trace_path: where the failing run's obs trace was written.
    """

    index: int
    scenario: Scenario
    result: RunResult
    shrunk: ShrinkResult | None = None
    repro_path: str | None = None
    trace_path: str | None = None


@dataclass
class ExplorationReport:
    """Aggregate verdict of one exploration sweep.

    Attributes:
        base_seed: the sweep's seed namespace.
        scenarios: scenarios executed.
        passed: runs with no violations and no invariant failures.
        violations: runs whose only finding was an expected-class clock
            violation (scenario tagged ``may_violate``).
        failed: runs that failed an invariant — these are protocol or
            harness bugs and fail CI.
        failures: the failing outcomes, with shrink artifacts.
        verdicts: per-scenario verdict strings, in index order.
        config: the effective generator configuration of the sweep
            (:func:`~repro.check.generator.effective_config`) — shards,
            batching, eviction, cache capacity, workload — so a report
            artifact records exactly what was swept.
    """

    base_seed: int
    scenarios: int = 0
    passed: int = 0
    violations: int = 0
    failed: int = 0
    failures: list[ScenarioOutcome] = field(default_factory=list)
    verdicts: list[str] = field(default_factory=list)
    config: dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        """True when no scenario failed an invariant."""
        return self.failed == 0

    def to_json(self) -> dict:
        """Plain-data summary (for the CLI's ``--json`` report)."""
        return {
            "base_seed": self.base_seed,
            "config": dict(self.config),
            "scenarios": self.scenarios,
            "passed": self.passed,
            "violations": self.violations,
            "failed": self.failed,
            "verdicts": list(self.verdicts),
            "failures": [
                {
                    "index": o.index,
                    "name": o.scenario.name,
                    "failure_kinds": list(o.result.failure_kinds),
                    "events_before": o.scenario.event_count,
                    "events_after": o.shrunk.events if o.shrunk else None,
                    "repro": o.repro_path,
                    "trace": o.trace_path,
                }
                for o in self.failures
            ],
        }


def _compute_outcome(
    generator: ScenarioGenerator,
    index: int,
    shrink: bool,
    shrink_budget: int,
    capture: bool,
) -> tuple[ScenarioOutcome, str | None]:
    """The pure per-scenario work: generate, run, shrink, render trace.

    This is the unit both execution paths share — the serial loop calls
    it inline, the parallel path ships it to worker processes — which is
    what makes ``workers=N`` output byte-identical to ``workers=1`` by
    construction.  No filesystem writes and no observability emissions
    happen here; the explorer finalizes outcomes in index order.

    Returns:
        ``(outcome, trace_text)`` where ``trace_text`` is the failing
        run's full JSONL trace (None for healthy runs or when artifact
        capture is off).
    """
    scenario = generator.generate(index)
    result = run_scenario(scenario)
    outcome = ScenarioOutcome(index=index, scenario=scenario, result=result)
    trace_text = None
    if result.failure_kinds:
        minimal = scenario
        if shrink:
            original_kinds = set(result.failure_kinds)

            def reproduces(candidate: RunResult) -> bool:
                return bool(original_kinds & set(candidate.failure_kinds))

            shrunk = shrink_scenario(scenario, reproduces, budget=shrink_budget)
            # Dropping unused trailing clients changes kernel event order,
            # so the stripped form is only kept if it still reproduces.
            stripped = strip_unused(shrunk.scenario)
            if stripped != shrunk.scenario and reproduces(run_scenario(stripped)):
                shrunk = ShrinkResult(
                    scenario=stripped,
                    result=run_scenario(stripped),
                    runs=shrunk.runs + 2,
                    original_events=shrunk.original_events,
                )
            outcome.shrunk = shrunk
            minimal = shrunk.scenario
        if capture:
            bus = TraceBus(capacity=None)
            run_scenario(minimal, obs=bus)
            trace_text = bus.to_jsonl()
    return outcome, trace_text


@dataclass(frozen=True)
class _SweepSpec:
    """Everything a worker process needs to recompute scenario ``i``.

    Picklable by construction: the generator is carried as *class +
    constructor arguments* and rebuilt inside the worker, because
    generation is a pure function of ``(base_seed, config, index)``.
    """

    generator_cls: type
    base_seed: int
    config: GeneratorConfig | None
    shrink: bool
    shrink_budget: int
    capture: bool


def _sweep_job(spec: _SweepSpec, index: int) -> tuple[ScenarioOutcome, str | None]:
    """Worker-side job: rebuild the generator, compute one outcome."""
    generator = spec.generator_cls(spec.base_seed, spec.config)
    return _compute_outcome(
        generator, index, spec.shrink, spec.shrink_budget, spec.capture
    )


class Explorer:
    """Runs N generated scenarios and minimizes whatever fails.

    Args:
        base_seed: seed namespace handed to the generator.
        config: grammar preset (default: smoke without clock faults, so
            every violation is a true failure).
        out_dir: directory for repro files and traces of failures;
            created on first failure.  None disables artifacts.
        shrink: minimize failures with delta debugging.
        shrink_budget: simulation-run cap per minimization.
        obs: optional trace bus for ``check.*`` events.
        registry: optional metrics registry for exploration counters.
        generator_cls: the :class:`ScenarioGenerator` (sub)class to
            instantiate — parallel sweeps rebuild it inside each worker
            from ``(generator_cls, base_seed, config)``, so ad-hoc
            instance patches on :attr:`generator` are only honored by
            serial runs.
    """

    def __init__(
        self,
        base_seed: int = 0,
        config: GeneratorConfig | None = None,
        out_dir: str | None = None,
        shrink: bool = True,
        shrink_budget: int = 200,
        obs: TraceBus | None = None,
        registry=None,
        generator_cls: type[ScenarioGenerator] = ScenarioGenerator,
    ):
        self.generator = generator_cls(base_seed, config)
        self.out_dir = out_dir
        self.shrink = shrink
        self.shrink_budget = shrink_budget
        self.obs = obs
        self.registry = registry

    # -- single scenario -------------------------------------------------------

    def run_index(self, index: int) -> ScenarioOutcome:
        """Generate, run, and (on failure) shrink scenario ``index``."""
        outcome, trace_text = _compute_outcome(
            self.generator, index, self.shrink, self.shrink_budget,
            capture=self.out_dir is not None,
        )
        self._finalize(outcome, trace_text)
        return outcome

    def _finalize(self, outcome: ScenarioOutcome, trace_text: str | None) -> None:
        """Index-order side effects: obs events, counters, artifacts.

        Runs only in the driving process and strictly in scenario-index
        order — in parallel sweeps the index-ordered merge feeds
        outcomes here one by one, so emitted events, counter totals and
        artifact bytes match a serial run exactly.
        """
        scenario, result = outcome.scenario, outcome.result
        self._observe_run(outcome.index, scenario, result)
        if not result.failure_kinds:
            return
        if outcome.shrunk is not None:
            shrunk = outcome.shrunk
            if self.obs is not None and self.obs.active:
                self.obs.emit(
                    CHECK_SHRINK, float(outcome.index), None,
                    scenario=scenario.name,
                    before=shrunk.original_events,
                    after=shrunk.events,
                )
            if self.registry is not None:
                self.registry.inc("check.shrink_runs", shrunk.runs)
        if self.out_dir is not None:
            minimal = outcome.shrunk.scenario if outcome.shrunk else scenario
            os.makedirs(self.out_dir, exist_ok=True)
            repro_path = os.path.join(self.out_dir, f"{scenario.name}.json")
            minimal.save(repro_path)
            outcome.repro_path = repro_path
            trace_path = os.path.join(self.out_dir, f"{scenario.name}.trace.jsonl")
            with open(trace_path, "w", encoding="utf-8") as fh:
                fh.write(trace_text or "")
            outcome.trace_path = trace_path

    def _observe_run(self, index: int, scenario: Scenario, result: RunResult) -> None:
        """Emit the per-scenario event and bump the counters."""
        if self.obs is not None and self.obs.active:
            self.obs.emit(
                CHECK_RUN, float(index), None,
                scenario=scenario.name, seed=scenario.seed, verdict=result.verdict,
            )
        if self.registry is not None:
            counter = {
                "pass": "check.passed",
                "violation": "check.violations",
                "fail": "check.failed",
            }[result.verdict]
            self.registry.inc("check.scenarios")
            self.registry.inc(counter)

    # -- sweep -----------------------------------------------------------------

    def _outcomes(
        self, n: int, workers: int
    ) -> Iterator[tuple[ScenarioOutcome, str | None]]:
        """Yield ``(outcome, trace_text)`` for scenarios 0..n-1 in order.

        ``workers <= 1`` computes inline (honoring any instance patches
        on :attr:`generator`); otherwise
        :func:`~repro.parallel.ordered_map` fans the computation across
        processes, each rebuilding the generator from
        ``(type(generator), base_seed, config)``, and streams results
        back in index order.
        """
        capture = self.out_dir is not None
        if workers <= 1 or n <= 1:
            for index in range(n):
                yield _compute_outcome(
                    self.generator, index, self.shrink, self.shrink_budget, capture
                )
            return
        spec = _SweepSpec(
            generator_cls=type(self.generator),
            base_seed=self.generator.base_seed,
            config=self.generator.config,
            shrink=self.shrink,
            shrink_budget=self.shrink_budget,
            capture=capture,
        )
        yield from ordered_map(functools.partial(_sweep_job, spec), range(n), workers)

    def explore(
        self, n: int, progress=None, workers: int | str | None = 1
    ) -> ExplorationReport:
        """Run scenarios ``0 .. n-1``; returns the aggregate report.

        The report — and any failure artifacts — are byte-identical for
        every ``workers`` value: parallel results are merged in index
        order before any side effect happens.

        Args:
            n: number of scenarios to explore.
            progress: optional callback invoked with each
                :class:`ScenarioOutcome` as it completes (the CLI's
                per-seed line printer).
            workers: worker processes (``"auto"``/``None`` = one per
                CPU; ``1`` = serial in-process).
        """
        workers = resolve_workers(workers)
        report = ExplorationReport(
            base_seed=self.generator.base_seed,
            config=effective_config(self.generator.config),
        )
        for outcome, trace_text in self._outcomes(n, workers):
            self._finalize(outcome, trace_text)
            report.scenarios += 1
            verdict = outcome.result.verdict
            report.verdicts.append(verdict)
            if verdict == "pass":
                report.passed += 1
            elif verdict == "violation":
                report.violations += 1
            else:
                report.failed += 1
                report.failures.append(outcome)
            if progress is not None:
                progress(outcome)
        return report
