"""Scenario-exploration harness: generate, run, check, replay, shrink.

The paper's central claim (§5) is that leases preserve single-copy
consistency across *every* non-Byzantine failure interleaving.  This
package turns the simulator, fault injector and consistency oracle into a
correctness-tooling subsystem that actively searches for counterexamples:

* :mod:`repro.check.scenario` — a declarative, JSON-serializable
  :class:`~repro.check.scenario.Scenario` (workload + fault schedule), so
  any run is replayable from a file;
* :mod:`repro.check.generator` — a seeded
  :class:`~repro.check.generator.ScenarioGenerator` sampling scenarios
  from a weighted grammar over crashes, partitions, message loss and the
  §5 clock-fault directions;
* :mod:`repro.check.runner` — executes a scenario against
  :func:`~repro.sim.driver.build_cluster` and checks consistency,
  liveness and convergence invariants;
* :mod:`repro.check.shrink` — delta-debugging minimizer that removes
  events while a failure still reproduces;
* :mod:`repro.check.explorer` — drives N seeded scenarios, shrinks
  failures and emits minimal repro files plus obs traces;
* ``python -m repro.check`` — the command-line entry point.
"""

from repro.check.explorer import ExplorationReport, Explorer, ScenarioOutcome
from repro.check.generator import (
    GeneratorConfig,
    ScenarioGenerator,
    demo_clock_fault_scenario,
)
from repro.check.runner import RunResult, build_scenario_cluster, run_scenario
from repro.check.scenario import Fault, Op, Scenario
from repro.check.shrink import ShrinkResult, ddmin, shrink_scenario

__all__ = [
    "ExplorationReport",
    "Explorer",
    "Fault",
    "GeneratorConfig",
    "Op",
    "RunResult",
    "Scenario",
    "ScenarioGenerator",
    "ScenarioOutcome",
    "ShrinkResult",
    "build_scenario_cluster",
    "ddmin",
    "demo_clock_fault_scenario",
    "run_scenario",
    "shrink_scenario",
]
