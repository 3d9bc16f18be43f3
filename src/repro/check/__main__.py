"""Command-line entry point: ``python -m repro.check``.

Smoke sweep (the CI gate)::

    python -m repro.check --seeds 50 --out failures/

Long exploration with clock faults::

    python -m repro.check --seeds 500 --mode long --out failures/

Replaying a repro file emitted for a failure::

    python -m repro.check --replay failures/gen-0-17.json

Parallel sweeps fan scenarios across worker processes with output —
report, progress lines, failure artifacts — byte-identical to a serial
run::

    python -m repro.check --seeds 100 --workers auto

Exit status: 0 when no scenario failed an invariant (expected-class
clock violations do not fail the sweep; a replayed scenario exits 0 when
it reproduces its recorded class: failure kinds if any, else violation);
1 when a scenario failed; 2 on a bad argument (rejected before anything
runs) or when the sweep *itself* errored (generator bug, a dead worker
process, harness exception); 130 on interrupt.  No worker process
outlives the sweep either way.
"""

from __future__ import annotations

import argparse
import json
import sys
import traceback

import dataclasses

from repro.cache.eviction import EVICTION_KINDS
from repro.check.explorer import Explorer
from repro.check.generator import ADVERSARIAL_KINDS, GeneratorConfig, adversarial_config
from repro.check.runner import run_scenario
from repro.check.scenario import Scenario
from repro.errors import ScenarioError
from repro.obs.registry import Registry
from repro.parallel import workers_arg
from repro.workload.models import PRESETS, preset

#: ``--workload`` choices: the traffic-model presets plus the adversarial
#: families (which pick their own grammar, not just a model).  The
#: ``flash-crowd`` name is in both sets; the adversarial grammar wins.
WORKLOAD_CHOICES = tuple(sorted(set(PRESETS) | set(ADVERSARIAL_KINDS)))


def _positive_int(text: str) -> int:
    """``argparse`` type of the counts: a sweep of 0 seeds checks nothing."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.check",
        description="Scenario exploration for the lease protocol: generate "
        "seeded fault schedules, check consistency/liveness/convergence, "
        "shrink failures to minimal repro files.",
    )
    parser.add_argument("--seeds", type=_positive_int, default=30, metavar="N",
                        help="number of scenarios to explore (default 30)")
    parser.add_argument("--base-seed", type=int, default=0,
                        help="seed namespace; same namespace => same sweep")
    parser.add_argument("--mode", choices=("smoke", "long"), default="smoke",
                        help="grammar preset (smoke: CI budget, no clock "
                        "faults; long: bigger, clock faults on)")
    parser.add_argument("--clock-faults", action="store_true",
                        help="include §5 clock faults in smoke mode")
    parser.add_argument("--batching", action="store_true",
                        help="run clients with the request pipeline on "
                        "(same schedules, batched frames)")
    parser.add_argument("--workload", choices=WORKLOAD_CHOICES, default=None,
                        metavar="MODEL",
                        help="draw op streams from a traffic model "
                        f"({', '.join(WORKLOAD_CHOICES)}) instead of the "
                        "legacy uniform grammar; flash-crowd/stampede/herd "
                        "select the full adversarial grammar")
    parser.add_argument("--eviction", choices=EVICTION_KINDS, default="lru",
                        help="client cache eviction policy for generated "
                        "scenarios (default lru)")
    parser.add_argument("--shards", type=_positive_int, default=1, metavar="N",
                        help="lease-server shards (default 1 = the classic "
                        "single server; N>1 consistent-hashes files across "
                        "servers s0..s{N-1})")
    parser.add_argument("--replicas", type=_positive_int, default=1, metavar="N",
                        help="lease-authority replication factor (default 1 "
                        "= unreplicated; N>1 runs each authority as a "
                        "PaxosLease replica group r0..r{N-1})")
    parser.add_argument("--out", metavar="DIR", default=None,
                        help="write repro files + traces of failures here")
    parser.add_argument("--json", metavar="PATH", default=None,
                        help="write the machine-readable report here")
    parser.add_argument("--no-shrink", action="store_true",
                        help="skip delta-debugging of failures")
    parser.add_argument("--replay", metavar="FILE", default=None,
                        help="replay one scenario file instead of exploring")
    parser.add_argument("--quiet", action="store_true",
                        help="suppress the per-scenario progress lines")
    parser.add_argument("--workers", type=workers_arg, default="1", metavar="N|auto",
                        help="worker processes for the sweep (auto = one "
                        "per usable CPU; default 1 = serial); output is "
                        "byte-identical either way")
    return parser


def _replay(path: str, quiet: bool) -> int:
    """Re-run a scenario file; report whether its failure reproduces.

    A file that cannot be read or does not describe a runnable scenario
    exits 2 (a bad argument), never 1, which means "did not reproduce".
    """
    try:
        scenario = Scenario.load(path)
    except (OSError, ValueError, ScenarioError) as exc:
        print(f"cannot replay {path}: {exc}", file=sys.stderr)
        return 2
    result = run_scenario(scenario)
    if not quiet:
        print(f"replay {scenario.name}: verdict={result.verdict} "
              f"events={scenario.event_count} reads={result.reads_checked} "
              f"fingerprint={result.fingerprint[:16]}")
        for line in result.violations:
            print(f"  violation: {line}")
        for line in result.liveness_failures + result.convergence_failures:
            print(f"  invariant: {line}")
    # A repro file "reproduces" when the replay is not a clean pass.
    return 0 if result.verdict != "pass" else 1


def main(argv: list[str] | None = None) -> int:
    """Run the CLI; returns the process exit status."""
    args = _build_parser().parse_args(argv)
    if args.replay is not None:
        return _replay(args.replay, args.quiet)

    if args.workload in ADVERSARIAL_KINDS:
        config = dataclasses.replace(
            adversarial_config(args.workload, eviction=args.eviction),
            batching=args.batching,
        )
    else:
        if args.mode == "long":
            config = GeneratorConfig.long(batching=args.batching)
        else:
            config = GeneratorConfig.smoke(
                clock_faults=args.clock_faults, batching=args.batching
            )
        if args.workload is not None:
            config = dataclasses.replace(config, workload=preset(args.workload))
        if args.eviction != "lru":
            config = dataclasses.replace(config, eviction=args.eviction)
    if args.shards != 1:
        config = dataclasses.replace(config, shards=args.shards)
    if args.replicas != 1:
        config = dataclasses.replace(config, replicas=args.replicas)

    registry = Registry()
    explorer = Explorer(
        base_seed=args.base_seed,
        config=config,
        out_dir=args.out,
        shrink=not args.no_shrink,
        registry=registry,
    )

    def progress(outcome) -> None:
        if args.quiet:
            return
        result = outcome.result
        line = (f"[{outcome.index:4d}] {outcome.scenario.name:<16} "
                f"{result.verdict:<9} ops={result.ops_submitted:<4} "
                f"faults={len(outcome.scenario.faults):<2} "
                f"reads={result.reads_checked}")
        if result.failure_kinds:
            line += f"  FAILED: {', '.join(result.failure_kinds)}"
            if outcome.shrunk is not None:
                line += (f" (shrunk {outcome.shrunk.original_events} -> "
                         f"{outcome.shrunk.events} events)")
        print(line)

    try:
        report = explorer.explore(args.seeds, progress=progress, workers=args.workers)
    except KeyboardInterrupt:
        # Workers ignore SIGINT; by the time the interrupt reaches here the
        # sweep has cancelled what no worker started and joined every worker.
        print("interrupted: sweep aborted, worker pool torn down",
              file=sys.stderr)
        return 130
    except Exception:
        # A sweep *error* (generator bug, a dead worker process, harness
        # exception) is not a scenario failure: report loudly and exit
        # non-zero so CI cannot mistake a broken sweep for a clean one.
        print("sweep error:", file=sys.stderr)
        traceback.print_exc()
        return 2

    counters = registry.snapshot()["counters"]
    print(f"explored {report.scenarios} scenarios (base seed "
          f"{report.base_seed}): {report.passed} passed, "
          f"{report.violations} expected-class violations, "
          f"{report.failed} failed  "
          f"[shrink runs: {counters.get('check.shrink_runs', 0)}]")
    for outcome in report.failures:
        print(f"  failure {outcome.scenario.name}: "
              f"{', '.join(outcome.result.failure_kinds)}"
              + (f" -> {outcome.repro_path}" if outcome.repro_path else ""))

    if args.json is not None:
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump(report.to_json(), fh, indent=2, sort_keys=True)
            fh.write("\n")
    return 0 if report.ok else 1


if __name__ == "__main__":
    sys.exit(main())
