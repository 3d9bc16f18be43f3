"""The core workloads and their single-run measurement.

Two pinned, deterministic workloads for the **single-run hot path**:

* ``core`` — synthetic storms that spend nearly all their time in the
  kernel and network layers: a lease-renewal timer churn (arm, cancel,
  re-arm — the wheel's worst customer) and a request/response ping-pong
  through the simulated network.  Both use only the API surface that
  predates the fast paths (``schedule``/``cancel``/``unicast``), so the
  same workload runs unchanged against any revision.
  ``benchmarks/stack`` times the two storms as
  ``sim.kernel.events_per_s`` and ``sim.network.events_per_s``.
* ``scenario`` — a 32-scenario pinned smoke mix run serially: the
  end-to-end number, diluted by the driver and oracle layers.

``python -m repro.profile`` attributes both per subsystem.  The CLI here
(also ``benchmarks/bench_core.py``) measures events/sec and, with
``--speedup-vs``, compares against a report written on the *same
runner* — the compiled-vs-pure check of the CI ``compiled`` job.  There
is no committed baseline: a number pinned on one machine gates nothing
on another, and the repo's perf evidence is ``benchmarks/stack``.

Usage::

    PYTHONPATH=src python -m repro.profile.core --out pure.json
    PYTHONPATH=src python -m repro.profile.core --speedup-vs pure.json
"""

from __future__ import annotations

import argparse
import json
import sys
import time

import repro
from repro.check.generator import GeneratorConfig, ScenarioGenerator
from repro.check.runner import run_scenario
from repro.sim.host import Host
from repro.sim.kernel import Kernel
from repro.sim.network import Network, NetworkParams

#: Seed namespace of the pinned scenario mix (the paper's publication year).
PINNED_BASE_SEED = 1989

#: Scenarios in the pinned mix (~3 s serial on one 2020s core).
PINNED_JOBS = 32

#: Timed passes per workload; the best is reported.  Best-of damps
#: box-load noise without the bias of averaging in a cold pass.
TRIALS = 5


def timer_storm(lines: int = 64, renewals: int = 400) -> int:
    """Lease-renewal churn: per line, arm a long expiry timer, then
    repeatedly cancel and re-arm it from a short-period renewal timer.

    This is the kernel's worst-case customer (the write-up in DESIGN.md
    §10): every renewal inserts twice and cancels once, so cancelled
    entries pile up and force periodic compaction, while the short
    timers hammer the draining bucket and the long ones the future
    slots.  Returns the kernel's executed-event count.
    """
    kernel = Kernel(seed=11)

    def renew(line: int, left: int, armed: list) -> None:
        if armed[0] is not None:
            armed[0].cancel()
        if left:
            armed[0] = kernel.schedule(30.0, expire, line)
            kernel.schedule(0.25 + (line % 7) * 0.01, renew, line, left - 1, armed)

    def expire(line: int) -> None:
        pass

    for line in range(lines):
        kernel.schedule((line % 13) * 0.003, renew, line, renewals, [None])
    kernel.run()
    return kernel.executed


def ping_storm(clients: int = 48, rounds: int = 300) -> int:
    """Request/response ping-pong through the simulated network.

    Every leg pays the paper's full timing model (send m_proc, m_prop,
    receive m_proc) with zero loss, so each one qualifies for the
    fault-free delivery fast path.  Returns the executed-event count.
    """
    kernel = Kernel(seed=13)
    net = Network(kernel, NetworkParams())
    server = Host("server", kernel)
    net.attach(server)
    remaining: dict[str, int] = {}

    def server_handler(payload, src):
        net.unicast("server", src, payload + 1, kind="pong")

    server.set_handler(server_handler)

    def attach_client(name: str) -> None:
        host = Host(name, kernel)
        net.attach(host)

        def handler(payload, src):
            if remaining[name]:
                remaining[name] -= 1
                net.unicast(name, "server", payload, kind="ping")

        host.set_handler(handler)

    for i in range(clients):
        name = f"c{i}"
        remaining[name] = rounds
        attach_client(name)
        kernel.schedule(0.001 * i, net.unicast, name, "server", 0, "ping")
    kernel.run()
    return kernel.executed


def core_workload() -> int:
    """The core workload: both storms; returns total events."""
    return timer_storm() + ping_storm()


def scenario_workload(jobs: int = PINNED_JOBS) -> int:
    """The pinned smoke mix, serial; returns total events.

    The mix uses the smoke grammar without clock faults, so every
    scenario doubles as a correctness probe: a non-``pass`` verdict
    means the protocol or harness regressed, and the workload refuses to
    produce a number for broken work.
    """
    generator = ScenarioGenerator(PINNED_BASE_SEED, GeneratorConfig.smoke())
    events = 0
    for index in range(jobs):
        result = run_scenario(generator.generate(index))
        if result.verdict != "pass":
            raise RuntimeError(
                f"pinned scenario {index} verdict={result.verdict}: "
                "refusing to benchmark a failing protocol"
            )
        events += result.events_executed
    return events


def _best_of(workload, trials: int) -> tuple[int, float]:
    """Run ``workload`` ``trials`` times; return (events, best wall_s).

    Event counts must agree across trials — these are deterministic
    simulations, and a drifting count means the harness is broken.
    """
    events = None
    best = float("inf")
    for _ in range(trials):
        start = time.perf_counter()
        got = workload()
        wall = time.perf_counter() - start
        if events is None:
            events = got
        elif got != events:
            raise RuntimeError(
                f"non-deterministic workload: {events} then {got} events"
            )
        best = min(best, wall)
    return events, best


def run_benchmark(jobs: int = PINNED_JOBS, trials: int = TRIALS) -> dict:
    """Measure both workloads; return the report.

    Schema::

        {
          "benchmark": "core_hot_path",
          "jobs":     scenario-mix size,
          "workloads": {
            "core":     {"events", "wall_s", "events_per_sec"},
            "scenario": {"events", "wall_s", "events_per_sec"}
          },
          "build":    {"build": "pure" | "pure-twin" | "compiled"}
        }
    """
    # Untimed warmup (imports, allocator growth).
    core_workload()
    scenario_workload(1)

    report: dict = {
        "benchmark": "core_hot_path",
        "jobs": jobs,
        "workloads": {},
        "build": {"build": repro.build_info()["build"]},
    }
    for name, workload in (
        ("core", core_workload),
        ("scenario", lambda: scenario_workload(jobs)),
    ):
        events, wall = _best_of(workload, trials)
        report["workloads"][name] = {
            "events": events,
            "wall_s": wall,
            "events_per_sec": events / wall,
        }
    return report


def main(argv: list[str] | None = None) -> int:
    """CLI driver; exit 0 on success, 1 when ``--speedup-vs`` is not met."""
    parser = argparse.ArgumentParser(
        prog="bench_core",
        description="Single-run core hot-path measurement: kernel/network "
        "storm and serial scenario-mix events/sec.",
    )
    parser.add_argument("--jobs", type=int, default=PINNED_JOBS,
                        help=f"scenario-mix size (default {PINNED_JOBS})")
    parser.add_argument("--trials", type=int, default=TRIALS,
                        help=f"timed passes per workload (default {TRIALS})")
    parser.add_argument("--out", default=None, metavar="PATH",
                        help="write the report here")
    parser.add_argument("--speedup-vs", default=None, metavar="PATH",
                        help="reference report (e.g. a pure-path --out run): "
                        "require this run's core events/sec to be at least "
                        "--min-speedup times the reference's")
    parser.add_argument("--min-speedup", type=float, default=2.0,
                        help="required core speedup for --speedup-vs "
                        "(default 2.0)")
    args = parser.parse_args(argv)

    report = run_benchmark(jobs=args.jobs, trials=args.trials)
    print(json.dumps(report, indent=2, sort_keys=True))

    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=2, sort_keys=True)
            fh.write("\n")
    if args.speedup_vs:
        with open(args.speedup_vs, encoding="utf-8") as fh:
            reference = json.load(fh)
        ref = reference["workloads"]["core"]["events_per_sec"]
        cur = report["workloads"]["core"]["events_per_sec"]
        speedup = cur / ref
        print(
            f"core speedup vs {args.speedup_vs} "
            f"({reference['build']['build']} -> {report['build']['build']}): "
            f"{speedup:.2f}x",
            file=sys.stderr,
        )
        if speedup < args.min_speedup:
            print(
                f"SPEEDUP GATE FAIL: {speedup:.2f}x < required "
                f"{args.min_speedup:.2f}x",
                file=sys.stderr,
            )
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
