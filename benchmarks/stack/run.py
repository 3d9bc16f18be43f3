"""The lease stack's benchmark: five workloads, end to end and layer by layer.

    python3 benchmarks/stack/run.py [--workload W] [--seed N] [--seconds S]
                                    [--trace [0|1]] [--quick]

Run from the repository root.  Each workload is measured in fresh
processes — several identical ones, whose medians are reported — so no
workload inherits another's heap, caches or event loop.  ``--trace 0``
(the default) prints the end-to-end metrics; ``--trace 1`` prints the
per-layer metrics from a traced run and writes the spans under
``benchmarks/stack/out/``.  The last line of output is one JSON object:
``correct``, ``attempted``, ``failed``, ``metrics``.  README.md explains
every metric and workload.
"""

import time

_T0 = time.perf_counter()  # set-up time starts here, before `import repro`

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
OUT = HERE / "out"
#: Identical measuring processes per run.  Each sets up from nothing —
#: interpreter, imports, world, warm-up — so a run holds several set-ups,
#: and every other metric is taken over the segments of all of them.
REPLICAS = 5
DEFAULT_SEED = 1989
CHILD_TIMEOUT_S = 150


def declared() -> dict:
    """BENCHMARK.json: the one place metric names and units are declared."""
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


# -- the measuring process ------------------------------------------------------------


def child_main(args) -> int:
    """Measure one workload once in this process; print the result as JSON."""
    sys.path.insert(0, str(ROOT / "src"))
    from workloads import measure, timed_count

    traced = bool(args.trace)
    count = timed_count(args.workload, args.seconds, traced)
    result = measure(args.workload, f"{args.seed}/{args.replica}", count, traced, args.fabric, _T0)
    tracer = result.pop("tracer", None)
    if tracer is not None:
        OUT.mkdir(exist_ok=True)
        path = OUT / f"trace-{args.workload}.json"
        meta = {
            key: result[key] for key in ("workload", "count", "build", "timed_s")
        } | {"seed": args.seed, "nproc": os.cpu_count()}
        tracer.dump(path, meta)
        result["trace_file"] = str(path.relative_to(ROOT))
        result["spans"] = len(tracer)
    print(json.dumps(result))
    return 0


def spawn(workload: str, seed: int, seconds: float, replica: int, trace: int, fabric="tcp") -> dict:
    """Run one measuring process to completion and return its result."""
    command = [
        sys.executable, str(HERE / "run.py"), "--child",
        "--workload", workload, "--seed", str(seed), "--seconds", repr(seconds),
        "--replica", str(replica), "--trace", str(trace), "--fabric", fabric,
    ]
    # A fixed hash seed gives every process the same dict and set layout.
    env = dict(os.environ, PYTHONHASHSEED="0")
    done = subprocess.run(
        command, cwd=ROOT, env=env, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S
    )
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        raise SystemExit(f"{workload}: measuring process exited with {done.returncode}")
    return json.loads(done.stdout.splitlines()[-1])


# -- one run of one workload ----------------------------------------------------------


def good_decile(values: list[float], better: str) -> float:
    """The value a tenth of ``values`` beat: the 10th best of 100, the best of 5.

    This box alternates, for milliseconds or for minutes, between two speeds
    a factor 1.4 apart (README: Noise).  Interference only ever slows a
    segment down, so the good tail of the segments is what the code costs;
    medians over the same segments moved by 15 % between identical runs.
    """
    ranked = sorted(values, reverse=(better == "higher"))
    return ranked[(len(ranked) - 1) // 10]


def run_end_to_end(workload: str, seed: int, seconds: float, better: dict) -> tuple[dict, list[dict]]:
    """End-to-end metrics, over the segments of ``REPLICAS`` untraced processes."""
    runs = [spawn(workload, seed, seconds / REPLICAS, i, trace=0) for i in range(REPLICAS)]
    values = {
        name: good_decile([value for run in runs for value in run[name]], better[name])
        for name in better
    }
    return values, runs


def run_per_layer(workload: str, seed: int, seconds: float, names: list[str]) -> tuple[dict, list[dict]]:
    """Per-layer metrics: a traced process, and an untraced one beside it.

    The untraced twin gives the base of ``trace.overhead_ratio`` and the
    p99; on ``cold_read`` a third process repeats the ops over
    ``InMemoryHub`` so that the TCP transport's cost is a subtraction.
    """
    share = seconds / REPLICAS
    plain = spawn(workload, seed, share, 0, trace=0)
    traced = spawn(workload, seed, share, 0, trace=1)
    runs = [plain, traced]
    values = dict.fromkeys(names, 0.0)
    values.update(traced["layers"])
    values["trace.overhead_ratio"] = good_decile(traced["ops_per_s"], "higher") / good_decile(
        plain["ops_per_s"], "higher"
    )
    values["harness.op_p99_us"] = plain["op_p99_us"]
    if workload == "cold_read":
        hub = spawn(workload, seed, share, 0, trace=0, fabric="hub")
        runs.append(hub)
        over_tcp = good_decile(plain["op_p50_us"], "lower")
        values["runtime.node.hub_op_us"] = good_decile(hub["op_p50_us"], "lower")
        values["runtime.tcp.added_us_per_op"] = over_tcp - values["runtime.node.hub_op_us"]
    print(f"# {traced['spans']} spans written to {traced['trace_file']}")
    return values, runs


def run_workload(workload: str, seed: int, seconds: float, trace: int, spec: dict) -> dict:
    """Measure one workload and print its metrics by name, with units."""
    metrics = spec["per_layer" if trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in metrics}
    if trace:
        values, runs = run_per_layer(workload, seed, seconds, list(units))
    else:
        better = {m["name"]: m["better"] for m in metrics}
        values, runs = run_end_to_end(workload, seed, seconds, better)
    undeclared = sorted(set(values) - set(units))
    if undeclared:
        raise SystemExit(f"{workload}: metrics measured but not in BENCHMARK.json: {undeclared}")
    checks = [check for run in runs for check in run.get("checks", ())]
    attempted = sum(run["attempted"] for run in runs)
    failed = sum(run["failed"] for run in runs)
    print(
        f"# {workload}: seed={seed} build={runs[0]['build']} nproc={os.cpu_count()} "
        f"python={sys.version.split()[0]} processes={len(runs)} "
        f"count={runs[0]['count']} timed_s={runs[0]['timed_s']:.3f}"
    )
    for name, unit in units.items():
        print(f"{workload}/{name} = {values[name]:.6g} {unit}")
    print(f"{workload}/failed_ops = {failed} of attempted_ops = {attempted}")
    for check in checks:
        print(f"{workload}/self-check FAILED: {check}")
    return {
        "correct": failed == 0 and not checks,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="one workload (default: all five)")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, help="timed seconds per run (default: run_seconds)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1))
    parser.add_argument("--quick", action="store_true", help="every count divided by 50")
    # Set only by `spawn`, on the measuring processes.
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--replica", type=int, default=0, help=argparse.SUPPRESS)
    parser.add_argument("--fabric", default="tcp", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child:
        return child_main(args)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        raise SystemExit(f"no lease stack to measure: {ROOT / 'src' / 'repro'} is missing")
    spec = declared()
    known = [w["name"] for w in spec["workloads"]]
    if args.workload is not None and args.workload not in known:
        parser.error(f"unknown workload {args.workload!r}; choose from {known}")
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds
    if args.quick:
        seconds /= 50

    selected = known if args.workload is None else [args.workload]
    results = {w: run_workload(w, args.seed, seconds, args.trace, spec) for w in selected}
    if args.workload is not None:
        summary = results[args.workload]
    else:
        summary = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {
                f"{w}/{name}": value
                for w, r in results.items()
                for name, value in r["metrics"].items()
            },
        }
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
