"""Does the benchmark agree with itself?  Two sets of runs of one checkout.

    python3 benchmarks/stack/noise.py [--runs 10] [--workload W ...]

Runs ``run.py`` ``--runs`` times per workload, each time with another
seed, twice over, and prints for every workload x end-to-end metric both
medians, how much worse the second is than the first, each set's spread
(distance between the quartiles as a share of the median) and the bound
BENCHMARK.json declares.  Exits non-zero if a difference exceeds half its
bound, or a spread — ``setup_s`` apart, which is judged on its medians
only — exceeds the whole bound.  A spread above a third of the bound is
flagged ``wide`` without failing.  The bounds in BENCHMARK.json were
chosen from this table; README.md holds the one they were chosen from.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent


def one_run(workload: str, seed: int) -> dict:
    """End-to-end metrics of one run: name -> value."""
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed)],
        cwd=ROOT, capture_output=True, text=True,
    )
    if done.returncode != 0:
        sys.stderr.write(done.stdout + done.stderr)
        raise SystemExit(f"{workload} seed {seed}: run.py exited with {done.returncode}")
    result = json.loads(done.stdout.splitlines()[-1])
    return {name: metric["value"] for name, metric in result["metrics"].items()}


def spread(values: list[float]) -> float:
    """Distance between the quartiles as a share of the median."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    known = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10, help="runs per set (at least 5)")
    parser.add_argument("--workload", action="append", choices=known)
    args = parser.parse_args(argv)
    if args.runs < 5:
        parser.error("quartiles of fewer than 5 runs mean little")
    workloads = args.workload or known

    # sets[s][workload][metric] -> one value per run; a set is `runs` full
    # runs (every workload once per run), and no seed is used twice.
    sets = []
    for s in range(2):
        values = {w: {m["name"]: [] for m in spec["end_to_end"]} for w in workloads}
        for run in range(args.runs):
            for w in workloads:
                for name, value in one_run(w, 1 + s * args.runs + run).items():
                    values[w][name].append(value)
            print(f"# set {s + 1} run {run + 1}/{args.runs} done", file=sys.stderr)
        sets.append(values)

    out = HERE / "out"
    out.mkdir(exist_ok=True)
    (out / "noise.json").write_text(json.dumps(sets), encoding="utf-8")

    print("| workload | metric | median 1 | median 2 | worse by | spread 1 | spread 2 | bound | |")
    print("|---|---|---:|---:|---:|---:|---:|---:|---|")
    failures = 0
    for w in workloads:
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            first, second = (s[w][name] for s in sets)
            m1, m2 = statistics.median(first), statistics.median(second)
            sign = 1.0 if metric["better"] == "lower" else -1.0
            worse = sign * (m2 - m1) / m1
            spreads = (spread(first), spread(second))
            verdict = ""
            if abs(worse) > bound / 2 or (name != "setup_s" and max(spreads) > bound):
                verdict = "FAIL"
                failures += 1
            elif name != "setup_s" and max(spreads) > bound / 3:
                verdict = "wide"
            print(
                f"| {w} | {name} | {m1:.5g} | {m2:.5g} | {worse:+.1%} "
                f"| {spreads[0]:.1%} | {spreads[1]:.1%} | {bound:.0%} | {verdict} |"
            )
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
