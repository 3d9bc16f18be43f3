"""Run every experiment and print the paper's tables and figures.

Usage: ``python -m repro.experiments [--quick] [--workers N|auto]``
"""

from __future__ import annotations

import argparse
import sys

from repro.experiments import (
    ablations,
    claims,
    figure1,
    figure2,
    figure3,
    scaling,
    table2,
    unix_variant,
    workload_curves,
)
from repro.parallel import workers_arg


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments",
        description="Reproduce the paper's tables and figures.",
    )
    # --quick skips the discrete-event-heavy stages (ablations, E-SIM);
    # the analytic/trace stages are fast at full duration regardless.
    parser.add_argument("--quick", action="store_true",
                        help="skip the discrete-event-heavy stages")
    parser.add_argument("--workers", type=workers_arg, default="1",
                        metavar="N|auto",
                        help="worker processes for grid sweeps (auto = one "
                        "per usable CPU); results are identical for any value")
    args = parser.parse_args(argv)
    duration = 3600.0

    print(table2.render(table2.run(trace_duration=duration)))
    print()
    print(figure1.render(
        figure1.run(trace_duration=duration, workers=args.workers)
    ))
    print()
    print(figure2.render(
        figure2.run(trace_duration=duration, workers=args.workers)
    ))
    print()
    print(figure3.render())
    print()
    print(claims.render(claims.run(trace_duration=duration)))
    print()
    print(scaling.render())
    print()
    if not args.quick:
        print(unix_variant.render(unix_variant.run(duration=duration)))
        print()
        print(ablations.render())
        print()
        print(workload_curves.render(
            workload_curves.run(workers=args.workers)
        ))
        print()
        sweep = figure1.validate_sweep(
            terms=(0.0, 10.0), workers=args.workers
        )
        fast, full = sweep[10.0]
        print(
            "E-SIM validation (relative load at 10 s): "
            f"fast replay = {fast:.4f}, full protocol stack = {full:.4f}"
        )
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
