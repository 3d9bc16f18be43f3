"""Single-run core measurement: kernel/network storms and the serial
pinned scenario mix, in events/sec.

Thin entry point over :mod:`repro.profile.core`.  There is no committed
baseline to gate against (``benchmarks/stack`` is the repo's benchmark);
``--speedup-vs`` compares two runs made on the same runner, which is how
the CI ``compiled`` job checks the compiled build against the pure one.

Usage::

    PYTHONPATH=src python benchmarks/bench_core.py --out pure.json
    PYTHONPATH=src python benchmarks/bench_core.py --speedup-vs pure.json --min-speedup 2.0
"""

from __future__ import annotations

import sys

from repro.profile.core import main

if __name__ == "__main__":
    sys.exit(main())
