"""Parallel sweep execution (`repro.parallel`).

The multiprocessing layer that turns the harness's bags of independent,
deterministic simulations — scenario sweeps, experiment grids, benchmark
mixes — into multi-core work with serially-identical output.

Public surface:

* :class:`~repro.parallel.pool.SweepPool` — chunked, crash-isolated,
  warm-worker executor with a deterministic in-order merge;
* :func:`~repro.parallel.pool.resolve_workers` — ``--workers N|auto``
  spec resolution;
* :class:`~repro.parallel.pool.SweepError` /
  :class:`~repro.parallel.pool.SweepJobError` /
  :class:`~repro.parallel.pool.WorkerCrashError` — sweep-level failures
  (distinct from scenario *verdicts*, which are results, not errors).
"""

from repro.parallel.pool import (
    SweepError,
    SweepJobError,
    SweepPool,
    WorkerCrashError,
    resolve_workers,
)

__all__ = [
    "SweepError",
    "SweepJobError",
    "SweepPool",
    "WorkerCrashError",
    "resolve_workers",
]
