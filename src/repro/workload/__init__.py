"""Workload generation and trace-driven simulation.

* :mod:`repro.workload.events` — trace records and simple (de)serialization.
* :mod:`repro.workload.poisson` — the analytic model's workload: Poisson
  read/write streams per client over files shared by S caches.
* :mod:`repro.workload.vtrace` — a synthetic reconstruction of the paper's
  measurement trace ("recompiling the V file server"): bursty compile
  cycles, installed files ≈ half of all reads with no writes, temporary
  files handled client-locally, calibrated to Table 2's R and W.
* :mod:`repro.workload.tracesim` — a fast trace-driven cache/lease
  simulator producing the *Trace* curve of Figure 1 without the full
  discrete-event stack.
* :mod:`repro.workload.models` — production-shaped traffic models
  (Zipf/Pareto popularity, diurnal swings, flash crowds, read/write mix
  shifts) behind one :class:`~repro.workload.models.WorkloadSpec` that
  drives the scenario grammar, the trace simulator, the asyncio load
  harness and the experiment grids.
"""

from repro.workload.events import TraceRecord, load_trace, save_trace, trace_stats
from repro.workload.models import (
    PRESETS,
    WorkloadSpec,
    generate_trace,
    preset,
    sample_events,
    scenario_ops,
    with_capacity_ratio,
)
from repro.workload.poisson import PoissonWorkload, SharingGroup
from repro.workload.tracesim import TraceSimResult, simulate_trace
from repro.workload.vtrace import VTraceConfig, generate_v_trace

__all__ = [
    "TraceRecord",
    "save_trace",
    "load_trace",
    "trace_stats",
    "PoissonWorkload",
    "SharingGroup",
    "VTraceConfig",
    "generate_v_trace",
    "simulate_trace",
    "TraceSimResult",
    "PRESETS",
    "WorkloadSpec",
    "generate_trace",
    "preset",
    "sample_events",
    "scenario_ops",
    "with_capacity_ratio",
]
