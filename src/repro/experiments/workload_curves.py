"""E-WL: hit rate and server consistency load vs lease term, by eviction.

The paper's Figure 1 uses the compile trace, whose working set fits the
client cache — eviction policy is invisible there.  This experiment puts
the cache under production-shaped pressure instead: a Zipf-skewed
working set four times the cache, and a flash crowd onto one installed
file, both drawn from the pinned :data:`SEED` through
:mod:`repro.workload.models` (the same specs the adversarial scenario
suite sweeps).  Each grid point replays the model trace through the full
protocol stack twice — once under plain LRU, once under hybrid LRU+LFU
(:mod:`repro.cache.eviction`) — and reports the aggregate client cache
hit rate and the server's consistency messages per read.

Every point is an independent deterministic simulation, so the grid fans
out over workers with results identical to a serial run.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

from repro.cache.eviction import EVICTION_KINDS, make_policy
from repro.experiments.common import (
    cluster_for_trace,
    consistency_messages,
    grid_map,
    render_table,
    replay_trace_on_cluster,
)
from repro.lease.policy import FixedTermPolicy
from repro.protocol.client import ClientConfig
from repro.workload.models import generate_trace, preset, with_capacity_ratio

#: The pinned workload seed (the paper's publication year).
SEED = 1989

#: The two model presets whose curves the experiment reports.
WORKLOADS = ("zipf", "flash-crowd")

#: Working-set-to-cache ratio: the capacity-pressure regime where the
#: eviction axis differentiates (cache = n_files / 4).
CAPACITY_RATIO = 4.0

#: Lease-term grid (a Figure 1 subset: each point is a full-DES replay).
CURVE_TERMS = (0.0, 1.0, 2.0, 5.0, 10.0, 20.0, 30.0)


def _curve_point(
    point: tuple[str, str, float],
    duration: float,
    n_clients: int,
    seed: int,
) -> tuple[float, float]:
    """Grid job: ``(hit_rate, consistency msgs per read)`` at one point."""
    workload, eviction, term = point
    spec = preset(workload)
    capacity = with_capacity_ratio(spec, CAPACITY_RATIO)
    trace = generate_trace(spec, n_clients, duration, seed=seed)
    cluster, datum_of = cluster_for_trace(
        trace,
        n_clients=n_clients,
        policy=FixedTermPolicy(term),
        client_config=ClientConfig(cache_capacity=capacity, eviction=eviction),
    )
    replay_trace_on_cluster(cluster, trace, datum_of)
    cluster.run(until=duration + 120.0)
    hits = sum(c.engine.cache.stats.hits for c in cluster.clients)
    lookups = sum(c.engine.cache.stats.lookups for c in cluster.clients)
    n_reads = sum(1 for r in trace if r.op == "read")
    hit_rate = hits / lookups if lookups else 0.0
    load = consistency_messages(cluster) / n_reads if n_reads else 0.0
    return hit_rate, load


@dataclass(frozen=True)
class WorkloadCurvesResult:
    """Curves keyed by ``"<workload>/<eviction>"``.

    Attributes:
        terms: the lease-term grid.
        hit_rate: aggregate client cache hit rate per term.
        server_load: server consistency messages per traced read.
        capacities: cache capacity used per workload preset.
    """

    terms: tuple[float, ...]
    hit_rate: dict[str, list[float]]
    server_load: dict[str, list[float]]
    capacities: dict[str, int]

    def labels(self) -> list[str]:
        """Curve labels, workload-major (stable render order)."""
        return [f"{w}/{e}" for w in WORKLOADS for e in EVICTION_KINDS]


def run(
    terms: tuple[float, ...] | None = None,
    duration: float = 300.0,
    n_clients: int = 4,
    seed: int = SEED,
    workers: int | str | None = 1,
) -> WorkloadCurvesResult:
    """Compute every curve; identical for any worker count."""
    # Fail on an unknown eviction name before burning grid time.
    for eviction in EVICTION_KINDS:
        make_policy(eviction)
    terms = tuple(terms if terms is not None else CURVE_TERMS)
    points = [
        (workload, eviction, term)
        for workload in WORKLOADS
        for eviction in EVICTION_KINDS
        for term in terms
    ]
    job = functools.partial(
        _curve_point, duration=duration, n_clients=n_clients, seed=seed
    )
    values = grid_map(job, points, workers=workers)
    hit_rate: dict[str, list[float]] = {}
    server_load: dict[str, list[float]] = {}
    for (workload, eviction, _term), (hits, load) in zip(points, values):
        label = f"{workload}/{eviction}"
        hit_rate.setdefault(label, []).append(hits)
        server_load.setdefault(label, []).append(load)
    capacities = {
        w: with_capacity_ratio(preset(w), CAPACITY_RATIO) for w in WORKLOADS
    }
    return WorkloadCurvesResult(
        terms=terms,
        hit_rate=hit_rate,
        server_load=server_load,
        capacities=capacities,
    )


def render(result: WorkloadCurvesResult | None = None) -> str:
    """Plain-text tables + character plots of both metric families."""
    from repro.experiments.plot import ascii_plot

    result = result or run()
    labels = result.labels()
    caps = ", ".join(
        f"{w}: cache={result.capacities[w]}" for w in WORKLOADS
    )
    parts = [
        "E-WL: hit rate / server consistency load vs lease term, by eviction\n"
        f"(working set {CAPACITY_RATIO:g}x cache — {caps}; seed {SEED})\n"
    ]
    for title, curves in (
        ("cache hit rate", result.hit_rate),
        ("consistency msgs per read", result.server_load),
    ):
        headers = ["term (s)"] + labels
        rows = [
            [term] + [curves[label][i] for label in labels]
            for i, term in enumerate(result.terms)
        ]
        parts.append(f"{title}:\n" + render_table(headers, rows))
        parts.append(
            ascii_plot(
                list(result.terms),
                {label: curves[label] for label in labels},
                x_label="lease term (s)",
                y_label=title,
            )
        )
    return "\n\n".join(parts)


if __name__ == "__main__":
    print(render())
