"""Shared helpers for the experiment harness."""

from __future__ import annotations

import functools
import math
from typing import Any, Callable, Iterable

from repro.parallel import ordered_map
from repro.sim.driver import Cluster, build_cluster
from repro.storage.store import FileStore
from repro.types import DatumId
from repro.workload.events import TraceRecord

#: Message kinds that constitute server *consistency* traffic.  The
#: write-through itself (``lease/write``) is data traffic: it exists in any
#: protocol and is excluded, exactly as in the paper's model.
CONSISTENCY_KINDS = (
    "lease/read",
    "lease/extend",
    "lease/approve",
    "lease/announce",
)

#: Lease-term grid of Figures 1 and 2 (seconds).
FIGURE_TERMS = [0.0, 0.5, 1.0, 2.0, 3.0, 5.0, 7.5, 10.0, 15.0, 20.0, 25.0, 30.0]


def render_table(headers: list[str], rows: list[list[object]]) -> str:
    """Render a plain-text table with right-aligned columns."""
    def fmt(value: object) -> str:
        if isinstance(value, float):
            if math.isinf(value):
                return "inf"
            return f"{value:.4g}"
        return str(value)

    cells = [[fmt(v) for v in row] for row in rows]
    widths = [
        max(len(headers[i]), *(len(row[i]) for row in cells)) if cells else len(headers[i])
        for i in range(len(headers))
    ]
    lines = [
        "  ".join(h.rjust(w) for h, w in zip(headers, widths)),
        "  ".join("-" * w for w in widths),
    ]
    for row in cells:
        lines.append("  ".join(c.rjust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)


def grid_map(
    job: Callable[[Any], Any],
    points: Iterable[Any],
    workers: int | str | None = 1,
) -> list[Any]:
    """Evaluate ``job`` over a parameter grid, optionally in parallel.

    The workhorse of every experiment sweep: each grid point is an
    independent deterministic simulation, so with ``workers > 1`` the
    points fan out over :func:`~repro.parallel.ordered_map` and are
    merged back **in point order** — the result list is identical to
    the serial list comprehension for any worker count.

    Args:
        job: picklable callable applied to one grid point (module-level
            function or :func:`functools.partial` of one).
        points: the parameter points, in output order.
        workers: worker-count spec (see
            :func:`~repro.parallel.resolve_workers`); ``1`` runs inline
            with no subprocesses.
    """
    return list(ordered_map(job, points, workers))


@functools.lru_cache(maxsize=4)
def cached_v_trace(duration: float, seed: int) -> list[TraceRecord]:
    """Generate (once per process) the synthetic V trace for a config.

    Grid jobs regenerate their trace inside each worker; a worker runs
    many chunks of points, so this cache makes that a one-time cost per
    worker instead of a per-point cost.  Callers must not mutate the
    returned list.
    """
    from repro.workload.vtrace import VTraceConfig, generate_v_trace

    return generate_v_trace(VTraceConfig(duration=duration, seed=seed))


def consistency_messages(cluster: Cluster) -> int:
    """Consistency messages handled by the server so far."""
    return cluster.network.stats["server"].handled(CONSISTENCY_KINDS)


def total_messages(cluster: Cluster) -> int:
    """All messages handled by the server so far."""
    return cluster.network.stats["server"].handled()


def replay_trace_on_cluster(
    cluster: Cluster,
    trace: list[TraceRecord],
    datum_of: dict[str, DatumId],
    client_index: dict[str, int] | None = None,
) -> None:
    """Schedule a trace's operations onto a simulated cluster.

    Args:
        cluster: target cluster (not yet run).
        trace: time-ordered records; temporary-file records are executed
            against the clients' local temp stores.
        datum_of: path -> datum mapping for server-visible files.
        client_index: trace client name -> index into ``cluster.clients``
            (defaults to ``"c<i>" -> i``).
    """
    for record in trace:
        if client_index is None:
            client = cluster.clients[int(record.client.lstrip("c"))]
        else:
            client = cluster.clients[client_index[record.client]]
        if record.path not in datum_of:
            # Temporary files: client-local, never reach the server.
            if record.op == "write":
                cluster.kernel.schedule_at(
                    record.time,
                    lambda c=client, p=record.path: c.host.up
                    and c.engine.write_temp(p, b"tmp"),
                )
            continue
        datum = datum_of[record.path]
        if record.op == "read":
            cluster.kernel.schedule_at(
                record.time, lambda c=client, d=datum: c.host.up and c.read(d)
            )
        else:
            cluster.kernel.schedule_at(
                record.time,
                lambda c=client, d=datum: c.host.up and c.write(d, b"w"),
            )


def cluster_for_trace(
    trace: list[TraceRecord],
    n_clients: int,
    policy,
    installed=None,
    client_config=None,
    use_multicast: bool = True,
    seed: int = 0,
) -> tuple[Cluster, dict[str, DatumId]]:
    """Build a cluster whose store contains every file a trace touches."""
    from repro.types import FileClass

    paths: dict[str, FileClass] = {}
    for record in trace:
        if record.file_class is FileClass.TEMPORARY:
            continue
        paths.setdefault(record.path, record.file_class)

    datum_holder: dict[str, DatumId] = {}

    def setup(store: FileStore) -> None:
        dirs = sorted(
            {p.rsplit("/", 1)[0] for p in paths if p.rsplit("/", 1)[0] not in ("", "/")}
        )
        made = set()
        for d in dirs:
            parts = d.strip("/").split("/")
            for i in range(1, len(parts) + 1):
                sub = "/" + "/".join(parts[:i])
                if sub not in made:
                    try:
                        store.namespace.mkdir(sub)
                    except Exception:
                        pass
                    made.add(sub)
        for path, file_class in sorted(paths.items()):
            try:
                store.namespace.resolve_dir(path)
                datum_holder[path] = DatumId.directory(
                    store.namespace.resolve_dir(path).dir_id
                )
                continue  # the path is a directory touched by lookups
            except Exception:
                pass
            record = store.create_file(path, b"content", file_class=file_class)
            datum = DatumId.file(record.file_id)
            datum_holder[path] = datum
            if installed is not None and file_class is FileClass.INSTALLED:
                cover = "cover:" + path.rsplit("/", 1)[0]
                installed.register(cover, datum)

    cluster = build_cluster(
        n_clients=n_clients,
        policy=policy,
        setup_store=setup,
        installed=installed,
        client_config=client_config,
        use_multicast=use_multicast,
        seed=seed,
    )
    return cluster, datum_holder
