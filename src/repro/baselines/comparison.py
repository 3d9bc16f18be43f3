"""Head-to-head protocol comparison on one shared workload.

Runs the same seeded workload — shared reads and writes plus a partition
window — under each §6 protocol and tabulates what the paper argues in
prose: leases with a ~10 s term match the callback scheme's traffic while
keeping check-on-use's consistency, and unlike both they bound the damage
of partitions; TTL hints and breakable locks trade staleness for
simplicity.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.baselines.locks import DfsLockServerEngine
from repro.baselines.ttl import TtlServerEngine
from repro.experiments.common import CONSISTENCY_KINDS, render_table
from repro.lease.policy import FixedTermPolicy, InfiniteTermPolicy, ZeroTermPolicy
from repro.protocol.client import ClientConfig
from repro.protocol.server import ServerEngine
from repro.sim.driver import Cluster, build_cluster
from repro.storage.store import FileStore

N_CLIENTS = 6
N_FILES = 3
DURATION = 120.0
PARTITION = (40.0, 25.0)  # isolate c0 for 25 s starting at t=40

#: Every §6 protocol as a lease server: (name, term policy, server engine).
#: TTL hints and DFS locks differ from leasing only in ``_grant``; DFS
#: locks' defaults are the 2 s minimum and 10 s hold.
PROTOCOLS = (
    ("leases (10 s)", FixedTermPolicy(10.0), ServerEngine),
    ("check-on-use (term 0)", ZeroTermPolicy(), ServerEngine),
    ("callbacks (term inf)", InfiniteTermPolicy(), ServerEngine),
    ("NFS TTL (10 s)", FixedTermPolicy(10.0), TtlServerEngine),
    ("DFS locks (min 2 s / hold 10 s)", FixedTermPolicy(2.0), DfsLockServerEngine),
)


@dataclass(frozen=True)
class ProtocolOutcome:
    """Measured behaviour of one protocol on the standard workload."""

    protocol: str
    consistency_msgs: int
    mean_read_latency: float
    stale_reads: int
    reads_checked: int
    writes_completed: int
    writes_submitted: int
    mean_write_latency: float

    @property
    def write_availability(self) -> float:
        """Fraction of submitted writes that completed successfully."""
        if not self.writes_submitted:
            return 1.0
        return self.writes_completed / self.writes_submitted


def _setup(store: FileStore) -> None:
    for i in range(N_FILES):
        store.create_file(f"/file{i}", b"init")


def _drive(name: str, cluster: Cluster, seed: int) -> ProtocolOutcome:
    """Schedule the standard workload, run, and collect metrics."""
    rng = random.Random(seed)
    datums = [cluster.store.file_datum(f"/file{i}") for i in range(N_FILES)]
    read_ops: list[tuple[int, int]] = []
    write_ops: list[tuple[int, int]] = []
    for idx, client in enumerate(cluster.clients):
        t = rng.uniform(0.0, 1.0)
        while t < DURATION:
            datum = rng.choice(datums)
            if rng.random() < 0.1:
                cluster.kernel.schedule_at(
                    t,
                    lambda c=client, d=datum, i=idx: c.host.up
                    and write_ops.append((i, c.write(d, b"w"))),
                )
            else:
                cluster.kernel.schedule_at(
                    t,
                    lambda c=client, d=datum, i=idx: c.host.up
                    and read_ops.append((i, c.read(d))),
                )
            t += rng.expovariate(1.0)
    start, length = PARTITION
    cluster.faults.partition_window(
        ["c0"], ["server"] + [f"c{i}" for i in range(1, N_CLIENTS)], start, length
    )
    cluster.run(until=DURATION + 120.0)

    read_results = [
        cluster.clients[i].results[op]
        for i, op in read_ops
        if op in cluster.clients[i].results
    ]
    ok_reads = [r for r in read_results if r.ok]
    write_results = [
        cluster.clients[i].results[op]
        for i, op in write_ops
        if op in cluster.clients[i].results
    ]
    ok_writes = [w for w in write_results if w.ok]
    return ProtocolOutcome(
        protocol=name,
        consistency_msgs=cluster.network.stats["server"].handled(CONSISTENCY_KINDS),
        mean_read_latency=sum(r.latency for r in ok_reads) / len(ok_reads),
        stale_reads=len(cluster.oracle.violations),
        reads_checked=cluster.oracle.reads_checked,
        writes_completed=len(ok_writes),
        writes_submitted=len(write_ops),
        mean_write_latency=(
            sum(w.latency for w in ok_writes) / len(ok_writes) if ok_writes else 0.0
        ),
    )


def compare_protocols(seed: int = 0) -> list[ProtocolOutcome]:
    """Run the standard workload under every protocol."""
    client_config = ClientConfig(rpc_timeout=1.0, write_timeout=5.0, max_retries=10)
    return [
        _drive(
            name,
            build_cluster(
                n_clients=N_CLIENTS,
                policy=policy,
                server_engine_factory=engine,
                setup_store=_setup,
                client_config=client_config,
                strict_oracle=False,
                seed=seed,
            ),
            seed,
        )
        for name, policy, engine in PROTOCOLS
    ]


def render(outcomes: list[ProtocolOutcome] | None = None) -> str:
    """Plain-text comparison table."""
    outcomes = outcomes or compare_protocols()
    rows = [
        [
            o.protocol,
            o.consistency_msgs,
            round(1e3 * o.mean_read_latency, 3),
            f"{o.stale_reads}/{o.reads_checked}",
            f"{100 * o.write_availability:.0f}%",
            round(1e3 * o.mean_write_latency, 2),
        ]
        for o in outcomes
    ]
    return (
        "Protocol comparison (6 clients, 3 shared files, 120 s, one 25 s partition)\n"
        + render_table(
            [
                "protocol",
                "consistency msgs",
                "read delay (ms)",
                "stale reads",
                "write avail",
                "write delay (ms)",
            ],
            rows,
        )
    )


if __name__ == "__main__":
    print(render())
