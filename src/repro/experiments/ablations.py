"""Ablation studies for the design choices the paper calls out (§3.1, §4).

* A-BATCH — batched vs per-file lease extension (§3.1: batching raises the
  effective R and with it the benefit factor alpha).
* A-INST  — installed-file covers + multicast announcements vs plain
  per-client leases for widely shared read-mostly files (§4).
* A-ANT   — anticipatory vs on-demand extension (§4: response time down,
  server load up).
* A-ADPT  — adaptive per-file terms from the analytic model vs one fixed
  term (§4): write-hot files get zero terms, cutting approval traffic.
* A-MCAST — multicast vs unicast write approvals (§3.1 footnotes 6-7).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analytic import alpha, alpha_unicast, break_even_term, v_params
from repro.experiments.common import consistency_messages, render_table
from repro.lease.policy import AdaptiveTermPolicy, FixedTermPolicy
from repro.protocol.client import ClientConfig
from repro.sim.driver import build_cluster, install_tree
from repro.types import DatumId
from repro.workload.tracesim import simulate_trace
from repro.workload.vtrace import VTraceConfig, generate_v_trace


# -- A-BATCH ---------------------------------------------------------------------


@dataclass(frozen=True)
class BatchingResult:
    """Relative consistency load with and without batched extension."""

    term: float
    batched: float
    per_file: float

    @property
    def improvement(self) -> float:
        """Load reduction factor from batching."""
        return self.per_file / self.batched if self.batched else float("inf")


def run_batching(
    terms: tuple[float, ...] = (2.0, 10.0), trace_duration: float = 3600.0
) -> list[BatchingResult]:
    """A-BATCH on the synthetic V trace."""
    trace = generate_v_trace(VTraceConfig(duration=trace_duration))
    params = v_params(1)
    results = []
    for term in terms:
        batched = simulate_trace(trace, term, params, batch_extensions=True)
        naive = simulate_trace(trace, term, params, batch_extensions=False)
        results.append(
            BatchingResult(
                term=term,
                batched=batched.relative_load,
                per_file=naive.relative_load,
            )
        )
    return results


# -- A-INST -----------------------------------------------------------------------


@dataclass(frozen=True)
class InstalledResult:
    """Cost of serving widely shared installed files, with and without §4."""

    variant: str
    consistency_msgs: int
    server_lease_records: int
    update_latency: float
    approvals: int


def _installed_scenario(use_covers: bool, n_clients: int = 8) -> InstalledResult:
    """N clients re-read two installed binaries for a while; then one
    client updates a binary."""
    datums: dict[str, DatumId] = {}
    cluster = build_cluster(
        n_clients=n_clients,
        policy=FixedTermPolicy(10.0),
        setup_store=lambda store: datums.update(
            install_tree(store, "/bin", {"latex": b"v1", "cc": b"v1"})
        ),
        cover_term=10.0 if use_covers else None,
    )
    latex = datums["/bin/latex"]
    cc = datums["/bin/cc"]
    # every client re-reads both binaries every 3 seconds for 60 s
    for i, client in enumerate(cluster.clients):
        t = 0.1 + 0.01 * i
        while t < 60.0:
            cluster.kernel.schedule_at(t, lambda c=client, d=latex: c.host.up and c.read(d))
            cluster.kernel.schedule_at(
                t + 0.5, lambda c=client, d=cc: c.host.up and c.read(d)
            )
            t += 3.0
    # measure and update at t=57.5, while the last round of leases (their
    # extensions happened around t=48) is still live everywhere
    cluster.run(until=57.5)
    records_peak = cluster.server.engine.table.lease_count()
    writer = cluster.clients[0]
    result = cluster.run_until_complete(writer, writer.write(latex, b"v2"), limit=120.0)
    cluster.run(until=cluster.kernel.now + 30.0)
    stats = cluster.network.stats["server"]
    return InstalledResult(
        variant="covers+multicast" if use_covers else "per-client leases",
        consistency_msgs=consistency_messages(cluster),
        server_lease_records=records_peak,
        update_latency=result.latency,
        approvals=stats.handled(["lease/approve"]),
    )


def run_installed() -> list[InstalledResult]:
    """A-INST: both variants of the installed-files scenario."""
    return [_installed_scenario(False), _installed_scenario(True)]


# -- A-ANT ------------------------------------------------------------------------


@dataclass(frozen=True)
class AnticipatoryResult:
    """Read latency vs server load trade-off of anticipatory extension."""

    variant: str
    mean_read_latency: float
    consistency_msgs: int


def _anticipatory_scenario(anticipatory: bool) -> AnticipatoryResult:
    def setup(store):
        store.create_file("/doc", b"x")

    cluster = build_cluster(
        n_clients=1,
        policy=FixedTermPolicy(3.0),
        setup_store=setup,
        client_config=ClientConfig(anticipatory=anticipatory, anticipate_margin=2.0),
    )
    datum = cluster.store.file_datum("/doc")
    client = cluster.clients[0]
    # one read every 4 s: just past the term, so on-demand always pays
    ops = []
    for k in range(50):
        cluster.kernel.schedule_at(
            0.1 + 4.0 * k, lambda c=client, d=datum: ops.append(c.read(d))
        )
    cluster.run(until=220.0)
    latencies = [client.results[op].latency for op in ops if op in client.results]
    return AnticipatoryResult(
        variant="anticipatory" if anticipatory else "on-demand",
        mean_read_latency=sum(latencies) / len(latencies),
        consistency_msgs=consistency_messages(cluster),
    )


def run_anticipatory() -> list[AnticipatoryResult]:
    """A-ANT: on-demand vs anticipatory extension."""
    return [_anticipatory_scenario(False), _anticipatory_scenario(True)]


# -- A-ADPT -----------------------------------------------------------------------


@dataclass(frozen=True)
class AdaptiveResult:
    """Fixed vs adaptive terms on a mixed (read-hot + write-hot) workload."""

    variant: str
    consistency_msgs: int
    mean_write_latency: float


def _adaptive_scenario(policy, label: str) -> AdaptiveResult:
    def setup(store):
        store.create_file("/hot-read", b"x")
        store.create_file("/hot-write", b"x")

    cluster = build_cluster(n_clients=6, policy=policy, setup_store=setup, seed=1)
    read_datum = cluster.store.file_datum("/hot-read")
    write_datum = cluster.store.file_datum("/hot-write")
    write_ops: list[tuple[int, int]] = []
    for i, client in enumerate(cluster.clients):
        # everyone re-reads the hot-read file every 2 s
        t = 0.2 + 0.03 * i
        while t < 240.0:
            cluster.kernel.schedule_at(t, lambda c=client, d=read_datum: c.read(d))
            t += 2.0
        # everyone touches the write-hot file: read then write, staggered
        t = 1.0 + 0.4 * i
        while t < 240.0:
            cluster.kernel.schedule_at(t, lambda c=client, d=write_datum: c.read(d))
            cluster.kernel.schedule_at(
                t + 1.0,
                lambda c=client, d=write_datum, i=i: write_ops.append(
                    (i, c.write(d, b"w"))
                ),
            )
            t += 2.4
    cluster.run(until=300.0)
    latencies = [
        cluster.clients[i].results[op].latency
        for i, op in write_ops
        if op in cluster.clients[i].results
    ]
    return AdaptiveResult(
        variant=label,
        consistency_msgs=consistency_messages(cluster),
        mean_write_latency=sum(latencies) / len(latencies),
    )


def run_adaptive() -> list[AdaptiveResult]:
    """A-ADPT: fixed 10 s terms vs analytically adapted per-file terms."""
    fixed = _adaptive_scenario(FixedTermPolicy(10.0), "fixed 10 s")
    adaptive = _adaptive_scenario(
        AdaptiveTermPolicy(v_params(), min_term=0.0, max_term=30.0, default_term=10.0),
        "adaptive",
    )
    return [fixed, adaptive]


# -- A-MCAST -----------------------------------------------------------------------


@dataclass(frozen=True)
class MulticastResult:
    """Benefit-factor and break-even comparison, multicast vs unicast."""

    sharing: int
    alpha_multicast: float
    alpha_unicast: float
    break_even_multicast: float
    break_even_unicast: float


def run_multicast(sharings: tuple[int, ...] = (2, 10, 20, 40)) -> list[MulticastResult]:
    """A-MCAST: how approvals' transport changes when leasing pays off."""
    results = []
    for s in sharings:
        params = v_params(s)
        results.append(
            MulticastResult(
                sharing=s,
                alpha_multicast=alpha(params),
                alpha_unicast=alpha_unicast(params),
                break_even_multicast=break_even_term(params),
                break_even_unicast=break_even_term(params, unicast=True),
            )
        )
    return results


# -- rendering ----------------------------------------------------------------------


def render() -> str:
    """Run and render every ablation."""
    sections = []

    rows = [[r.term, r.batched, r.per_file, r.improvement] for r in run_batching()]
    sections.append(
        "A-BATCH: batched vs per-file extension (relative consistency load)\n"
        + render_table(["term (s)", "batched", "per-file", "factor"], rows)
    )

    rows = [
        [r.variant, r.consistency_msgs, r.server_lease_records, r.update_latency, r.approvals]
        for r in run_installed()
    ]
    sections.append(
        "A-INST: installed-file covers (8 clients, 2 binaries, 1 update)\n"
        + render_table(
            ["variant", "consistency msgs", "lease records", "update latency (s)", "approval msgs"],
            rows,
        )
    )

    rows = [
        [r.variant, 1e3 * r.mean_read_latency, r.consistency_msgs]
        for r in run_anticipatory()
    ]
    sections.append(
        "A-ANT: anticipatory extension (reads just past the term)\n"
        + render_table(["variant", "mean read latency (ms)", "consistency msgs"], rows)
    )

    rows = [
        [r.variant, r.consistency_msgs, 1e3 * r.mean_write_latency]
        for r in run_adaptive()
    ]
    sections.append(
        "A-ADPT: fixed vs adaptive terms (read-hot + write-hot files)\n"
        + render_table(["variant", "consistency msgs", "mean write latency (ms)"], rows)
    )

    rows = [
        [r.sharing, r.alpha_multicast, r.alpha_unicast, r.break_even_multicast, r.break_even_unicast]
        for r in run_multicast()
    ]
    sections.append(
        "A-MCAST: benefit factor and break-even term, multicast vs unicast approvals\n"
        + render_table(
            ["S", "alpha (mcast)", "alpha (ucast)", "break-even tc (mcast)", "break-even tc (ucast)"],
            rows,
        )
    )

    return "\n\n".join(sections)


if __name__ == "__main__":
    print(render())
