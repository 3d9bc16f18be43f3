"""Executes a :class:`~repro.check.scenario.Scenario` and checks invariants.

One scenario run is fully deterministic: the cluster's kernel is seeded
from the scenario, ops are scheduled through
:meth:`~repro.sim.driver.Cluster.schedule_op` in list order, and faults
follow in list order, so the very same event interleaving replays from a
scenario file byte-for-byte (verified via the oracle's history
fingerprint).

Invariants checked after the run drains:

* **consistency** — the :class:`~repro.sim.oracle.ConsistencyOracle` must
  stay clean, unless the scenario carries a dangerous §5 clock fault
  (``may_violate``), in which case violations are recorded as expected-
  class findings rather than harness failures;
* **liveness** — every operation submitted on a host that never crashed
  afterwards must complete (ok or not) before the drain ends: no client
  may be permanently stuck behind a lease, partition or loss window once
  faults heal;
* **convergence** — after the drain, a probe read of every file from
  every client completes and (absent clock faults) returns the store's
  current version: writes eventually commit and caches converge.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.check.scenario import Fault, Scenario
from repro.lease.policy import FixedTermPolicy, TermPolicy
from repro.protocol.client import ClientConfig
from repro.sim.driver import Cluster, build_cluster
from repro.sim.network import NetworkParams
from repro.storage.store import FileStore

#: Virtual seconds a single probe read is allowed to take.
PROBE_LIMIT = 60.0


@dataclass
class RunResult:
    """The verdict and evidence from one scenario execution.

    Attributes:
        scenario: the scenario that ran.
        violations: stringified oracle violations, in observation order.
        liveness_failures: descriptions of ops that never completed.
        convergence_failures: descriptions of probes that timed out or
            returned a non-current version.
        reads_checked: linearizability checks performed (incl. probes).
        ops_submitted: ops actually submitted (host up at fire time).
        ops_completed: submitted ops that produced a result.
        fingerprint: the oracle's history fingerprint — replaying the
            same scenario must reproduce it exactly.
        stats: per-host network send/receive counters snapshotted after
            the drain but *before* convergence probes, so it is directly
            comparable with externally driven runs of the same schedule.
        events_executed: simulation-kernel events fired over the whole
            run *including* convergence probes — the work metric the
            ``des_sweep`` workload of ``benchmarks/stack`` normalizes
            wall-clock time by (``check.runner.events_per_s``).
    """

    scenario: Scenario
    violations: tuple[str, ...] = ()
    liveness_failures: tuple[str, ...] = ()
    convergence_failures: tuple[str, ...] = ()
    reads_checked: int = 0
    ops_submitted: int = 0
    ops_completed: int = 0
    fingerprint: str = ""
    stats: dict = field(default_factory=dict)
    events_executed: int = 0

    @property
    def violated(self) -> bool:
        """True when the oracle recorded at least one stale read."""
        return bool(self.violations)

    @property
    def failure_kinds(self) -> tuple[str, ...]:
        """The invariant classes this run failed (empty = healthy).

        ``consistency`` appears only when the scenario did *not* carry a
        dangerous clock fault — expected-direction violations are findings,
        not failures.
        """
        kinds = []
        if self.violations and not self.scenario.may_violate:
            kinds.append("consistency")
        if self.liveness_failures:
            kinds.append("liveness")
        if self.convergence_failures:
            kinds.append("convergence")
        return tuple(kinds)

    @property
    def verdict(self) -> str:
        """``"fail"``, ``"violation"`` (expected-class) or ``"pass"``."""
        if self.failure_kinds:
            return "fail"
        if self.violated:
            return "violation"
        return "pass"

    @property
    def ok(self) -> bool:
        """True when no invariant failed."""
        return not self.failure_kinds


def build_scenario_cluster(scenario: Scenario, obs=None, policy: TermPolicy | None = None) -> Cluster:
    """Assemble the cluster a scenario describes (no events scheduled yet).

    Args:
        scenario: cluster shape and protocol knobs to realize.
        obs: optional trace bus threaded through every layer.
        policy: term-policy override; defaults to the scenario's fixed term.
    """

    def setup_store(store: FileStore) -> None:
        for i in range(scenario.n_files):
            store.create_file(f"/file{i}", b"init")

    return build_cluster(
        n_clients=scenario.n_clients,
        shards=scenario.shards,
        replicas=scenario.replicas,
        policy=policy or FixedTermPolicy(scenario.term),
        setup_store=setup_store,
        network_params=NetworkParams(
            loss_rate=scenario.loss_rate, duplicate_rate=scenario.duplicate_rate
        ),
        client_config=ClientConfig(
            rpc_timeout=scenario.rpc_timeout,
            write_timeout=scenario.write_timeout,
            max_retries=scenario.max_retries,
            batching=scenario.batching,
            cache_capacity=scenario.cache_capacity,
            eviction=scenario.eviction,
        ),
        seed=scenario.seed,
        strict_oracle=False,
        obs=obs,
    )


def apply_fault(cluster: Cluster, scenario: Scenario, fault: Fault) -> None:
    """Schedule one scenario fault on the cluster's injector."""
    injector = cluster.faults
    if fault.kind == "crash":
        injector.crash_window(fault.host, fault.at, fault.duration)
    elif fault.kind == "partition":
        others = [h for h in scenario.hosts if h not in fault.hosts]
        injector.partition_window(fault.hosts, others, fault.at, fault.duration)
    elif fault.kind == "loss":
        injector.loss_window(fault.rate, fault.at, fault.duration)
    elif fault.kind == "clock_step":
        injector.step_clock_at(fault.host, fault.at, fault.delta)
    elif fault.kind == "clock_drift":
        injector.set_drift_at(fault.host, fault.at, fault.drift)
    else:
        raise ValueError(f"unknown fault kind {fault.kind!r}")


def _crash_times(scenario: Scenario) -> dict[str, list[float]]:
    """Host -> crash onset times, for the liveness exemption."""
    times: dict[str, list[float]] = {}
    for fault in scenario.faults:
        if fault.kind == "crash":
            times.setdefault(fault.host, []).append(fault.at)
    return times


def run_scenario(
    scenario: Scenario,
    obs=None,
    probe: bool = True,
    policy: TermPolicy | None = None,
) -> RunResult:
    """Run one scenario end to end and evaluate every invariant.

    Args:
        scenario: what to run (validated first).
        obs: optional :class:`~repro.obs.bus.TraceBus` threaded through
            the cluster — used by the explorer to capture failing traces.
        probe: issue post-drain convergence probes (disable only when
            comparing network stats against an externally driven run).
        policy: term-policy override for experiments; the scenario's
            fixed term otherwise.
    """
    scenario.validate()
    cluster = build_scenario_cluster(scenario, obs=obs, policy=policy)
    datums = [cluster.store.file_datum(f"/file{i}") for i in range(scenario.n_files)]

    submissions: list[tuple] = []  # (op, client, op_id)

    def make_submit(op):
        def submit(client) -> None:
            if op.kind == "read":
                op_id = client.read(datums[op.file])
            else:
                op_id = client.write(datums[op.file], scenario.content_for(op))
            submissions.append((op, client, op_id))

        return submit

    for op in scenario.ops:
        cluster.schedule_op(op.at, op.client, make_submit(op))
    for fault in scenario.faults:
        apply_fault(cluster, scenario, fault)

    cluster.run(until=scenario.duration + scenario.drain)

    stats = {
        host: {"sent": dict(s.sent), "received": dict(s.received)}
        for host, s in cluster.network.stats.items()
    }

    # -- liveness: submitted ops must finish unless a later crash ate them --
    crash_times = _crash_times(scenario)
    liveness_failures = []
    completed = 0
    for op, client, op_id in submissions:
        if op_id in client.results:
            completed += 1
            continue
        host = client.host.name
        if any(at >= op.at - 1e-9 for at in crash_times.get(host, ())):
            continue  # volatile state lost with the crash: op legitimately gone
        liveness_failures.append(
            f"{op.kind} op {op_id} on {host} (submitted t={op.at:.3f}) never completed"
        )

    # -- convergence: post-drain probe reads see the committed state --------
    convergence_failures = []
    if probe:
        expected = {datum: cluster.store.version_of(datum) for datum in datums}
        probes: list[tuple] = []
        for client in cluster.live_clients():
            for datum in datums:
                op_id = client.read(datum)
                try:
                    result = cluster.run_until_complete(client, op_id, limit=PROBE_LIMIT)
                except TimeoutError:
                    convergence_failures.append(
                        f"probe read of {datum} on {client.host.name} timed out"
                    )
                    continue
                probes.append((client, datum, result))
        for client, datum, result in probes:
            if not result.ok:
                convergence_failures.append(
                    f"probe read of {datum} on {client.host.name} failed: {result.error}"
                )
            elif not scenario.may_violate:
                version, _payload = result.value
                if version != expected[datum]:
                    convergence_failures.append(
                        f"probe read of {datum} on {client.host.name} saw v{version}, "
                        f"store has v{expected[datum]}"
                    )

    return RunResult(
        scenario=scenario,
        violations=tuple(str(v) for v in cluster.oracle.violations),
        liveness_failures=tuple(liveness_failures),
        convergence_failures=tuple(convergence_failures),
        reads_checked=cluster.oracle.reads_checked,
        ops_submitted=len(submissions),
        ops_completed=completed,
        fingerprint=cluster.oracle.history_fingerprint(),
        stats=stats,
        events_executed=cluster.kernel.executed,
    )
