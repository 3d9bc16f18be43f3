"""Seeded scenario generation from a weighted fault/workload grammar.

:class:`ScenarioGenerator` samples :class:`~repro.check.scenario.Scenario`
instances from a grammar covering everything §5 allows a non-Byzantine
system to do — crash/restart windows, two-sided partitions, message-loss
windows, duplicates — plus the paper's clock-fault taxonomy, split into
the directions that *must* stay safe (fast client, slow server) and the
directions *expected* to be able to violate consistency (slow client,
fast server).  Dangerous scenarios are tagged ``may_violate`` so the
explorer classifies their violations as expected-class findings.

Generation is pure: scenario ``i`` of base seed ``s`` is a deterministic
function of ``(s, i)``, independent of which other scenarios were
generated.  Replaying an exploration therefore never requires storing
more than ``(s, i)`` — though failures are also written out as full
scenario files.

:func:`stress_scenario` reproduces the *exact* schedule of the legacy
hand-rolled stress test (`tests/integration/test_random_stress.py`) for a
given seed, consuming the same RNG stream in the same order, so the old
and new paths are provably equivalent run-for-run.
"""

from __future__ import annotations

import dataclasses
import random
from dataclasses import dataclass

from repro.check.scenario import Fault, Op, Scenario
from repro.topology import Topology, client_host
from repro.workload.models import WorkloadSpec, preset, scenario_ops, with_capacity_ratio

#: Adversarial scenario families (:func:`adversarial_config`): a flash
#: crowd onto one installed file (thundering-herd lease storm), a cache
#: stampede with the working set far larger than cache, and a flash crowd
#: timed to hit *during* a server crash/restart window.
ADVERSARIAL_KINDS = ("flash-crowd", "stampede", "herd")


@dataclass(frozen=True)
class GeneratorConfig:
    """Weights and ranges of the scenario grammar.

    The defaults are the *smoke* preset: short durations and small
    clusters so a 50-scenario sweep stays inside a CI budget.
    :meth:`long` widens everything for overnight exploration.
    """

    n_clients: tuple[int, int] = (2, 4)
    n_files: tuple[int, int] = (2, 4)
    duration: tuple[float, float] = (15.0, 35.0)
    drain: float = 60.0
    terms: tuple[float, ...] = (2.0, 5.0, 10.0)
    op_rate: tuple[float, float] = (0.5, 2.0)
    p_write: float = 0.25
    loss_rates: tuple[float, ...] = (0.0, 0.0, 0.0, 0.05, 0.15)
    duplicate_rates: tuple[float, ...] = (0.0, 0.0, 0.0, 0.02)
    max_client_crashes: int = 2
    max_partitions: int = 2
    p_server_crash: float = 0.3
    p_loss_window: float = 0.25
    p_clock_fault: float = 0.0
    p_dangerous: float = 0.5
    #: Generate scenarios with the client request pipeline on.  Kept out
    #: of the random grammar so the same (base_seed, index) explores the
    #: identical schedule with batching on or off.
    batching: bool = False
    #: Draw the op stream from this traffic model instead of the legacy
    #: uniform Poisson grammar (``n_files`` and ``op_rate`` above are then
    #: ignored — the model owns key popularity and arrival rate).  None
    #: keeps the legacy grammar byte-for-byte.
    workload: WorkloadSpec | None = None
    #: Client cache eviction policy for generated scenarios.
    eviction: str = "lru"
    #: Client cache capacity; shrink below the workload's ``n_files`` to
    #: put the cache under stampede-grade capacity pressure.
    cache_capacity: int = 4096
    #: Time the server crash window to start *inside* the workload's
    #: flash-crowd window (requires a flash workload and a server crash
    #: being rolled) — the herd-during-restart family.
    crash_in_flash: bool = False
    #: Number of lease-server shards in generated scenarios.  1 keeps the
    #: classic single-server cluster *and* the legacy RNG draw order, so
    #: existing (base_seed, index) pairs keep their exact schedules; above
    #: 1, server-targeting faults additionally draw a victim shard.
    shards: int = 1
    #: Lease-authority replication factor.  1 keeps the unreplicated
    #: authority and the legacy RNG draw order; above 1, each authority
    #: is a PaxosLease replica group (hosts ``r{j}`` / ``s{k}r{j}``) and
    #: server-targeting faults additionally draw a victim replica.
    replicas: int = 1

    @classmethod
    def smoke(
        cls, clock_faults: bool = False, batching: bool = False
    ) -> "GeneratorConfig":
        """The CI-budget preset (optionally including clock faults)."""
        return cls(
            p_clock_fault=0.35 if clock_faults else 0.0, batching=batching
        )

    @classmethod
    def long(
        cls, clock_faults: bool = True, batching: bool = False
    ) -> "GeneratorConfig":
        """The overnight preset: bigger clusters, longer runs, more faults."""
        return cls(
            n_clients=(2, 6),
            n_files=(2, 6),
            duration=(30.0, 90.0),
            op_rate=(1.0, 3.0),
            max_client_crashes=4,
            max_partitions=3,
            p_server_crash=0.5,
            p_loss_window=0.4,
            p_clock_fault=0.5 if clock_faults else 0.0,
            batching=batching,
        )


class ScenarioGenerator:
    """Deterministically samples scenarios from the grammar.

    Attributes:
        base_seed: namespace for the whole exploration; scenario ``i`` is
            a pure function of ``(base_seed, i)``.
        config: grammar weights and ranges.
    """

    def __init__(self, base_seed: int = 0, config: GeneratorConfig | None = None):
        self.base_seed = base_seed
        self.config = config or GeneratorConfig()

    def generate(self, index: int) -> Scenario:
        """Sample scenario ``index`` of this generator's seed space."""
        cfg = self.config
        rng = random.Random(f"repro.check/{self.base_seed}/{index}")
        n_clients = rng.randint(*cfg.n_clients)
        if cfg.workload is None:
            # The legacy grammar — RNG draw order is frozen so existing
            # (base_seed, index) pairs keep their exact schedules.
            n_files = rng.randint(*cfg.n_files)
            duration = rng.uniform(*cfg.duration)
            term = rng.choice(cfg.terms)
            op_rate = rng.uniform(*cfg.op_rate)
            ops = self._sample_ops(
                rng, n_clients, n_files, duration, op_rate, cfg.p_write
            )
        else:
            n_files = cfg.workload.n_files
            duration = rng.uniform(*cfg.duration)
            term = rng.choice(cfg.terms)
            ops = [
                Op(at=at, client=client, kind=kind, file=file)
                for at, client, kind, file in scenario_ops(
                    cfg.workload, n_clients, duration, rng.getrandbits(32)
                )
            ]
        faults = self._sample_faults(rng, n_clients, duration)

        scenario = Scenario(
            name=f"gen-{self.base_seed}-{index}",
            seed=rng.getrandbits(32),
            n_clients=n_clients,
            n_files=n_files,
            duration=duration,
            drain=cfg.drain,
            term=term,
            loss_rate=rng.choice(cfg.loss_rates),
            duplicate_rate=rng.choice(cfg.duplicate_rates),
            batching=cfg.batching,
            cache_capacity=cfg.cache_capacity,
            eviction=cfg.eviction,
            shards=cfg.shards,
            replicas=cfg.replicas,
            workload=cfg.workload,
            ops=tuple(ops),
            faults=tuple(faults),
        )
        if scenario.has_dangerous_clock_fault:
            scenario = dataclasses.replace(scenario, may_violate=True)
        scenario.validate()
        return scenario

    # -- grammar productions ---------------------------------------------------

    def _sample_ops(self, rng, n_clients, n_files, duration, op_rate, p_write):
        """A Poisson-ish per-client stream of reads and writes."""
        ops = []
        for client in range(n_clients):
            t = 0.0
            while t < duration:
                t += rng.expovariate(op_rate)
                kind = "write" if rng.random() < p_write else "read"
                ops.append(Op(at=t, client=client, kind=kind, file=rng.randrange(n_files)))
        return ops

    def _sample_faults(self, rng, n_clients, duration):
        """Crash windows, partitions, loss windows and §5 clock faults.

        Every *window* fault heals strictly before ``duration`` so the
        drain period starts with a whole network — the precondition of the
        liveness and convergence invariants.  Clock faults persist (a bad
        crystal stays bad), but their magnitudes are bounded so retries
        and the drain still cover them.
        """
        cfg = self.config
        faults = []
        for _ in range(rng.randint(0, cfg.max_client_crashes)):
            victim = rng.randrange(n_clients)
            window = rng.uniform(1.0, 6.0)
            start = rng.uniform(1.0, max(1.5, duration - window - 1.0))
            faults.append(
                Fault("crash", at=start, host=client_host(victim), duration=window)
            )
        for _ in range(rng.randint(0, cfg.max_partitions)):
            victim = rng.randrange(n_clients)
            window = rng.uniform(1.0, 6.0)
            start = rng.uniform(1.0, max(1.5, duration - window - 1.0))
            faults.append(
                Fault("partition", at=start, hosts=(client_host(victim),), duration=window)
            )
        if rng.random() < cfg.p_server_crash:
            window = rng.uniform(1.0, 3.0)
            workload = cfg.workload
            if cfg.crash_in_flash and workload is not None and workload.has_flash:
                # Herd-during-restart: the crash opens inside the flash
                # window, so the whole crowd's lease storm lands on a dead
                # (then freshly restarted, lease-table-empty) server.
                flash_start = workload.flash_at * duration
                flash_end = min(duration, flash_start + workload.flash_width * duration)
                hi = max(flash_start + 0.1, min(flash_end, duration - window - 1.0))
                start = rng.uniform(flash_start, hi)
            else:
                start = rng.uniform(5.0, max(5.5, duration - window - 1.0))
            faults.append(
                Fault("crash", at=start, host=self._server_victim(rng), duration=window)
            )
        if rng.random() < cfg.p_loss_window:
            window = rng.uniform(2.0, 6.0)
            start = rng.uniform(1.0, max(1.5, duration - window - 1.0))
            faults.append(
                Fault("loss", at=start, rate=rng.uniform(0.3, 0.9), duration=window)
            )
        if rng.random() < cfg.p_clock_fault:
            faults.append(self._sample_clock_fault(rng, n_clients, duration))
        return faults

    def _server_victim(self, rng) -> str:
        """The host name a server-targeting fault hits.

        A dimension of size one is named without consuming randomness
        (the frozen draw order: 1x1 configs draw nothing); otherwise the
        victim shard is drawn first, then the victim replica.
        """
        cfg = self.config
        shard = rng.randrange(cfg.shards) if cfg.shards > 1 else 0
        replica = rng.randrange(cfg.replicas) if cfg.replicas > 1 else 0
        return Topology(cfg.shards, cfg.replicas).group(shard)[replica]

    def _sample_clock_fault(self, rng, n_clients, duration):
        """One clock fault, dangerous or safe per the configured weight.

        Dangerous directions (paper §5): a client clock that advances too
        slowly (negative step or drift) or a server clock that advances
        too quickly (positive step or drift).  Safe directions are the
        mirror images — they must only cost traffic, never consistency.
        """
        dangerous = rng.random() < self.config.p_dangerous
        on_server = rng.random() < 0.4
        host = self._server_victim(rng) if on_server else client_host(rng.randrange(n_clients))
        at = rng.uniform(1.0, duration * 0.6)
        if rng.random() < 0.5:  # step fault
            magnitude = rng.uniform(2.0, 8.0) if not on_server else rng.uniform(2.0, 5.0)
            sign = 1.0 if (dangerous == on_server) else -1.0
            return Fault("clock_step", at=at, host=host, delta=sign * magnitude)
        magnitude = rng.uniform(0.2, 0.6)
        sign = 1.0 if (dangerous == on_server) else -1.0
        return Fault("clock_drift", at=at, host=host, drift=sign * magnitude)


def effective_config(config: GeneratorConfig) -> dict:
    """The full effective sweep configuration, for machine-readable reports.

    Everything that shapes generated scenarios beyond (base_seed, index):
    shard count, batching, eviction policy, cache capacity, the workload
    model (serialized) and the fault-grammar toggles.  Embedded in
    ``repro.check --json`` reports so a CI artifact records *what* was
    actually swept, not just how it went.
    """
    return {
        "shards": config.shards,
        "replicas": config.replicas,
        "batching": config.batching,
        "eviction": config.eviction,
        "cache_capacity": config.cache_capacity,
        "workload": config.workload.to_json() if config.workload is not None else None,
        "clock_faults": config.p_clock_fault > 0.0,
        "crash_in_flash": config.crash_in_flash,
    }


def adversarial_config(kind: str, eviction: str = "lru") -> GeneratorConfig:
    """The grammar config for one adversarial scenario family.

    All three families run with every oracle on; none of them carries a
    clock fault, so *any* violation is a real finding, never expected
    class.

    * ``flash-crowd`` — every client stampedes one installed file
      mid-run (the thundering-herd lease storm), with background Zipf
      traffic and the usual crash/partition/loss noise around it;
    * ``stampede`` — a Zipf working set six times the client cache, so
      every cold-key burst forces evictions while leases are in flight;
    * ``herd`` — the flash crowd again, but with a guaranteed server
      crash window opening *inside* the flash, so the whole herd's lease
      storm lands on a restarting, lease-table-empty server.

    Args:
        kind: one of :data:`ADVERSARIAL_KINDS`.
        eviction: cache policy for the generated scenarios (the sweep
            runs each family under both, ``lru`` and ``lru-lfu``).
    """
    if kind == "flash-crowd":
        return GeneratorConfig(
            n_clients=(3, 6),
            duration=(12.0, 20.0),
            max_client_crashes=1,
            max_partitions=1,
            p_server_crash=0.0,
            workload=preset("flash-crowd"),
            eviction=eviction,
        )
    if kind == "stampede":
        spec = preset("zipf")
        return GeneratorConfig(
            n_clients=(3, 6),
            duration=(15.0, 25.0),
            max_client_crashes=1,
            max_partitions=1,
            p_server_crash=0.2,
            workload=spec,
            eviction=eviction,
            cache_capacity=with_capacity_ratio(spec, 6.0),
        )
    if kind == "herd":
        return GeneratorConfig(
            n_clients=(3, 6),
            duration=(20.0, 30.0),
            max_client_crashes=0,
            max_partitions=0,
            p_server_crash=1.0,
            p_loss_window=0.0,
            workload=preset("flash-crowd"),
            eviction=eviction,
            crash_in_flash=True,
        )
    raise ValueError(
        f"unknown adversarial kind {kind!r} (have: {', '.join(ADVERSARIAL_KINDS)})"
    )


def stress_scenario(
    seed: int,
    n_clients: int = 4,
    n_files: int = 4,
    duration: float = 120.0,
    op_rate: float = 2.0,
    loss_rate: float = 0.0,
    faults: bool = False,
    term: float = 5.0,
) -> Scenario:
    """The legacy random-stress schedule for ``seed``, as a Scenario.

    Consumes ``random.Random(seed)`` in exactly the order the hand-rolled
    generator in ``tests/integration/test_random_stress.py`` did — per-
    client Poisson op streams first, then crash windows, partitions and
    the server crash — so driving the result through
    :func:`~repro.check.runner.run_scenario` replays the identical
    simulation (same kernel event order, same network statistics).
    """
    rng = random.Random(seed)
    ops = []
    for client in range(n_clients):
        t = 0.0
        while t < duration:
            t += rng.expovariate(op_rate)
            file_index = rng.choice(range(n_files))
            kind = "write" if rng.random() < 0.2 else "read"
            ops.append(Op(at=t, client=client, kind=kind, file=file_index))
    fault_events = []
    if faults:
        for _ in range(3):
            victim = rng.randrange(n_clients)
            start = rng.uniform(5.0, duration - 20.0)
            fault_events.append(
                Fault("crash", at=start, host=client_host(victim), duration=rng.uniform(2.0, 10.0))
            )
        for _ in range(2):
            victim = rng.randrange(n_clients)
            start = rng.uniform(5.0, duration - 20.0)
            fault_events.append(
                Fault(
                    "partition",
                    at=start,
                    hosts=(client_host(victim),),
                    duration=rng.uniform(2.0, 8.0),
                )
            )
        fault_events.append(
            Fault("crash", at=rng.uniform(20.0, 60.0), host="server", duration=2.0)
        )
    return Scenario(
        name=f"stress-{seed}",
        seed=seed,
        n_clients=n_clients,
        n_files=n_files,
        duration=duration,
        drain=60.0,
        term=term,
        loss_rate=loss_rate,
        ops=tuple(ops),
        faults=tuple(fault_events),
    )


def demo_clock_fault_scenario() -> Scenario:
    """The §5 textbook violation, as a five-event scenario.

    Client 0 caches ``/file0`` under a 5 s lease; its clock then steps
    6 s *backward* (the "advancing too slowly" direction), stretching its
    trust window past the server-side expiry; client 1 writes after the
    server has expired the lease (so no approval is requested); client
    0's next read is served stale from cache.  The shrinker acceptance
    test starts from a noisy superset of this scenario and must recover
    (a subset of) it.
    """
    return Scenario(
        name="demo-clock-step",
        seed=1,
        n_clients=2,
        n_files=1,
        duration=12.0,
        drain=20.0,
        term=5.0,
        may_violate=True,
        ops=(
            Op(at=0.5, client=0, kind="read", file=0),
            Op(at=7.0, client=1, kind="write", file=0),
            Op(at=9.0, client=0, kind="read", file=0),
        ),
        faults=(Fault("clock_step", at=2.0, host="c0", delta=-6.0),),
    )
