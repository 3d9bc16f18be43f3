"""Declarative, replayable test scenarios.

A :class:`Scenario` captures everything a run needs — cluster shape,
protocol knobs, the operation stream and the fault schedule — as plain
data.  Serializing it to JSON and loading it back reproduces the *exact*
simulation (the kernel is seeded from the scenario), which is what makes
failures found by exploration shareable: a minimal repro is one small
file, and ``python -m repro.check --replay file.json`` re-runs it.

Events come in two flavours: :class:`Op` (a client-submitted read or
write) and :class:`Fault` (crash window, partition window, loss window,
or a §5 clock fault).  Both are intentionally flat so the delta-debugging
shrinker can treat a scenario as a removable event list.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
from dataclasses import dataclass
from typing import IO, Iterable

from repro.cache.eviction import EVICTION_KINDS
from repro.errors import ScenarioError
from repro.topology import Topology, is_replica_host, is_server_host
from repro.workload.models import WorkloadSpec

#: Serialization format version, embedded in every scenario file.
FORMAT_VERSION = 1

#: Operation kinds a client can submit.
OP_KINDS = ("read", "write")

#: Fault kinds the injector understands.
FAULT_KINDS = ("crash", "partition", "loss", "clock_step", "clock_drift")


@dataclass(frozen=True)
class Op:
    """One client-submitted operation.

    Attributes:
        at: virtual submission time in seconds.
        client: client index (host ``c<client>``).
        kind: ``"read"`` or ``"write"``.
        file: index into the scenario's numbered files.
    """

    at: float
    client: int
    kind: str
    file: int = 0

    def to_json(self) -> dict:
        """Plain-data form for the scenario file."""
        return {"at": self.at, "client": self.client, "kind": self.kind, "file": self.file}

    @classmethod
    def from_json(cls, data: dict) -> "Op":
        """Rebuild from :meth:`to_json` output."""
        return cls(
            at=float(data["at"]),
            client=int(data["client"]),
            kind=str(data["kind"]),
            file=int(data.get("file", 0)),
        )


@dataclass(frozen=True)
class Fault:
    """One scheduled fault.

    The meaning of the optional fields depends on ``kind``:

    * ``crash`` — ``host`` goes down at ``at`` and restarts ``duration``
      later (volatile state lost);
    * ``partition`` — ``hosts`` are cut off from every other host over
      ``[at, at + duration)``;
    * ``loss`` — the network-wide loss probability becomes ``rate`` over
      ``[at, at + duration)``;
    * ``clock_step`` — ``host``'s clock jumps by ``delta`` seconds at
      ``at`` (a negative client step / positive server step is a §5
      dangerous direction);
    * ``clock_drift`` — ``host``'s clock rate error becomes ``drift`` at
      ``at``, reading kept continuous (negative on a client / positive on
      the server is dangerous).
    """

    kind: str
    at: float
    host: str = ""
    duration: float = 0.0
    hosts: tuple[str, ...] = ()
    delta: float = 0.0
    drift: float = 0.0
    rate: float = 0.0

    @property
    def dangerous(self) -> bool:
        """True for the §5 clock-fault directions that can break consistency.

        A client clock that advances too slowly (negative step or drift)
        or a server clock that advances too quickly (positive step or
        drift) can let a write commit while a holder still trusts its
        copy; the opposite directions only cost extra traffic.
        """
        if self.kind == "clock_step":
            value = self.delta
        elif self.kind == "clock_drift":
            value = self.drift
        else:
            return False
        if is_replica_host(self.host):
            # A replica is dual-role: as (potential) master it grants file
            # leases (fast clock dangerous) and it *holds* the PaxosLease
            # master lease (slow clock dangerous) — both directions count.
            return value != 0.0
        if is_server_host(self.host):
            return value > 0.0
        return value < 0.0

    def to_json(self) -> dict:
        """Plain-data form with default-valued fields pruned."""
        data: dict = {"kind": self.kind, "at": self.at}
        if self.host:
            data["host"] = self.host
        if self.duration:
            data["duration"] = self.duration
        if self.hosts:
            data["hosts"] = list(self.hosts)
        if self.delta:
            data["delta"] = self.delta
        if self.drift:
            data["drift"] = self.drift
        if self.rate:
            data["rate"] = self.rate
        return data

    @classmethod
    def from_json(cls, data: dict) -> "Fault":
        """Rebuild from :meth:`to_json` output."""
        return cls(
            kind=str(data["kind"]),
            at=float(data["at"]),
            host=str(data.get("host", "")),
            duration=float(data.get("duration", 0.0)),
            hosts=tuple(data.get("hosts", ())),
            delta=float(data.get("delta", 0.0)),
            drift=float(data.get("drift", 0.0)),
            rate=float(data.get("rate", 0.0)),
        )


@dataclass(frozen=True)
class Scenario:
    """A complete, self-contained description of one simulated run.

    Attributes:
        name: human-readable label (carried into reports and repro files).
        seed: kernel RNG seed — fixes message-loss coin flips etc.
        n_clients: number of client hosts ``c0 .. c{n-1}``.
        n_files: number of shared files ``/file0 .. /file{n-1}``.
        duration: length of the scheduled workload, virtual seconds.
        drain: extra virtual seconds after ``duration`` for the system to
            quiesce before invariants are evaluated.
        term: fixed lease term granted by the server.
        loss_rate: baseline network loss probability per delivery leg.
        duplicate_rate: baseline duplicate probability per delivery leg.
        rpc_timeout: client retransmission timeout for reads/extensions.
        write_timeout: client retransmission timeout for writes.
        max_retries: client retransmissions before an operation fails.
        batching: run the clients with the request pipeline on, so ops
            submitted at the same instant ship as BatchRequest frames.
            Serialized only when True, so legacy scenario digests (and the
            pinned benchmark mix hashes built from them) are unchanged.
        cache_capacity: client datum-cache capacity.  The default (4096)
            is effectively unbounded for scenario-sized runs; stampede
            scenarios shrink it below the working set.  Pruned at the
            default for digest stability.
        eviction: client cache eviction policy, one of
            :data:`~repro.cache.eviction.EVICTION_KINDS`.  Pruned at
            ``"lru"`` (the seed behaviour).
        shards: number of lease-server shards.  1 (the default, pruned
            from serialization so legacy digests are unchanged) runs the
            classic single-server cluster on host ``"server"``; ``N > 1``
            consistent-hashes the file namespace across server hosts
            ``s0 .. s{N-1}`` (see :mod:`repro.shard`).
        replicas: lease-authority replication factor.  1 (the default,
            pruned like ``shards`` so legacy digests are unchanged) keeps
            the unreplicated authority; ``N > 1`` runs each authority as a
            PaxosLease replica group — hosts ``r0 .. r{N-1}``, or
            ``s{k}r{j}`` per shard when combined with ``shards``
            (see :mod:`repro.replica`).
        workload: the :class:`~repro.workload.models.WorkloadSpec` that
            *generated* ``ops``, carried for provenance and reporting.
            The ops stream stays materialized — replay and shrinking never
            need the model.  Pruned when None.
        may_violate: True when the schedule contains a dangerous §5 clock
            fault, so oracle violations are *possible* (expected-class)
            rather than harness failures.
        ops: the operation stream, in scheduling order.
        faults: the fault schedule, in scheduling order.
    """

    name: str = "scenario"
    seed: int = 0
    n_clients: int = 2
    n_files: int = 2
    duration: float = 30.0
    drain: float = 60.0
    term: float = 5.0
    loss_rate: float = 0.0
    duplicate_rate: float = 0.0
    rpc_timeout: float = 0.5
    write_timeout: float = 2.0
    max_retries: int = 40
    batching: bool = False
    cache_capacity: int = 4096
    eviction: str = "lru"
    shards: int = 1
    replicas: int = 1
    workload: WorkloadSpec | None = None
    may_violate: bool = False
    ops: tuple[Op, ...] = ()
    faults: tuple[Fault, ...] = ()

    # -- derived views ---------------------------------------------------------

    @property
    def hosts(self) -> tuple[str, ...]:
        """Every host name in the cluster (servers first)."""
        return Topology(
            shards=self.shards, replicas=self.replicas, clients=self.n_clients
        ).hosts()

    @property
    def event_count(self) -> int:
        """Total removable events (operations plus faults)."""
        return len(self.ops) + len(self.faults)

    @property
    def has_dangerous_clock_fault(self) -> bool:
        """True when any scheduled clock fault is in a dangerous direction."""
        return any(f.dangerous for f in self.faults)

    def content_for(self, op: Op) -> bytes:
        """The deterministic payload a write operation stores."""
        return f"c{op.client}@{op.at:.3f}".encode()

    def with_events(
        self, ops: Iterable[Op], faults: Iterable[Fault]
    ) -> "Scenario":
        """A copy of this scenario with a different event schedule."""
        return dataclasses.replace(self, ops=tuple(ops), faults=tuple(faults))

    # -- validation ------------------------------------------------------------

    def validate(self) -> None:
        """Check structural well-formedness.

        Raises:
            ValueError: an op or fault references an unknown client, file
                or host, or uses an unknown kind; or a fault has a number
                the runner cannot execute (an ``at`` or ``duration`` that
                is not finite or is negative, a ``drift`` that is not
                finite or is <= -1 — a clock must advance — or a
                ``delta`` that is not finite).
        """
        if self.n_clients < 1:
            raise ValueError(f"need at least one client, got {self.n_clients}")
        if self.n_files < 1:
            raise ValueError(f"need at least one file, got {self.n_files}")
        hosts = set(self.hosts)  # the topology rejects shards/replicas < 1
        for op in self.ops:
            if op.kind not in OP_KINDS:
                raise ValueError(f"unknown op kind {op.kind!r}")
            if not 0 <= op.client < self.n_clients:
                raise ValueError(f"op references unknown client {op.client}")
            if not 0 <= op.file < self.n_files:
                raise ValueError(f"op references unknown file {op.file}")
        for fault in self.faults:
            if fault.kind not in FAULT_KINDS:
                raise ValueError(f"unknown fault kind {fault.kind!r}")
            for field, ok, rule in (
                ("at", math.isfinite(fault.at) and fault.at >= 0.0, "finite and >= 0"),
                ("duration", math.isfinite(fault.duration) and fault.duration >= 0.0,
                 "finite and >= 0"),
                ("drift", math.isfinite(fault.drift) and fault.drift > -1.0,
                 "finite and > -1 (a clock must advance)"),
                ("delta", math.isfinite(fault.delta), "finite"),
            ):
                if not ok:
                    raise ValueError(
                        f"{fault.kind} fault {fault.to_json()}: {field} must be "
                        f"{rule}, got {getattr(fault, field)}"
                    )
            if fault.host and fault.host not in hosts:
                raise ValueError(f"fault references unknown host {fault.host!r}")
            if fault.kind == "partition":
                unknown = set(fault.hosts) - hosts
                if unknown:
                    raise ValueError(f"partition references unknown hosts {sorted(unknown)}")
                if not fault.hosts:
                    raise ValueError("partition fault needs a non-empty host side")
            if fault.kind == "crash" and not fault.host:
                raise ValueError("crash fault needs a host")
            if fault.kind in ("clock_step", "clock_drift") and not fault.host:
                raise ValueError(f"{fault.kind} fault needs a host")
            if fault.kind == "loss" and not 0.0 <= fault.rate <= 1.0:
                raise ValueError(f"loss rate out of range: {fault.rate}")
        if self.cache_capacity < 1:
            raise ValueError(f"cache_capacity must be >= 1: {self.cache_capacity}")
        if self.eviction not in EVICTION_KINDS:
            raise ValueError(
                f"unknown eviction policy {self.eviction!r} "
                f"(have: {', '.join(EVICTION_KINDS)})"
            )
        if self.workload is not None:
            self.workload.validate()

    # -- serialization ---------------------------------------------------------

    def to_json(self) -> dict:
        """Plain-data form of the whole scenario.

        ``batching``, ``cache_capacity``, ``eviction``, ``shards`` and
        ``workload`` are pruned at their defaults (like Fault's optional
        fields) so pre-existing scenarios keep their digests.
        """
        data = {
            "format": FORMAT_VERSION,
            "name": self.name,
            "seed": self.seed,
            "n_clients": self.n_clients,
            "n_files": self.n_files,
            "duration": self.duration,
            "drain": self.drain,
            "term": self.term,
            "loss_rate": self.loss_rate,
            "duplicate_rate": self.duplicate_rate,
            "rpc_timeout": self.rpc_timeout,
            "write_timeout": self.write_timeout,
            "max_retries": self.max_retries,
            "may_violate": self.may_violate,
            "ops": [op.to_json() for op in self.ops],
            "faults": [fault.to_json() for fault in self.faults],
        }
        if self.batching:
            data["batching"] = True
        if self.cache_capacity != 4096:
            data["cache_capacity"] = self.cache_capacity
        if self.eviction != "lru":
            data["eviction"] = self.eviction
        if self.shards != 1:
            data["shards"] = self.shards
        if self.replicas != 1:
            data["replicas"] = self.replicas
        if self.workload is not None:
            data["workload"] = self.workload.to_json()
        return data

    @classmethod
    def from_json(cls, data: dict) -> "Scenario":
        """Rebuild a scenario from :meth:`to_json` output.

        Raises:
            ValueError: the format version is newer than this code.
        """
        version = int(data.get("format", FORMAT_VERSION))
        if version > FORMAT_VERSION:
            raise ValueError(f"scenario format {version} is newer than supported {FORMAT_VERSION}")
        workload_data = data.get("workload")
        workload = None
        if workload_data is not None:
            if not isinstance(workload_data, dict):
                raise ScenarioError(
                    f"workload must be an object, got {type(workload_data).__name__}"
                )
            workload = WorkloadSpec.from_json(workload_data)
        scenario = cls(
            name=str(data.get("name", "scenario")),
            seed=int(data.get("seed", 0)),
            n_clients=int(data.get("n_clients", 2)),
            n_files=int(data.get("n_files", 2)),
            duration=float(data.get("duration", 30.0)),
            drain=float(data.get("drain", 60.0)),
            term=float(data.get("term", 5.0)),
            loss_rate=float(data.get("loss_rate", 0.0)),
            duplicate_rate=float(data.get("duplicate_rate", 0.0)),
            rpc_timeout=float(data.get("rpc_timeout", 0.5)),
            write_timeout=float(data.get("write_timeout", 2.0)),
            max_retries=int(data.get("max_retries", 40)),
            batching=bool(data.get("batching", False)),
            cache_capacity=int(data.get("cache_capacity", 4096)),
            eviction=str(data.get("eviction", "lru")),
            shards=int(data.get("shards", 1)),
            replicas=int(data.get("replicas", 1)),
            workload=workload,
            may_violate=bool(data.get("may_violate", False)),
            ops=tuple(Op.from_json(o) for o in data.get("ops", ())),
            faults=tuple(Fault.from_json(f) for f in data.get("faults", ())),
        )
        scenario.validate()
        return scenario

    def dumps(self, indent: int | None = None) -> str:
        """The scenario as a canonical JSON string (sorted keys)."""
        return json.dumps(self.to_json(), sort_keys=True, indent=indent)

    @classmethod
    def loads(cls, text: str) -> "Scenario":
        """Parse a scenario from a JSON string."""
        return cls.from_json(json.loads(text))

    def save(self, dest: str | IO[str]) -> None:
        """Write the scenario to a path or open text file."""
        if isinstance(dest, (str, bytes)):
            with open(dest, "w", encoding="utf-8") as fh:
                self.save(fh)
            return
        dest.write(self.dumps(indent=2) + "\n")

    @classmethod
    def load(cls, source: str | IO[str]) -> "Scenario":
        """Read a scenario from a path or open text file."""
        if isinstance(source, (str, bytes)):
            with open(source, "r", encoding="utf-8") as fh:
                return cls.load(fh)
        return cls.loads(source.read())

    def digest(self) -> str:
        """SHA-256 of the canonical JSON form — pins the exact schedule."""
        return hashlib.sha256(self.dumps().encode()).hexdigest()
