"""Golden-digest harness proving the core fast paths change nothing.

The PR-4 hot-path work (tuple-keyed timer wheel, inline delivery fast
path, allocation diet) is constrained to be *byte-identical* to the seed
behaviour: same trace stream, same per-host message statistics, same
oracle verdicts and history fingerprint, same ``kernel.executed`` count.
This module pins that contract: :data:`CASES` is a fixed scenario set
spanning fault-free runs (which exercise the inline fast path end to
end) and loss / duplication / partition / crash / clock-fault runs
(which must fall back to the slow path leg by leg), and
:func:`core_digest` reduces one run to a comparable record.

``tests/sim/golden/core_digests.json`` was generated from the pre-PR
code by running this file as a script::

    PYTHONPATH=src python tests/sim/equivalence.py

Regenerate it only for an *intentional* behaviour change, never to make
a perf refactor pass.

:data:`TOPOLOGY_CASES` extends the same byte-level contract to the
multi-server topologies (4 shards, 3 replicas, 2 shards x 3 replicas).
``tests/check/golden/topology_digests.json`` was generated from the
four-assembler code, before the assemblers were collapsed into
:func:`repro.sim.driver.build_cluster`, by::

    PYTHONPATH=src python tests/sim/equivalence.py topology
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import sys

from repro.check.generator import GeneratorConfig, ScenarioGenerator
from repro.check.runner import run_scenario
from repro.check.scenario import Scenario
from repro.obs.bus import TraceBus

GOLDEN_PATH = os.path.join(os.path.dirname(__file__), "golden", "core_digests.json")

#: Seed namespace shared with the pinned benchmarks.
BASE_SEED = 1989

#: Grammar with every fault channel disabled: every message leg of these
#: runs satisfies the fast-path preconditions (no loss, no duplication,
#: no link filters ever armed).
QUIET = GeneratorConfig(
    loss_rates=(0.0,),
    duplicate_rates=(0.0,),
    max_client_crashes=0,
    max_partitions=0,
    p_server_crash=0.0,
    p_loss_window=0.0,
)

#: The CI smoke grammar (loss, duplication, crashes, partitions).
SMOKE = GeneratorConfig.smoke()

#: Smoke grammar with §5 clock faults mixed in.
CLOCK = GeneratorConfig.smoke(clock_faults=True)

#: The pinned equivalence set: (label, config, index).  Indices were
#: chosen so the set covers loss, duplication, partitions, client and
#: server crashes, dangerous and safe clock faults, and fully quiet
#: runs (see test_case_set_covers_fault_space).
CASES: list[tuple[str, GeneratorConfig, int]] = (
    [(f"quiet-{i}", QUIET, i) for i in range(8)]
    + [(f"smoke-{i}", SMOKE, i) for i in (0, 1, 3, 5, 6, 7, 9, 10)]
    + [(f"clock-{i}", CLOCK, i) for i in (1, 3, 4, 5, 7, 8, 10, 11)]
)


#: Where the multi-server digests live (beside the other check goldens).
TOPOLOGY_GOLDEN_PATH = os.path.join(
    os.path.dirname(__file__), os.pardir, "check", "golden", "topology_digests.json"
)

#: The multi-server set: smoke grammar at each topology, batching on for
#: the sharded runs and clock faults on for the replicated ones.
TOPOLOGY_CASES: list[tuple[str, GeneratorConfig, int]] = (
    [
        (f"4x1-{i}", dataclasses.replace(GeneratorConfig.smoke(batching=True), shards=4), i)
        for i in range(6)
    ]
    + [
        (f"1x3-{i}", dataclasses.replace(CLOCK, replicas=3), i)
        for i in (0, 1, 2, 3, 4, 5, 13)  # 13: a clock step on a crashing replica
    ]
    + [(f"2x3-{i}", dataclasses.replace(SMOKE, shards=2, replicas=3), i) for i in range(4)]
)


#: The 32 scenarios ``benchmarks/stack`` runs as ``des_sweep`` (16 single,
#: 8 sharded, 8 replicated).  Pinned by schedule digest only, so the
#: benchmark keeps measuring the same work across generator refactors.
SCENARIO_GOLDEN_PATH = os.path.join(
    os.path.dirname(TOPOLOGY_GOLDEN_PATH), "des_sweep_scenarios.json"
)
DES_SWEEP_CASES: list[tuple[str, GeneratorConfig, int]] = (
    [(f"single-{i}", SMOKE, i) for i in range(16)]
    + [
        (f"sharded-{i}", dataclasses.replace(GeneratorConfig.smoke(batching=True), shards=4), i)
        for i in range(8)
    ]
    + [(f"replicated-{i}", dataclasses.replace(SMOKE, replicas=3), i) for i in range(8)]
)


def scenario_for(config: GeneratorConfig, index: int) -> Scenario:
    """The pinned scenario for one equivalence case."""
    return ScenarioGenerator(BASE_SEED, config).generate(index)


def core_digest(scenario: Scenario) -> dict:
    """Run ``scenario`` with full tracing and reduce it to a digest.

    The digest captures every observable the fast paths could disturb:
    the complete obs event stream (hashed as canonical JSON lines), the
    per-host send/receive counters, the oracle's verdict and history
    fingerprint, and the kernel's executed-event count.
    """
    bus = TraceBus(capacity=None)
    result = run_scenario(scenario, obs=bus)
    return {
        "trace_sha": hashlib.sha256(bus.to_jsonl().encode()).hexdigest(),
        "trace_events": len(bus),
        "stats_sha": hashlib.sha256(
            json.dumps(result.stats, sort_keys=True).encode()
        ).hexdigest(),
        "fingerprint": result.fingerprint,
        "verdict": result.verdict,
        "violations": len(result.violations),
        "executed": result.events_executed,
    }


def load_golden(path: str = GOLDEN_PATH) -> dict:
    """The committed pre-PR digests, keyed by case label."""
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def main(which: str = "core") -> None:
    """(Re)generate one golden file from the current code.

    ``core`` and ``topology`` write run digests; ``scenarios`` writes the
    schedule digests of the ``des_sweep`` set.
    """
    cases, path, digest = {
        "core": (CASES, GOLDEN_PATH, core_digest),
        "topology": (TOPOLOGY_CASES, TOPOLOGY_GOLDEN_PATH, core_digest),
        "scenarios": (DES_SWEEP_CASES, SCENARIO_GOLDEN_PATH, Scenario.digest),
    }[which]
    path = os.path.normpath(path)
    digests = {}
    for label, config, index in cases:
        digests[label] = digest(scenario_for(config, index))
        print(f"{label}: {digests[label]}")
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(digests, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote {len(digests)} digests -> {path}")


if __name__ == "__main__":
    main(*sys.argv[1:])
