"""A request's rpc waits back off and never pass its timeout, over seeded
replicated DES scenarios.

Against a replica group :class:`~repro.protocol.client.ClientEngine` arms
``rpc:<id>`` at ``rpc_timeout`` and doubles the wait at every firing, up to
the request's own timeout; a ``NotMaster`` resend re-arms the current wait.
So within one request the armed waits never shrink and never exceed its
timeout.  Arming the full timeout after a rotation, and the short probe
again at the next redirect, breaks the first half.
"""

import dataclasses
from collections import defaultdict

import pytest

from repro.check import run_scenario
from repro.check.generator import GeneratorConfig, ScenarioGenerator
from repro.protocol.effects import SetTimer
from repro.sim.driver import SimClient

BASE_SEED = 1989

REPLICATED = dataclasses.replace(GeneratorConfig.smoke(clock_faults=True), replicas=3)


@pytest.fixture
def armed(monkeypatch):
    """Every ``rpc:`` wait a client arms, as ``(client node, key) ->
    (timeout, [delay, ...])`` in arming order."""
    seen = {}
    run_effects = SimClient._run_effects

    def on_effects(node, effects):
        for effect in effects:
            if isinstance(effect, SetTimer) and effect.key.startswith("rpc:"):
                req = node.engine._requests[int(effect.key.split(":", 1)[1])]
                entry = seen.setdefault((node, effect.key), (req.timeout, []))
                entry[1].append(effect.delay)
        return run_effects(node, effects)

    monkeypatch.setattr(SimClient, "_run_effects", on_effects)
    return seen


def test_rpc_waits_never_shrink_nor_pass_the_timeout(armed):
    generator = ScenarioGenerator(BASE_SEED, REPLICATED)
    scenarios = [generator.generate(index) for index in range(30)]
    for scenario in scenarios:
        run_scenario(scenario)
    bad = defaultdict(list)
    for (node, key), (timeout, delays) in armed.items():
        if any(later < earlier for earlier, later in zip(delays, delays[1:])):
            bad["shrinks"].append((node.host.name, key, delays))
        if max(delays) > timeout:
            bad["exceeds"].append((node.host.name, key, timeout, delays))
    assert dict(bad) == {}
    # Teeth: some write backed off to at least four rpc timeouts.
    (probe,) = {scenario.rpc_timeout for scenario in scenarios}
    assert max(max(delays) for _, delays in armed.values()) >= 4 * probe
