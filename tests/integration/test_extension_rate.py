"""Long-run check that lease extension traffic is the paper's, not less.

A client that asks only for the leases that are due (see
:class:`repro.lease.holder.LeaseSet`) is faster than one that re-requests
every holding on every miss.  The guard against "faster because it
silently extends less" is the paper's own model: formula (1) with §3.1's
batching predicts ``N R / (1 + R t_c)`` extension requests per second —
one per client per effective term under a steady read stream — and the
hit ratio that goes with them.

Each run is 2 clients x 64 files, Zipf(1.0) popularity, Poisson arrivals
at 10 ops/s per client for 300 simulated seconds, eps = 10 ms.  The pinned
"extend every holding" figures were measured with this file on the commit
before the refresh set (7204a48): they are the traffic the change must
neither fall short of nor exceed.
"""

import random

import pytest

from repro.analytic.model import extension_messages
from repro.analytic.params import SystemParams
from repro.lease.policy import FixedTermPolicy
from repro.protocol.client import ClientConfig
from repro.protocol.messages import ExtendRequest
from repro.protocol.server import ServerConfig
from repro.sim.driver import build_cluster
from repro.sim.network import NetworkParams
from repro.workload.models import ZipfSampler

N_CLIENTS = 2
N_FILES = 64
OP_RATE = 10.0  # per client, per second
DURATION = 300.0
EPSILON = 0.01
SEED = 1989

#: (term, write fraction) -> (extension requests, hit ratio, items per
#: request) of the extend-every-holding client, same seed and workload.
EXTEND_ALL = {
    (2.0, 0.0): (284, 0.9293, 61.5),
    (10.0, 0.0): (58, 0.9684, 62.1),
    (2.0, 0.05): (326, 0.9176, 61.5),
    (10.0, 0.05): (154, 0.9492, 61.6),
}


def run(term: float, write_fraction: float) -> dict:
    """Drive one cluster for ``DURATION`` and count what the model counts."""
    network = NetworkParams()
    cluster = build_cluster(
        n_clients=N_CLIENTS,
        policy=FixedTermPolicy(term),
        network_params=network,
        client_config=ClientConfig(epsilon=EPSILON),
        server_config=ServerConfig(epsilon=EPSILON),
        setup_store=lambda s: [s.create_file(f"/f{k}", b"init") for k in range(N_FILES)],
        seed=SEED,
    )
    datums = [cluster.store.file_datum(f"/f{k}") for k in range(N_FILES)]
    rng = random.Random(SEED)
    zipf = ZipfSampler(N_FILES, alpha=1.0)
    for client in cluster.clients:
        t = rng.expovariate(OP_RATE)
        while t < DURATION:
            datum = datums[zipf.sample(rng)]
            if rng.random() < write_fraction:
                content = f"{client.host.name}@{t:.6f}".encode()
                cluster.kernel.schedule_at(t, lambda c=client, d=datum, b=content: c.write(d, b))
            else:
                cluster.kernel.schedule_at(t, lambda c=client, d=datum: c.read(d))
            t += rng.expovariate(OP_RATE)

    extend_sizes: list[int] = []
    engine = cluster.server.engine
    handle_message = engine.handle_message

    def counting(msg, src, now):
        if isinstance(msg, ExtendRequest):
            extend_sizes.append(len(msg.items))
        return handle_message(msg, src, now)

    engine.handle_message = counting
    cluster.run(until=DURATION + 30.0)

    metrics = [client.engine.metrics for client in cluster.clients]
    reads = sum(m.reads for m in metrics)
    extends = sum(m.extend_requests for m in metrics)
    assert extends == len(extend_sizes)
    assert all(client.engine.outstanding_requests() == 0 for client in cluster.clients)
    params = SystemParams(
        n_clients=N_CLIENTS,
        read_rate=OP_RATE * (1 - write_fraction),
        write_rate=OP_RATE * write_fraction,
        sharing=N_CLIENTS,
        m_prop=network.m_prop,
        m_proc=network.m_proc,
        epsilon=EPSILON,
    )
    return {
        "extends": extends,
        # A request and its reply are the model's two messages.
        "predicted": extension_messages(params, term) / 2 * DURATION,
        "hit_ratio": sum(m.local_hits for m in metrics) / reads,
        "items_per_extend": sum(extend_sizes) / len(extend_sizes),
        "holdings": max(len(client.engine.leases) for client in cluster.clients),
        "server_messages": cluster.network.stats["server"].handled(),
        "failures": sum(m.failures for m in metrics),
        "violations": len(cluster.oracle.violations),
        "reads_checked": cluster.oracle.reads_checked,
    }


@pytest.mark.parametrize("term,write_fraction", sorted(EXTEND_ALL))
def test_extension_traffic_matches_the_model(term, write_fraction):
    got = run(term, write_fraction)
    was_extends, was_hit_ratio, was_items = EXTEND_ALL[term, write_fraction]
    print(
        f"\nT={term:g}s writes={write_fraction:.0%}: extension requests "
        f"predicted {got['predicted']:.1f}, measured {got['extends']} "
        f"(extend-all: {was_extends}); hit ratio {got['hit_ratio']:.4f} "
        f"(extend-all: {was_hit_ratio:.4f}); {got['items_per_extend']:.1f} items "
        f"per request of {got['holdings']} holdings (extend-all: {was_items}); "
        f"{got['server_messages']} server messages"
    )
    assert got["violations"] == 0 and got["failures"] == 0
    assert got["reads_checked"] > 0.9 * N_CLIENTS * OP_RATE * DURATION * (1 - write_fraction)
    assert abs(got["hit_ratio"] - was_hit_ratio) <= 0.005
    if write_fraction == 0:
        # Read-only, every extension is expiry-driven — the model's case —
        # and finds the whole set due: the batch is still the whole set.
        assert got["extends"] == pytest.approx(got["predicted"], rel=0.10)
        assert got["items_per_extend"] > 0.9 * got["holdings"]
    else:
        # Writes add a request per invalidated copy that is read again, on
        # top of the model's expiry-driven floor; those requests are small.
        assert got["predicted"] * 0.9 <= got["extends"] <= was_extends * 1.10
        assert got["items_per_extend"] < 0.9 * was_items


if __name__ == "__main__":
    for key in sorted(EXTEND_ALL):
        print(key, run(*key))
