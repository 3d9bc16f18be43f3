"""The kitchen sink: every mechanism at once, oracle-checked.

One long simulated day: installed binaries under multicast covers, user
files under ordinary leases, namespace churn (creates/renames/deletes),
client crashes, a server crash, partitions and message loss — with
every completed read linearizability-checked.  If any interaction
between mechanisms is unsound, this is where it surfaces.
"""

import random

import pytest

from repro.lease.policy import FixedTermPolicy
from repro.protocol.client import ClientConfig
from repro.protocol.server import ServerConfig
from repro.sim.driver import build_cluster, install_tree
from repro.sim.network import NetworkParams
from repro.types import DatumId

DURATION = 300.0
N_CLIENTS = 5


def build(seed: int, loss_rate: float = 0.0):
    datums: dict[str, DatumId] = {}

    def setup(store):
        datums.update(install_tree(store, "/bin", {"cc": b"cc", "ld": b"ld"}))
        store.namespace.mkdir("/home")
        for i in range(3):
            store.create_file(f"/home/user{i}.txt", b"init")
            datums[f"/home/user{i}.txt"] = store.file_datum(f"/home/user{i}.txt")
        datums["/hot"] = DatumId.file(store.create_file("/hot", b"hot").file_id)

    cluster = build_cluster(
        n_clients=N_CLIENTS,
        policy=FixedTermPolicy(8.0),
        setup_store=setup,
        server_config=ServerConfig(announce_period=5.0),
        cover_term=10.0,
        network_params=NetworkParams(loss_rate=loss_rate),
        client_config=ClientConfig(rpc_timeout=0.5, write_timeout=2.0, max_retries=60),
        seed=seed,
    )
    return cluster, datums


def schedule_workload(cluster, datums, seed: int):
    rng = random.Random(seed)
    user_files = [datums[f"/home/user{i}.txt"] for i in range(3)]
    binaries = [datums["/bin/cc"], datums["/bin/ld"]]
    hot = datums["/hot"]

    for idx, client in enumerate(cluster.clients):
        t = rng.uniform(0.0, 2.0)
        while t < DURATION:
            roll = rng.random()
            if roll < 0.45:
                datum = rng.choice(binaries + [hot])
                cluster.kernel.schedule_at(
                    t, lambda c=client, d=datum: c.host.up and c.read(d)
                )
            elif roll < 0.8:
                datum = rng.choice(user_files)
                cluster.kernel.schedule_at(
                    t, lambda c=client, d=datum: c.host.up and c.read(d)
                )
            elif roll < 0.95:
                datum = rng.choice(user_files)
                payload = f"{client.host.name}@{t:.2f}".encode()
                cluster.kernel.schedule_at(
                    t, lambda c=client, d=datum, p=payload: c.host.up and c.write(d, p)
                )
            else:
                # namespace churn in a private directory per client
                name = f"/home/s{idx}-{int(t)}"
                cluster.kernel.schedule_at(
                    t,
                    lambda c=client, n=name: c.host.up
                    and c.namespace_op("bind", (n, b"scratch", "normal")),
                )
            t += rng.expovariate(1.2)

    # one rare update to an installed binary mid-run
    admin = cluster.clients[0]
    cluster.kernel.schedule_at(
        150.0, lambda: admin.host.up and admin.write(datums["/bin/cc"], b"cc-v2")
    )


def inject_faults(cluster):
    cluster.faults.crash_window("c1", start=60.0, duration=12.0)
    cluster.faults.crash_window("c3", start=180.0, duration=5.0)
    cluster.faults.partition_window(
        ["c2"], ["server"] + [f"c{i}" for i in range(N_CLIENTS) if i != 2], 100.0, 15.0
    )
    cluster.faults.crash_window("server", start=220.0, duration=2.0)


class TestKitchenSink:
    @pytest.mark.parametrize("seed", [0, 1])
    def test_everything_at_once_stays_consistent(self, seed):
        cluster, datums = build(seed)
        schedule_workload(cluster, datums, seed)
        inject_faults(cluster)
        cluster.run(until=DURATION + 90.0)
        assert cluster.oracle.reads_checked > 300
        assert cluster.oracle.clean
        # the installed update committed and is visible
        assert cluster.store.file_at("/bin/cc").content == b"cc-v2"

    def test_with_message_loss_too(self):
        cluster, datums = build(seed=7, loss_rate=0.08)
        schedule_workload(cluster, datums, seed=7)
        inject_faults(cluster)
        cluster.run(until=DURATION + 120.0)
        assert cluster.oracle.reads_checked > 200
        assert cluster.oracle.clean

    def test_deterministic_replay(self):
        def run(seed):
            cluster, datums = build(seed)
            schedule_workload(cluster, datums, seed)
            inject_faults(cluster)
            cluster.run(until=DURATION + 90.0)
            return (
                cluster.oracle.reads_checked,
                {k: dict(v.received) for k, v in cluster.network.stats.items()},
            )

        assert run(3) == run(3)
