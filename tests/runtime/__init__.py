"""Asyncio runtime tests, each on a cluster from ``repro.runtime.build_cluster``."""

import asyncio

from repro.runtime import build_cluster


def create_doc(store) -> None:
    """The one file most runtime tests read and write: ``/doc`` at v1."""
    store.create_file("/doc", b"v1")


def run_cluster(scenario, topology, **kwargs) -> None:
    """``asyncio.run`` one ``scenario(cluster)`` on ``build_cluster(topology,
    **kwargs)``, and close the cluster however the scenario ends."""

    async def main():
        cluster = await build_cluster(topology, **kwargs)
        try:
            await scenario(cluster)
        finally:
            await cluster.close()

    asyncio.run(main())


async def elected(cluster, shard: int = 0, timeout: float = 10.0):
    """Poll until shard ``shard`` has a master; return it."""
    deadline = asyncio.get_running_loop().time() + timeout
    while cluster.master_of(shard) is None:
        assert asyncio.get_running_loop().time() < deadline, f"shard {shard}: no master"
        await asyncio.sleep(0.02)
    return cluster.master_of(shard)
