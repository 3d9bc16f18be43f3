"""Tests for the path-based API: name resolution through leased datums."""

import asyncio

import pytest

from repro.errors import NoSuchFileError, NotADirectoryError_
from repro.lease.policy import FixedTermPolicy
from repro.protocol.client import ClientConfig
from repro.protocol.server import ServerConfig
from repro.runtime import pathapi
from repro.topology import Topology

from tests.runtime import run_cluster


def setup(store):
    store.namespace.mkdir("/docs")
    store.create_file("/docs/paper.tex", b"\\title{Leases}")
    store.create_file("/readme", b"top-level")


def on_cluster(scenario):
    """Run ``scenario(cluster, client)`` on one server holding
    ``/docs/paper.tex`` and ``/readme``, and two clients."""
    run_cluster(
        lambda cluster: scenario(cluster, cluster.client(0)),
        Topology(clients=2),
        policy=FixedTermPolicy(5.0),
        server_config=ServerConfig(epsilon=0.01, announce_period=1.0, sweep_period=10.0),
        client_config=ClientConfig(epsilon=0.01),
        setup_store=setup,
    )


class TestResolution:
    def test_read_file_by_path(self):
        async def scenario(cluster, client):
            version, payload = await pathapi.read_file(client, "/docs/paper.tex")
            assert payload == b"\\title{Leases}"

        on_cluster(scenario)

    def test_repeated_resolution_is_cached(self):
        """§2: a repeated open works entirely from the cache — the
        directory datums along the path are leased too."""

        async def scenario(cluster, client):
            await pathapi.read_file(client, "/docs/paper.tex")
            cluster.hub.isolate("c0")  # no network available at all
            version, payload = await asyncio.wait_for(
                pathapi.read_file(client, "/docs/paper.tex"), 0.2
            )
            assert payload == b"\\title{Leases}"

        on_cluster(scenario)

    def test_missing_component_raises(self):
        async def scenario(cluster, client):
            with pytest.raises(NoSuchFileError):
                await pathapi.read_file(client, "/docs/ghost.tex")

        on_cluster(scenario)

    def test_file_used_as_directory_raises(self):
        async def scenario(cluster, client):
            with pytest.raises(NotADirectoryError_):
                await pathapi.read_file(client, "/readme/inside")

        on_cluster(scenario)

    def test_list_dir(self):
        async def scenario(cluster, client):
            names = [e[0] for e in await pathapi.list_dir(client, "/")]
            assert names == ["docs", "readme"]

        on_cluster(scenario)


class TestMutation:
    def test_create_write_read(self):
        async def scenario(cluster, client):
            await pathapi.create_file(client, "/docs/notes.txt", b"n1")
            version = await pathapi.write_file(client, "/docs/notes.txt", b"n2")
            assert version == 2
            assert (await pathapi.read_file(client, "/docs/notes.txt"))[1] == b"n2"

        on_cluster(scenario)

    def test_rename_invalidates_cached_resolution(self):
        """A rename is a write to the directory datum: the resolver's
        cached binding is invalidated through the approval callback."""

        async def scenario(cluster, client):
            other = cluster.client(1)
            await pathapi.read_file(client, "/docs/paper.tex")  # caches /docs
            await pathapi.rename(other, "/docs/paper.tex", "/docs/final.tex")
            with pytest.raises(NoSuchFileError):
                await pathapi.resolve(client, "/docs/paper.tex")
            version, payload = await pathapi.read_file(client, "/docs/final.tex")
            assert payload == b"\\title{Leases}"

        on_cluster(scenario)

    def test_unlink(self):
        async def scenario(cluster, client):
            await pathapi.unlink(client, "/readme")
            with pytest.raises(NoSuchFileError):
                await pathapi.resolve(client, "/readme")

        on_cluster(scenario)

    def test_mkdir_and_nested_create(self):
        async def scenario(cluster, client):
            await pathapi.mkdir(client, "/new")
            await pathapi.create_file(client, "/new/file", b"x")
            assert (await pathapi.read_file(client, "/new/file"))[1] == b"x"

        on_cluster(scenario)
