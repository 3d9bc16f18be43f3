"""The reboot contract: each engine a driver crashes builds its own next
incarnation.

``engine.reboot(now)`` returns an engine of the same class that carries
forward exactly what survives a crash:

* a server (every ``ServerEngine`` subclass) — its crash bound as
  ``recovery_delay`` (§2) and its installed-file membership;
* a replica — the restart join delay (the diskless rule);
* a client — its id space, stepped by ``REBOOT_ID_STEP``;
* the TTL baseline — nothing.

Every table, queue, lease and cache starts empty, and a second reboot
with no grants in between keeps the largest bound.
"""

from dataclasses import dataclass
from typing import Any, Callable

import pytest

from repro.baselines.locks import DfsLockServerEngine
from repro.baselines.ttl import TtlServerEngine
from repro.ext.coverage import AdaptiveCoverageServerEngine
from repro.ext.writeback import WriteBackClientEngine, WriteBackServerEngine
from repro.lease.installed import InstalledFileManager
from repro.analytic import v_params
from repro.lease.policy import AdaptiveTermPolicy, FixedTermPolicy
from repro.protocol.client import REBOOT_ID_STEP, ClientEngine
from repro.protocol.effects import Send
from repro.protocol.messages import (
    ReadReply,
    ReadRequest,
    WriteLeaseReply,
    WriteLeaseRequest,
    WriteRequest,
)
from repro.protocol.server import ServerConfig, ServerEngine
from repro.replica.engine import FOLLOWER, MASTER, ReplicaConfig, ReplicaEngine, restart_join_delay
from repro.shard.client import ShardedClientEngine
from repro.storage.store import FileStore
from repro.types import DatumId, FileClass

TERM = 10.0
COVER_TERM = 5.0
DATUM = DatumId.file("f")


def _store() -> FileStore:
    store = FileStore()
    store.create_file("/doc", b"v1")
    store.namespace.mkdir("/bin")
    store.create_file("/bin/cat", b"cat", file_class=FileClass.INSTALLED)
    return store


def _doc(engine):
    return engine.store.file_datum("/doc")


def _cat(engine):
    return engine.store.file_datum("/bin/cat")


# -- servers --------------------------------------------------------------------


def _lease_then_wait(engine):
    """c0 takes a lease on /doc; c1's write then waits for c0."""
    engine.handle_message(ReadRequest(1, _doc(engine)), "c0", 0.0)
    engine.handle_message(WriteRequest(2, _doc(engine), b"v2", write_seq=1), "c1", 0.1)
    return engine


def _server_empty(engine) -> bool:
    return not (
        engine.lease_count()
        or engine._gates
        or engine._ns_queue
        or engine._deferred
        or engine._recovery_queue
        or engine._write_dedup
        or engine._inflight
        or engine.stats  # kept only where read: the coverage server here
        or engine.known_clients
    )


def make_server():
    store = _store()
    installed = InstalledFileManager(announce_period=1.0, term=COVER_TERM)
    installed.register("cover:/bin", store.file_datum("/bin/cat"))
    engine = ServerEngine("server", store, FixedTermPolicy(TERM), installed=installed)
    _lease_then_wait(engine)
    # A covered write withholds its cover from the announcements.
    engine.handle_message(WriteRequest(3, _cat(engine), b"cat2", write_seq=2), "c1", 0.2)
    return engine


def server_empty(engine) -> bool:
    return _server_empty(engine) and not engine.installed.write_pending(_cat(engine))


def make_writeback_server():
    engine = WriteBackServerEngine("server", _store(), FixedTermPolicy(TERM))
    engine.handle_message(ReadRequest(1, _doc(engine)), "c0", 0.0)
    engine.handle_message(WriteLeaseRequest(2, _doc(engine)), "c1", 0.1)  # waits for c0
    engine.handle_message(WriteLeaseRequest(3, _cat(engine)), "c2", 0.2)  # granted
    return engine


def writeback_server_empty(engine) -> bool:
    return _server_empty(engine) and not engine._wlease_owner


def make_coverage_server():
    """Built without a manager; forty readers get /doc promoted."""
    engine = AdaptiveCoverageServerEngine("server", _store(), FixedTermPolicy(TERM))
    for i in range(40):
        engine.handle_message(ReadRequest(i, _doc(engine)), f"c{i}", 0.0)
    engine.handle_timer("coverage", 1.0)
    assert engine.promotions == 1
    return engine


class _Locks(DfsLockServerEngine):
    lock_min_time = 1.0
    lock_hold_time = 4.0


def make_lock_server():
    return _lease_then_wait(_Locks("server", _store(), FixedTermPolicy(TERM)))


def make_ttl_server():
    engine = TtlServerEngine("server", _store(), FixedTermPolicy(TERM))
    engine.handle_message(WriteRequest(1, _doc(engine), b"v2", write_seq=1), "c0", 0.0)
    return engine


def make_replica():
    """A group of one: it elects itself, serves, and grants c0 a lease."""
    config = ReplicaConfig(hosts=("r0",), index=0, max_file_term=TERM)
    engine = ReplicaEngine("r0", _store(), FixedTermPolicy(TERM), config)
    engine.handle_timer("paxos:tick", 0.1)
    assert engine.state == MASTER
    engine.handle_message(ReadRequest(1, _doc(engine)), "c0", 0.2)
    return engine


def replica_empty(engine) -> bool:
    return (
        engine.state == FOLLOWER
        and engine.inner is None
        and not engine._queue
        and engine.acceptor.accepted_remaining(0.0) == 0.0
        and not engine.acceptor.ever_accepted
        and engine.proposer.lease_expiry == 0.0
    )


# -- clients --------------------------------------------------------------------


def _read_then_write(engine):
    """A leased, cached copy of DATUM and a write of it in flight."""
    _, effects = engine.read(DATUM, 0.0)
    (send,) = [e for e in effects if isinstance(e, Send)]
    reply = ReadReply(send.message.req_id, DATUM, version=1, payload=b"x", term=TERM)
    engine.handle_message(reply, send.dst, 0.0)
    engine.write(DATUM, b"y", 0.1)
    return engine


def client_empty(engine) -> bool:
    return not (
        len(engine.cache)
        or engine.leases.held_datums()
        or engine._ops
        or engine._requests
        or engine._own_writes
    )


def make_client():
    return _read_then_write(ClientEngine("c0", "server", id_base=REBOOT_ID_STEP))


def make_sharded_client():
    engine = ShardedClientEngine("c0", ("s0", "s1"), id_base=REBOOT_ID_STEP)
    return _read_then_write(engine)


def sharded_client_empty(engine) -> bool:
    return all(client_empty(inner) for inner in engine.engines)


def make_writeback_client():
    engine = WriteBackClientEngine("c0", "server", id_base=REBOOT_ID_STEP)
    _, (send, *_rest) = engine.acquire_write(DATUM, 0.0)
    engine.handle_message(
        WriteLeaseReply(send.message.req_id, DATUM, version=1, payload=b"x", term=TERM),
        "server",
        0.0,
    )
    engine.local_write(DATUM, b"dirty", 0.1)
    return engine


def writeback_client_empty(engine) -> bool:
    return client_empty(engine) and not engine._dirty and not engine._wleases


# -- the contract -----------------------------------------------------------------


@dataclass
class Case:
    make: Callable[[], Any]
    #: What the incarnation carries from its predecessor.
    carried: Callable[[Any], Any]
    #: ``carried`` after the first reboot, then after a second with no
    #: grants in between.
    expected: tuple
    empty: Callable[[Any], bool]


def recovery_delay(engine) -> float:
    return engine.config.recovery_delay


def id_base(engine) -> int:
    return engine.id_base


CLIENT_BASES = (2 * REBOOT_ID_STEP, 3 * REBOOT_ID_STEP)

CASES = [
    pytest.param(
        Case(
            make_server,
            lambda e: (recovery_delay(e), e.installed.cover_of(_cat(e))),
            ((TERM, "cover:/bin"), (TERM, "cover:/bin")),
            server_empty,
        ),
        id="ServerEngine+installed",
    ),
    pytest.param(
        Case(make_writeback_server, recovery_delay, (TERM, TERM), writeback_server_empty),
        id="WriteBackServerEngine",
    ),
    pytest.param(
        # Promotions chain from boot to boot through InstalledFileManager.fresh.
        Case(
            make_coverage_server,
            lambda e: (recovery_delay(e), e.covered_datums() == {_doc(e)}),
            ((TERM, True), (TERM, True)),
            _server_empty,
        ),
        id="AdaptiveCoverageServerEngine",
    ),
    pytest.param(
        # The crash bound is the breakable minimum the table recorded.
        Case(make_lock_server, recovery_delay, (1.0, 1.0), _server_empty),
        id="DfsLockServerEngine",
    ),
    pytest.param(
        Case(make_ttl_server, lambda e: None, (None, None), lambda e: not e._write_dedup),
        id="TtlServerEngine",
    ),
    pytest.param(
        Case(
            make_replica,
            lambda e: e.config.join_delay == restart_join_delay(e.config) > 0,
            (True, True),
            replica_empty,
        ),
        id="ReplicaEngine",
    ),
    pytest.param(
        Case(make_client, id_base, CLIENT_BASES, client_empty), id="ClientEngine"
    ),
    pytest.param(
        Case(make_sharded_client, id_base, CLIENT_BASES, sharded_client_empty),
        id="ShardedClientEngine",
    ),
    pytest.param(
        Case(make_writeback_client, id_base, CLIENT_BASES, writeback_client_empty),
        id="WriteBackClientEngine",
    ),
]


@pytest.mark.parametrize("case", CASES)
def test_reboot_carries_exactly_what_survives(case):
    engine = case.make()
    assert not case.empty(engine)  # the crash has something to lose
    first = engine.reboot(1.0)
    second = first.reboot(2.0)
    for incarnation, expected in zip((first, second), case.expected):
        assert type(incarnation) is type(engine)
        assert case.carried(incarnation) == expected
        assert case.empty(incarnation)


def test_configured_recovery_delay_outlasts_a_shorter_crash_bound():
    config = ServerConfig(recovery_delay=4.0)
    engine = ServerEngine("server", _store(), FixedTermPolicy(1.0), config=config)
    engine.handle_message(ReadRequest(1, _doc(engine)), "c0", 0.0)  # a 1 s lease
    assert engine.table.max_term_granted == 1.0
    assert recovery_delay(engine.reboot(1.0)) == 4.0


def test_statistics_start_empty_at_every_reboot():
    """A server whose policy reads statistics keeps them, and each
    incarnation starts with none."""
    engine = ServerEngine("server", _store(), AdaptiveTermPolicy(v_params()))
    engine.handle_message(ReadRequest(1, _doc(engine)), "c0", 0.0)
    assert set(engine.stats) == {_doc(engine)}
    first = engine.reboot(1.0)
    assert not first.stats
    first.handle_message(ReadRequest(1, _doc(first)), "c0", 2.0)
    assert set(first.stats) == {_doc(first)}
    assert not first.reboot(3.0).stats
