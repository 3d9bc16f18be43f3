"""Unit tests for the server engine, driven sans-io."""

import pytest

from repro.lease.installed import InstalledFileManager
from repro.lease.policy import FixedTermPolicy
from repro.protocol.effects import Broadcast, CancelTimer, Send, SetTimer
from repro.protocol.messages import (
    ApprovalReply,
    ApprovalRequest,
    ExtendReply,
    ExtendRequest,
    NamespaceReply,
    NamespaceRequest,
    ReadReply,
    ReadRequest,
    RelinquishRequest,
    WriteLeaseReply,
    WriteLeaseRequest,
    WriteReply,
    WriteRequest,
)
from repro.protocol.server import ServerConfig, ServerEngine
from repro.storage.store import FileStore
from repro.types import DatumId, FileClass


def make_engine(term=10.0, installed=None, config=None, store=None):
    if store is None:
        store = FileStore()
        store.create_file("/f", b"v1")
    engine = ServerEngine(
        "server",
        store,
        FixedTermPolicy(term),
        config=config or ServerConfig(),
        installed=installed,
    )
    return engine, store


def timers(effects):
    return [e for e in effects if isinstance(e, SetTimer)]


def sends(effects, msg_type=None):
    out = [e for e in effects if isinstance(e, Send)]
    if msg_type is not None:
        out = [e for e in out if isinstance(e.message, msg_type)]
    return out


class TestRead:
    def test_read_returns_payload_and_lease(self):
        engine, store = make_engine()
        datum = store.file_datum("/f")
        effects = engine.handle_message(ReadRequest(1, datum), "c0", now=0.0)
        (send,) = sends(effects, ReadReply)
        assert send.dst == "c0"
        assert send.message.payload == b"v1"
        assert send.message.version == 1
        assert send.message.term == 10.0
        assert engine.table.live_holders(datum, 1.0) == {"c0"}

    def test_read_with_current_cached_version_omits_payload(self):
        engine, store = make_engine()
        datum = store.file_datum("/f")
        effects = engine.handle_message(
            ReadRequest(1, datum, cached_version=1), "c0", now=0.0
        )
        (send,) = sends(effects, ReadReply)
        assert send.message.payload is None
        assert send.message.version == 1

    def test_read_missing_datum_errors(self):
        engine, store = make_engine()
        effects = engine.handle_message(
            ReadRequest(1, DatumId.file("file:999")), "c0", now=0.0
        )
        (send,) = sends(effects, ReadReply)
        assert send.message.error is not None

    def test_zero_term_policy_grants_no_lease(self):
        engine, store = make_engine(term=0.0)
        datum = store.file_datum("/f")
        effects = engine.handle_message(ReadRequest(1, datum), "c0", now=0.0)
        (send,) = sends(effects, ReadReply)
        assert send.message.term == 0.0
        assert engine.table.lease_count() == 0

    def test_read_deferred_while_write_pending(self):
        engine, store = make_engine()
        datum = store.file_datum("/f")
        engine.handle_message(ReadRequest(1, datum), "c0", now=0.0)
        engine.handle_message(WriteRequest(2, datum, b"v2", write_seq=1), "c1", now=1.0)
        effects = engine.handle_message(ReadRequest(3, datum), "c2", now=1.5)
        assert effects == []  # deferred, not refused
        # approval from c0 commits the write, which flushes the read
        effects = engine.handle_message(ApprovalReply(datum, 1), "c0", now=2.0)
        read_replies = sends(effects, ReadReply)
        assert len(read_replies) == 1
        assert read_replies[0].message.version == 2

    def test_directory_datum_readable(self):
        engine, store = make_engine()
        datum = store.dir_datum("/")
        effects = engine.handle_message(ReadRequest(1, datum), "c0", now=0.0)
        (send,) = sends(effects, ReadReply)
        assert send.message.error is None
        assert any(name == "f" for name, *_ in send.message.payload)


class TestExtend:
    def test_extend_grants_all_clean_items(self):
        engine, store = make_engine()
        store.create_file("/g", b"g1")
        d1, d2 = store.file_datum("/f"), store.file_datum("/g")
        effects = engine.handle_message(
            ExtendRequest(1, ((d1, 1), (d2, 1))), "c0", now=0.0
        )
        (send,) = sends(effects, ExtendReply)
        assert len(send.message.grants) == 2
        assert all(not g.changed for g in send.message.grants)

    def test_extend_sends_payload_when_changed(self):
        engine, store = make_engine()
        datum = store.file_datum("/f")
        store.commit_file_write(datum, b"v2", now=0.5)
        effects = engine.handle_message(ExtendRequest(1, ((datum, 1),)), "c0", now=1.0)
        (send,) = sends(effects, ExtendReply)
        (grant,) = send.message.grants
        assert grant.changed
        assert grant.payload == b"v2"
        assert grant.version == 2

    def test_extend_denied_while_write_pending(self):
        engine, store = make_engine()
        datum = store.file_datum("/f")
        engine.handle_message(ReadRequest(1, datum), "c0", now=0.0)
        engine.handle_message(WriteRequest(2, datum, b"v2", write_seq=1), "c1", now=1.0)
        effects = engine.handle_message(ExtendRequest(3, ((datum, 1),)), "c2", now=1.5)
        (send,) = sends(effects, ExtendReply)
        assert send.message.denied == (datum,)
        assert send.message.grants == ()

    def test_extend_denies_missing_datum(self):
        engine, store = make_engine()
        ghost = DatumId.file("file:999")
        effects = engine.handle_message(ExtendRequest(1, ((ghost, 1),)), "c0", now=0.0)
        (send,) = sends(effects, ExtendReply)
        assert send.message.denied == (ghost,)


class TestWrite:
    def test_unshared_write_commits_immediately(self):
        engine, store = make_engine()
        datum = store.file_datum("/f")
        effects = engine.handle_message(
            WriteRequest(1, datum, b"v2", write_seq=1), "c0", now=0.0
        )
        (send,) = sends(effects, WriteReply)
        assert send.message.version == 2
        assert store.file_at("/f").content == b"v2"

    def test_writer_with_own_lease_needs_no_approval(self):
        engine, store = make_engine()
        datum = store.file_datum("/f")
        engine.handle_message(ReadRequest(1, datum), "c0", now=0.0)
        effects = engine.handle_message(
            WriteRequest(2, datum, b"v2", write_seq=1), "c0", now=1.0
        )
        assert sends(effects, WriteReply)
        assert not [e for e in effects if isinstance(e, Broadcast)]

    def test_shared_write_broadcasts_approval_requests(self):
        engine, store = make_engine()
        datum = store.file_datum("/f")
        engine.handle_message(ReadRequest(1, datum), "c0", now=0.0)
        engine.handle_message(ReadRequest(2, datum), "c1", now=0.0)
        effects = engine.handle_message(
            WriteRequest(3, datum, b"v2", write_seq=1), "c2", now=1.0
        )
        (broadcast,) = [e for e in effects if isinstance(e, Broadcast)]
        assert set(broadcast.dsts) == {"c0", "c1"}
        assert isinstance(broadcast.message, ApprovalRequest)
        assert broadcast.message.new_version == 2
        # and a deadline timer for lease expiry
        assert any(
            isinstance(e, SetTimer) and e.key.startswith("write:") for e in effects
        )

    def test_write_commits_after_all_approvals(self):
        engine, store = make_engine()
        datum = store.file_datum("/f")
        engine.handle_message(ReadRequest(1, datum), "c0", now=0.0)
        engine.handle_message(ReadRequest(2, datum), "c1", now=0.0)
        engine.handle_message(WriteRequest(3, datum, b"v2", write_seq=1), "c2", now=1.0)
        assert engine.handle_message(ApprovalReply(datum, 1), "c0", now=1.1) == []
        effects = engine.handle_message(ApprovalReply(datum, 1), "c1", now=1.2)
        (send,) = sends(effects, WriteReply)
        assert send.message.version == 2

    def test_write_commits_at_lease_expiry_without_approvals(self):
        """An unreachable leaseholder delays the write only one term (§5)."""
        engine, store = make_engine(term=10.0)
        datum = store.file_datum("/f")
        engine.handle_message(ReadRequest(1, datum), "c0", now=0.0)
        effects = engine.handle_message(
            WriteRequest(2, datum, b"v2", write_seq=1), "c1", now=1.0
        )
        (timer,) = [e for e in effects if isinstance(e, SetTimer)]
        assert timer.delay == pytest.approx(9.0)  # until the lease expires
        effects = engine.handle_timer(timer.key, now=10.0)
        (send,) = sends(effects, WriteReply)
        assert send.message.version == 2

    def shared_write(self):
        """c0 holds to t=10 and stays silent, c1 holds to t=14; c2 writes."""
        engine, store = make_engine(term=10.0)
        datum = store.file_datum("/f")
        engine.handle_message(ReadRequest(1, datum), "c0", now=0.0)
        engine.handle_message(ReadRequest(2, datum), "c1", now=4.0)
        effects = engine.handle_message(
            WriteRequest(3, datum, b"v2", write_seq=1), "c2", now=5.0
        )
        (timer,) = timers(effects)
        assert (timer.key, timer.delay) == ("write:1", pytest.approx(9.0))
        return engine, datum

    def test_approval_that_moves_the_deadline_moves_the_timer(self):
        """The write waits for the latest lease among the holders who have
        *not answered*, not among all it asked (found by reading the
        deadline sites: the deadline moved, the timer armed from it did
        not, and the commit came at 14.0)."""
        engine, datum = self.shared_write()
        effects = engine.handle_message(ApprovalReply(datum, 1), "c1", now=5.1)
        (timer,) = effects
        assert timer == SetTimer("write:1", pytest.approx(4.9))
        effects = engine.handle_timer("write:1", now=10.0)
        (send,) = sends(effects, WriteReply)
        assert send.message.version == 2

    def test_approval_that_leaves_the_deadline_alone_sets_no_timer(self):
        engine, datum = self.shared_write()
        assert engine.handle_message(ApprovalReply(datum, 1), "c0", now=5.1) == []
        assert engine.handle_timer("write:1", now=10.0) == [
            SetTimer("write:1", pytest.approx(4.0))
        ]  # c1 is still unanswered: nothing commits before its lease ends
        assert sends(engine.handle_timer("write:1", now=14.0), WriteReply)

    def test_early_commit_cancels_its_timer(self):
        """The timer ends with the wait: a write every holder approved
        before its deadline takes its ``write:`` timer with it."""
        engine, datum = self.shared_write()
        engine.handle_message(ApprovalReply(datum, 1), "c0", now=5.1)
        effects = engine.handle_message(ApprovalReply(datum, 1), "c1", now=5.2)
        assert CancelTimer("write:1") in effects
        assert sends(effects, WriteReply)

    def test_relinquish_rearms_only_when_the_deadline_moved(self):
        engine, datum = self.shared_write()
        assert engine.handle_message(RelinquishRequest((datum,)), "c0", now=5.1) == []
        engine, datum = self.shared_write()
        effects = engine.handle_message(RelinquishRequest((datum,)), "c1", now=5.1)
        assert effects == [SetTimer("write:1", pytest.approx(4.9))]
        effects = engine.handle_message(RelinquishRequest((datum,)), "c0", now=5.2)
        assert sends(effects, WriteReply)  # nobody left to wait for

    def test_cas_write_queued_behind_a_commit_is_rejected_without_asking(self):
        engine, store = make_engine()
        datum = store.file_datum("/f")
        engine.handle_message(ReadRequest(1, datum), "c0", now=0.0)
        engine.handle_message(WriteRequest(2, datum, b"A", write_seq=1), "c1", now=1.0)
        queued = engine.handle_message(
            WriteRequest(3, datum, b"B", write_seq=1, cas=1), "c2", now=1.0
        )
        assert queued == []
        effects = engine.handle_message(ApprovalReply(datum, 1), "c0", now=1.1)
        first, second = sends(effects, WriteReply)
        assert (first.dst, first.message.version) == ("c1", 2)
        assert second.dst == "c2" and "cas mismatch" in second.message.error
        assert not [e for e in effects if isinstance(e, (Broadcast, SetTimer))]
        assert store.file_at("/f").content == b"A"
        assert not engine.table.write_pending(datum)

    def test_writes_serialize_in_arrival_order(self):
        engine, store = make_engine()
        datum = store.file_datum("/f")
        engine.handle_message(ReadRequest(1, datum), "c0", now=0.0)
        engine.handle_message(WriteRequest(2, datum, b"A", write_seq=1), "c1", now=1.0)
        engine.handle_message(WriteRequest(3, datum, b"B", write_seq=1), "c2", now=1.0)
        effects = engine.handle_message(ApprovalReply(datum, 1), "c0", now=1.1)
        # first write committed; second now waits on c0's still-live lease
        assert sends(effects, WriteReply)[0].message.version == 2
        effects = engine.handle_message(ApprovalReply(datum, 2), "c0", now=1.2)
        assert sends(effects, WriteReply)[0].message.version == 3
        assert store.file_at("/f").content == b"B"

    def test_duplicate_write_seq_commits_once(self):
        engine, store = make_engine()
        datum = store.file_datum("/f")
        engine.handle_message(WriteRequest(1, datum, b"v2", write_seq=7), "c0", now=0.0)
        effects = engine.handle_message(
            WriteRequest(9, datum, b"v2", write_seq=7), "c0", now=0.5
        )
        (send,) = sends(effects, WriteReply)
        assert send.message.version == 2  # replayed result, no second commit
        assert store.file_at("/f").version == 2

    def test_inflight_retransmission_swallowed(self):
        engine, store = make_engine()
        datum = store.file_datum("/f")
        engine.handle_message(ReadRequest(1, datum), "c0", now=0.0)
        engine.handle_message(WriteRequest(2, datum, b"v2", write_seq=1), "c1", now=1.0)
        effects = engine.handle_message(
            WriteRequest(2, datum, b"v2", write_seq=1), "c1", now=2.0
        )
        assert effects == []

    def test_write_to_directory_datum_rejected(self):
        engine, store = make_engine()
        datum = store.dir_datum("/")
        effects = engine.handle_message(
            WriteRequest(1, datum, b"x", write_seq=1), "c0", now=0.0
        )
        (send,) = sends(effects, WriteReply)
        assert send.message.error is not None

    def test_stale_approval_is_ignored(self):
        engine, store = make_engine()
        datum = store.file_datum("/f")
        assert engine.handle_message(ApprovalReply(datum, 42), "c0", now=0.0) == []


class TestStarvationGuard:
    def test_no_new_leases_while_write_waits(self):
        """Footnote 1: reads defer rather than racing the writer."""
        engine, store = make_engine()
        datum = store.file_datum("/f")
        engine.handle_message(ReadRequest(1, datum), "c0", now=0.0)
        engine.handle_message(WriteRequest(2, datum, b"v2", write_seq=1), "c1", now=1.0)
        # A stream of reads must not extend the wait indefinitely.
        for i, t in enumerate((1.1, 1.2, 1.3)):
            assert engine.handle_message(ReadRequest(10 + i, datum), f"r{i}", now=t) == []
        effects = engine.handle_message(ApprovalReply(datum, 1), "c0", now=2.0)
        replies = sends(effects, ReadReply)
        assert len(replies) == 3
        assert all(r.message.version == 2 for r in replies)


class TestRecovery:
    def test_crash_drops_the_table_and_returns_the_bound(self):
        """The §2 crash rule, computed once for every driver: the longest
        term a pre-crash lease may still run for, table and cover alike."""
        engine, store = make_engine(term=30.0)
        datum = store.file_datum("/f")
        engine.handle_message(ReadRequest(1, datum), "c0", now=0.0)
        assert engine.crash() == 30.0
        assert not engine.table.live_holders(datum, 1.0)
        assert engine.crash() == 0.0  # nothing granted since

    def test_crash_bound_covers_the_installed_term(self):
        installed = InstalledFileManager(announce_period=5.0, term=45.0)
        engine, _ = make_engine(term=30.0, installed=installed)
        assert engine.crash() == 45.0  # announced to all, recorded for none

    def test_writes_deferred_during_recovery(self):
        store = FileStore()
        store.create_file("/f", b"v1")
        engine = ServerEngine(
            "server",
            store,
            FixedTermPolicy(10.0),
            config=ServerConfig(recovery_delay=10.0),
            now=100.0,
        )
        startup = engine.startup_effects(100.0)
        assert any(
            isinstance(e, SetTimer) and e.key == "recovery" for e in startup
        )
        datum = store.file_datum("/f")
        assert (
            engine.handle_message(WriteRequest(1, datum, b"v2", write_seq=1), "c0", 101.0)
            == []
        )
        # reads are fine during recovery
        effects = engine.handle_message(ReadRequest(2, datum), "c1", 102.0)
        assert sends(effects, ReadReply)
        # recovery ends: the write replays and commits
        effects = engine.handle_timer("recovery", now=110.0)
        deadline_timers = [e for e in effects if isinstance(e, SetTimer)]
        # c1 got a lease during recovery, so the write now awaits it
        assert any(t.key.startswith("write:") for t in deadline_timers)

    def test_recovering_clears_after_window(self):
        """Regression: ``recovering`` used to stay True forever once
        ``recovery_delay > 0`` — it compared the deadline against the
        boot-time ``now`` instead of the current time."""
        store = FileStore()
        store.create_file("/f", b"v1")
        engine = ServerEngine(
            "server",
            store,
            FixedTermPolicy(10.0),
            config=ServerConfig(recovery_delay=5.0),
            now=0.0,
        )
        engine.startup_effects(0.0)
        assert engine.recovering
        engine.handle_timer("recovery", now=5.0)
        assert not engine.recovering

    def test_recovering_clears_on_any_authoritative_check(self):
        """Even before the recovery timer fires, handling a write past the
        window must both commit it and flip ``recovering`` off."""
        store = FileStore()
        store.create_file("/f", b"v1")
        engine = ServerEngine(
            "server",
            store,
            FixedTermPolicy(10.0),
            config=ServerConfig(recovery_delay=5.0),
            now=0.0,
        )
        datum = store.file_datum("/f")
        effects = engine.handle_message(
            WriteRequest(1, datum, b"v2", write_seq=1), "c0", now=6.0
        )
        assert sends(effects, WriteReply)  # committed, not queued
        assert not engine.recovering

    def test_recovery_emits_begin_hold_end_events(self):
        from repro.obs import TraceBus

        bus = TraceBus(capacity=None)
        store = FileStore()
        store.create_file("/f", b"v1")
        engine = ServerEngine(
            "server",
            store,
            FixedTermPolicy(10.0),
            config=ServerConfig(recovery_delay=5.0),
            now=0.0,
            obs=bus,
        )
        engine.startup_effects(0.0)
        datum = store.file_datum("/f")
        engine.handle_message(WriteRequest(1, datum, b"v2", write_seq=1), "c0", 1.0)
        engine.handle_timer("recovery", now=5.0)
        assert bus.events("recovery.begin")[0]["until"] == 5.0
        assert bus.events("recovery.hold")[0]["src"] == "c0"
        assert bus.events("recovery.end")[0]["queued"] == 1

    @pytest.mark.parametrize("recovery_delay", [0.0, 5.0])
    def test_a_closed_window_stays_closed_when_the_clock_steps_back(
        self, recovery_delay
    ):
        """Boot at t, let any recovery window close, step the clock back to
        t - 3: the write commits.  Before, ``now < _recovering_until`` held
        again, so the write was queued for a ``recovery`` timer that was
        never armed (a replica's inner server boots with no window) or had
        already fired — and every retransmission was swallowed."""
        store = FileStore()
        store.create_file("/f", b"v1")
        boot = 100.0
        engine = ServerEngine(
            "server",
            store,
            FixedTermPolicy(10.0),
            config=ServerConfig(recovery_delay=recovery_delay),
            now=boot,
        )
        engine.startup_effects(boot)
        if recovery_delay:
            engine.handle_timer("recovery", now=boot + recovery_delay)
        datum = store.file_datum("/f")
        effects = engine.handle_message(
            WriteRequest(1, datum, b"v2", write_seq=1), "c0", now=boot - 3.0
        )
        (send,) = sends(effects, WriteReply)
        assert send.message.version == 2
        assert not engine.recovering

    def test_retransmission_during_recovery_not_duplicated(self):
        store = FileStore()
        store.create_file("/f", b"v1")
        engine = ServerEngine(
            "server",
            store,
            FixedTermPolicy(10.0),
            config=ServerConfig(recovery_delay=5.0),
            now=0.0,
        )
        datum = store.file_datum("/f")
        engine.handle_message(WriteRequest(1, datum, b"v2", write_seq=1), "c0", 1.0)
        engine.handle_message(WriteRequest(1, datum, b"v2", write_seq=1), "c0", 2.0)
        effects = engine.handle_timer("recovery", now=5.0)
        assert store.file_at("/f").version == 2  # exactly one commit
        assert len(sends(effects, WriteReply)) == 1


class TestNamespace:
    def test_mkdir_and_bind(self):
        engine, store = make_engine()
        effects = engine.handle_message(
            NamespaceRequest(1, "mkdir", ("/src",), write_seq=1), "c0", now=0.0
        )
        (send,) = sends(effects, NamespaceReply)
        assert send.message.error is None
        effects = engine.handle_message(
            NamespaceRequest(2, "bind", ("/src/a.c", b"int main;", "normal"), write_seq=2),
            "c0",
            now=0.1,
        )
        (send,) = sends(effects, NamespaceReply)
        assert send.message.error is None
        assert store.file_at("/src/a.c").content == b"int main;"

    def test_rename_requires_approval_of_dir_leaseholders(self):
        engine, store = make_engine()
        root = store.dir_datum("/")
        engine.handle_message(ReadRequest(1, root), "c0", now=0.0)
        effects = engine.handle_message(
            NamespaceRequest(2, "rename", ("/f", "/g"), write_seq=1), "c1", now=1.0
        )
        (broadcast,) = [e for e in effects if isinstance(e, Broadcast)]
        assert broadcast.dsts == ("c0",)
        effects = engine.handle_message(
            ApprovalReply(root, broadcast.message.write_id), "c0", now=1.1
        )
        (send,) = sends(effects, NamespaceReply)
        assert send.message.error is None
        assert store.file_at("/g").content == b"v1"

    def test_unbind_removes_file(self):
        engine, store = make_engine()
        effects = engine.handle_message(
            NamespaceRequest(1, "unbind", ("/f",), write_seq=1), "c0", now=0.0
        )
        (send,) = sends(effects, NamespaceReply)
        assert send.message.error is None
        assert store.file_count() == 0

    def test_namespace_error_propagates(self):
        engine, store = make_engine()
        effects = engine.handle_message(
            NamespaceRequest(1, "unbind", ("/ghost",), write_seq=1), "c0", now=0.0
        )
        (send,) = sends(effects, NamespaceReply)
        assert send.message.error is not None

    def test_namespace_ops_serialize_globally(self):
        engine, store = make_engine()
        root = store.dir_datum("/")
        engine.handle_message(ReadRequest(1, root), "c0", now=0.0)
        e1 = engine.handle_message(
            NamespaceRequest(2, "mkdir", ("/a",), write_seq=1), "c1", now=1.0
        )
        assert [e for e in e1 if isinstance(e, Broadcast)]
        e2 = engine.handle_message(
            NamespaceRequest(3, "mkdir", ("/b",), write_seq=1), "c2", now=1.0
        )
        assert e2 == []  # queued behind the first
        root_pending = [e for e in e1 if isinstance(e, Broadcast)][0]
        effects = engine.handle_message(
            ApprovalReply(root, root_pending.message.write_id), "c0", now=1.1
        )
        # first committed; second activated and needs c0's approval again
        replies = sends(effects, NamespaceReply)
        assert len(replies) == 1
        assert [e for e in effects if isinstance(e, Broadcast)]


class TestInstalled:
    def make_installed(self):
        store = FileStore()
        store.namespace.mkdir("/bin")
        record = store.create_file("/bin/latex", b"bin-v1", file_class=FileClass.INSTALLED)
        installed = InstalledFileManager(announce_period=5.0, term=10.0)
        datum = DatumId.file(record.file_id)
        installed.register("cover:/bin", datum)
        engine = ServerEngine(
            "server", store, FixedTermPolicy(10.0), installed=installed
        )
        return engine, store, datum

    def test_startup_announces_and_rearms(self):
        engine, store, datum = self.make_installed()
        engine.known_clients.add("c0")
        effects = engine.startup_effects(0.0)
        assert any(isinstance(e, Broadcast) for e in effects)
        assert any(isinstance(e, SetTimer) and e.key == "announce" for e in effects)

    def test_read_of_covered_datum_keeps_no_record(self):
        """§4: the server need not track leaseholders of installed files."""
        engine, store, datum = self.make_installed()
        engine.startup_effects(0.0)
        effects = engine.handle_message(ReadRequest(1, datum), "c0", now=1.0)
        (send,) = sends(effects, ReadReply)
        assert send.message.cover == "cover:/bin"
        assert send.message.term == pytest.approx(9.0)  # rest of announce window
        assert engine.table.lease_count() == 0

    def test_covered_write_waits_out_announcement(self):
        engine, store, datum = self.make_installed()
        engine.startup_effects(0.0)  # announcement at t=0, expires t=10
        effects = engine.handle_message(
            WriteRequest(1, datum, b"bin-v2", write_seq=1), "c0", now=2.0
        )
        (timer,) = [e for e in effects if isinstance(e, SetTimer)]
        assert timer.key.startswith("write:")
        assert timer.delay == pytest.approx(10.0 - 2.0 + engine.config.announce_grace)
        effects = engine.handle_timer(timer.key, now=2.0 + timer.delay)
        (send,) = sends(effects, WriteReply)
        assert send.message.version == 2

    def test_excluded_cover_not_announced_until_write_done(self):
        engine, store, datum = self.make_installed()
        engine.known_clients.add("c0")
        engine.startup_effects(0.0)
        effects = engine.handle_message(
            WriteRequest(1, datum, b"v2", write_seq=1), "c0", now=2.0
        )
        (timer,) = [e for e in effects if isinstance(e, SetTimer)]
        announce = engine.handle_timer("announce", now=5.0)
        assert not any(isinstance(e, Broadcast) for e in announce)
        engine.handle_timer(timer.key, now=2.0 + timer.delay)
        announce = engine.handle_timer("announce", now=15.0)
        assert any(isinstance(e, Broadcast) for e in announce)

    def test_reads_deferred_during_covered_write(self):
        engine, store, datum = self.make_installed()
        engine.startup_effects(0.0)
        engine.handle_message(WriteRequest(1, datum, b"v2", write_seq=1), "c0", now=2.0)
        assert engine.handle_message(ReadRequest(2, datum), "c1", now=3.0) == []

    def test_update_changes_the_announced_cover_id(self):
        """Regression (found by the kitchen-sink test): re-announcing the
        pre-update cover id would revive expired leases over stale cached
        copies at every client.  After an update the cover must be
        announced under a new id so old holdings stay dead."""
        engine, store, datum = self.make_installed()
        engine.known_clients.add("c0")
        engine.startup_effects(0.0)
        old_reply = engine.handle_message(ReadRequest(1, datum), "c0", now=1.0)
        old_cover = sends(old_reply, ReadReply)[0].message.cover
        effects = engine.handle_message(
            WriteRequest(2, datum, b"v2", write_seq=1), "c0", now=2.0
        )
        (timer,) = [e for e in effects if isinstance(e, SetTimer)]
        engine.handle_timer(timer.key, now=2.0 + timer.delay)  # commit
        announce = engine.handle_timer("announce", now=15.0)
        (broadcast,) = [e for e in announce if isinstance(e, Broadcast)]
        assert old_cover not in broadcast.message.covers
        new_reply = engine.handle_message(ReadRequest(3, datum), "c0", now=16.0)
        new_cover = sends(new_reply, ReadReply)[0].message.cover
        assert new_cover != old_cover
        assert new_cover in broadcast.message.covers


    def promoted(self, term):
        """c0 takes an ordinary lease at t=0; at t=1 the datum is promoted
        into a cover (§7) that is announced at once, to t=11."""
        store = FileStore()
        store.create_file("/f", b"v1")
        installed = InstalledFileManager(announce_period=5.0, term=10.0)
        engine = ServerEngine(
            "server", store, FixedTermPolicy(term), installed=installed
        )
        datum = store.file_datum("/f")
        engine.handle_message(ReadRequest(1, datum), "c0", now=0.0)
        installed.register("cover:auto", datum)
        engine.handle_timer("announce", now=1.0)
        return engine, store, datum, 11.0 + engine.config.announce_grace

    def test_covered_write_calls_back_prepromotion_holders(self):
        """A covered write is an ordinary write with a floor under its
        deadline: leases from before the promotion are in the table, so
        their holders are asked instead of only waited out — and no
        approval lets it commit before the cover's last announcement, plus
        grace, has run out."""
        engine, store, datum, cover_end = self.promoted(term=30.0)
        effects = engine.handle_message(
            WriteRequest(2, datum, b"v2", write_seq=1), "c1", now=2.0
        )
        (broadcast,) = [e for e in effects if isinstance(e, Broadcast)]
        assert broadcast.dsts == ("c0",)
        assert broadcast.message == ApprovalRequest(datum, 1, 2)
        assert timers(effects) == [SetTimer("write:1", pytest.approx(28.0))]
        # the approval pulls the deadline in to the cover's end, not below
        effects = engine.handle_message(ApprovalReply(datum, 1), "c0", now=3.0)
        assert effects == [SetTimer("write:1", pytest.approx(cover_end - 3.0))]
        assert store.file_at("/f").version == 1
        effects = engine.handle_timer("write:1", now=cover_end)
        assert sends(effects, WriteReply)[0].message.version == 2

    def test_covered_write_commits_on_last_approval_after_cover_ran_out(self):
        engine, store, datum, cover_end = self.promoted(term=30.0)
        engine.handle_message(WriteRequest(2, datum, b"v2", write_seq=1), "c1", now=2.0)
        effects = engine.handle_message(
            ApprovalReply(datum, 1), "c0", now=cover_end + 1.0
        )
        assert sends(effects, WriteReply)[0].message.version == 2

    def test_covered_and_ordinary_write_share_one_queue(self):
        """Promotion while a write is pending: the covered write that
        follows queues behind it and both commit in arrival order."""
        store = FileStore()
        store.create_file("/f", b"v1")
        installed = InstalledFileManager(announce_period=5.0, term=10.0)
        engine = ServerEngine(
            "server", store, FixedTermPolicy(10.0), installed=installed
        )
        datum = store.file_datum("/f")
        engine.handle_message(ReadRequest(1, datum), "c0", now=0.0)
        engine.handle_message(WriteRequest(2, datum, b"A", write_seq=1), "c1", now=1.0)
        installed.register("cover:auto", datum)
        engine.handle_timer("announce", now=1.5)  # cover announced to t=11.5
        assert (
            engine.handle_message(WriteRequest(3, datum, b"B", write_seq=1), "c2", now=2.0)
            == []
        )
        effects = engine.handle_message(ApprovalReply(datum, 1), "c0", now=3.0)
        assert sends(effects, WriteReply)[0].message.version == 2
        (broadcast,) = [e for e in effects if isinstance(e, Broadcast)]
        assert broadcast.message.write_id == 2  # B asks c0 in its turn
        (timer,) = timers(effects)
        assert 3.0 + timer.delay == pytest.approx(11.5 + engine.config.announce_grace)
        assert engine.handle_message(ApprovalReply(datum, 2), "c0", now=3.1) == []
        effects = engine.handle_timer(timer.key, now=3.0 + timer.delay)
        assert sends(effects, WriteReply)[0].message.version == 3
        assert store.file_at("/f").content == b"B"
        assert not installed.write_pending(datum)


class TestEarlyTimerFirings:
    """Deadline timers convert local delays through the drift at arm time,
    so a clock step (or drift change) while armed can fire them *before*
    their local deadline.  Dropping such a firing would wedge the write
    forever (regression found by ``repro.check``): the handler must
    re-arm for the remaining local time instead."""

    # Every kind of wait on leases, started at t=1.0: each returns the
    # engine, the effects of the request that waits, the server-clock
    # deadline of the wait and the reply that ends it.

    def wait_file_write():
        engine, store = make_engine(term=10.0)
        datum = store.file_datum("/f")
        engine.handle_message(ReadRequest(1, datum), "c0", now=0.0)
        effects = engine.handle_message(
            WriteRequest(2, datum, b"v2", write_seq=1), "c1", now=1.0
        )
        return engine, effects, 10.0, WriteReply

    def wait_rename():
        """Two directories, each with its own leaseholder: one timer."""
        engine, store = make_engine(term=10.0)
        store.namespace.mkdir("/a")
        engine.handle_message(ReadRequest(1, store.dir_datum("/")), "c0", now=0.0)
        engine.handle_message(ReadRequest(2, store.dir_datum("/a")), "c2", now=0.5)
        effects = engine.handle_message(
            NamespaceRequest(3, "rename", ("/f", "/a/g"), write_seq=1), "c1", now=1.0
        )
        assert len([e for e in effects if isinstance(e, Broadcast)]) == 2
        return engine, effects, 10.5, NamespaceReply

    def wait_covered_write():
        engine, store, datum = TestInstalled().make_installed()
        engine.startup_effects(0.0)  # announcement at t=0, expires t=10
        effects = engine.handle_message(
            WriteRequest(1, datum, b"bin-v2", write_seq=1), "c0", now=1.0
        )
        return engine, effects, 10.0 + engine.config.announce_grace, WriteReply

    def wait_demoted_write():
        engine, store, datum = TestInstalled().make_installed()
        engine.startup_effects(0.0)
        engine.installed.unregister(datum)  # announced to t=10 under the old id
        effects = engine.handle_message(
            WriteRequest(1, datum, b"bin-v2", write_seq=1), "c0", now=1.0
        )
        return engine, effects, 10.0, WriteReply

    def wait_write_lease():
        from repro.ext.writeback import WriteBackServerEngine

        store = FileStore()
        store.create_file("/f", b"v1")
        engine = WriteBackServerEngine("server", store, FixedTermPolicy(10.0))
        datum = store.file_datum("/f")
        engine.handle_message(ReadRequest(1, datum), "c0", now=0.0)
        effects = engine.handle_message(WriteLeaseRequest(2, datum), "c1", now=1.0)
        return engine, effects, 10.0, WriteLeaseReply

    @pytest.mark.parametrize(
        "start",
        [wait_file_write, wait_rename, wait_covered_write, wait_demoted_write,
         wait_write_lease],
        ids=["file-write", "rename", "covered-write", "demoted-write", "write-lease"],
    )
    def test_wait_rearms_when_fired_early(self, start):
        engine, effects, deadline, reply_type = start()
        (timer,) = timers(effects)
        assert timer.key == "write:1"
        assert 1.0 + timer.delay == pytest.approx(deadline)

        # Fires 4 seconds before the deadline: nothing proceeds, and the
        # one effect is the same timer, set for the remainder.
        effects = engine.handle_timer(timer.key, now=deadline - 4.0)
        assert effects == [SetTimer(timer.key, pytest.approx(4.0))]

        effects = engine.handle_timer(timer.key, now=deadline)
        (send,) = sends(effects, reply_type)
        assert send.message.error is None
        assert not timers(effects)
        assert engine.handle_timer(timer.key, now=deadline + 1.0) == []  # late: no-op

    def test_recovery_timer_rearms_when_fired_early(self):
        store = FileStore()
        store.create_file("/f", b"v1")
        engine = ServerEngine(
            "server",
            store,
            FixedTermPolicy(10.0),
            config=ServerConfig(recovery_delay=10.0),
            now=0.0,
        )
        engine.startup_effects(0.0)
        datum = store.file_datum("/f")
        engine.handle_message(WriteRequest(1, datum, b"v2", write_seq=1), "c0", 1.0)

        effects = engine.handle_timer("recovery", now=4.0)
        assert engine.recovering
        (rearmed,) = [e for e in effects if isinstance(e, SetTimer)]
        assert rearmed.key == "recovery"
        assert rearmed.delay == pytest.approx(6.0)

        effects = engine.handle_timer("recovery", now=10.0)
        assert not engine.recovering
        (send,) = sends(effects, WriteReply)
        assert send.message.version == 2
