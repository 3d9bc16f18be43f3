"""Tests for the server's operational status snapshot."""


from repro.analytic import v_params
from repro.lease.policy import AdaptiveTermPolicy, FixedTermPolicy
from repro.protocol.messages import ReadRequest, WriteRequest
from repro.protocol.server import ServerConfig, ServerEngine
from repro.storage.store import FileStore


def make_engine(policy=None, **config):
    store = FileStore()
    store.create_file("/f", b"v1")
    engine = ServerEngine(
        "server", store, policy or FixedTermPolicy(10.0), config=ServerConfig(**config)
    )
    return engine, store


class TestStatus:
    def test_fresh_server(self):
        engine, _ = make_engine()
        status = engine.status(0.0)
        assert status["known_clients"] == 0
        assert status["lease_records"] == 0
        assert status["pending_writes"] == 0
        assert status["deferred_requests"] == 0
        assert not status["recovering"]
        assert status["files"] == 1

    def test_counts_track_activity(self):
        engine, store = make_engine()
        datum = store.file_datum("/f")
        engine.handle_message(ReadRequest(1, datum), "c0", 0.0)
        engine.handle_message(ReadRequest(2, datum), "c1", 0.0)
        status = engine.status(1.0)
        assert status["known_clients"] == 2
        assert status["lease_records"] == 2
        # A fixed term reads no statistics, so none are kept.
        assert status["tracked_datums"] == 0

    def test_tracked_datums_under_a_policy_that_reads_them(self):
        engine, store = make_engine(AdaptiveTermPolicy(v_params()))
        datum = store.file_datum("/f")
        engine.handle_message(ReadRequest(1, datum), "c0", 0.0)
        engine.handle_message(ReadRequest(2, datum), "c1", 0.0)
        assert engine.status(1.0)["tracked_datums"] == 1

    def test_pending_and_deferred_visible(self):
        engine, store = make_engine()
        datum = store.file_datum("/f")
        engine.handle_message(ReadRequest(1, datum), "c0", 0.0)
        engine.handle_message(WriteRequest(2, datum, b"v2", write_seq=1), "c1", 1.0)
        engine.handle_message(ReadRequest(3, datum), "c2", 1.5)  # deferred
        status = engine.status(2.0)
        assert status["pending_writes"] == 1
        assert status["deferred_requests"] == 1

    def test_dedup_window_size(self):
        engine, store = make_engine()
        datum = store.file_datum("/f")
        for seq in range(3):
            engine.handle_message(
                WriteRequest(seq, datum, b"x", write_seq=seq), "c0", 0.0
            )
        assert engine.status(0.0)["dedup_entries"] == 3

    def test_recovery_flag(self):
        engine, _ = make_engine(recovery_delay=10.0)
        assert engine.status(5.0)["recovering"]
        assert not engine.status(15.0)["recovering"]

    def test_short_terms_keep_records_small(self):
        """The §2 storage argument: expired records are reclaimed."""
        engine, store = make_engine()
        datum = store.file_datum("/f")
        for i in range(20):
            engine.handle_message(ReadRequest(i, datum), f"c{i}", float(i))
        engine.handle_timer("sweep", 100.0)
        assert engine.status(100.0)["lease_records"] == 0
