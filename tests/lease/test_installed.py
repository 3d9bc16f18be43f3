"""Tests for the installed-files cover-lease manager."""

import pytest

from repro.lease.installed import InstalledFileManager, installed_covers
from repro.lease.policy import FixedTermPolicy
from repro.protocol.server import ServerConfig, ServerEngine
from repro.storage.store import FileStore
from repro.types import DatumId, FileClass

LS = DatumId.file("bin/ls")
CC = DatumId.file("bin/cc")
HDR = DatumId.file("include/stdio.h")


def make_manager():
    return InstalledFileManager({"cover:bin": [LS, CC], "cover:include": [HDR]}, term=10.0)


def serve(period, term):
    """A server announcing every ``period`` covers of ``term``."""
    return ServerEngine(
        "server",
        FileStore(),
        FixedTermPolicy(10.0),
        config=ServerConfig(announce_period=period),
        installed=InstalledFileManager({"cover:bin": [LS]}, term=term),
    )


class TestConstruction:
    """The announce period is the server's, so the server refuses a
    period and cover term under which covers would lapse."""

    def test_rejects_nonpositive_period(self):
        with pytest.raises(ValueError, match="positive announce period"):
            serve(period=0.0, term=10.0)

    def test_rejects_term_not_exceeding_period(self):
        for period, term in ((5.0, 5.0), (12.0, 10.0)):  # the second lapses 2 s in 12
            with pytest.raises(ValueError, match="must exceed"):
                serve(period, term)
        assert serve(period=5.0, term=10.0).installed.term == 10.0


class TestMembership:
    def test_register_and_lookup(self):
        mgr = make_manager()
        assert mgr.cover_of(LS) == "cover:bin"
        assert mgr.cover_of(CC) == "cover:bin"
        assert mgr.cover_of(DatumId.file("unknown")) is None
        assert mgr.covers() == {"cover:bin", "cover:include"}

    def test_datum_in_two_covers_refused(self):
        """Membership is fixed at construction: a datum cannot be under
        two covers, nor move between them."""
        with pytest.raises(ValueError, match="two covers"):
            InstalledFileManager({"cover:bin": [LS, CC], "cover:include": [HDR, LS]})

    def test_fresh_keeps_membership_and_generations(self):
        mgr = make_manager()
        mgr.begin_write(LS, now=0.0)
        mgr.finish_write(LS)
        fresh = mgr.fresh()
        assert fresh.covers() == mgr.covers()
        assert [fresh.cover_of(d) for d in (LS, CC, HDR)] == [
            "cover:bin#g2", "cover:bin#g2", "cover:include"
        ]

    def test_installed_covers_group_by_parent_directory(self):
        store = FileStore()
        for directory in ("/bin", "/usr/include/sys", "/home"):
            store.namespace.makedirs(directory)
        installed = {}
        for path in ("/bin/ls", "/bin/cc", "/usr/include/sys/types.h", "/top"):
            record = store.create_file(path, file_class=FileClass.INSTALLED)
            installed[path] = DatumId.file(record.file_id)
        store.create_file("/home/doc", b"user file")
        assert installed_covers(store) == {
            "cover:/bin": {installed["/bin/ls"], installed["/bin/cc"]},
            "cover:/usr/include/sys": {installed["/usr/include/sys/types.h"]},
            "cover:": {installed["/top"]},
        }


class TestAnnouncements:
    def test_announcement_lists_active_covers(self):
        mgr = make_manager()
        covers, term = mgr.announcement(now=0.0)
        assert covers == ["cover:bin", "cover:include"]
        assert term == 10.0

    def test_excluded_cover_omitted(self):
        mgr = make_manager()
        mgr.announcement(now=0.0)
        mgr.begin_write(LS, now=1.0)
        covers, _ = mgr.announcement(now=5.0)
        assert covers == ["cover:include"]


class TestDelayedUpdate:
    def test_write_waits_for_announced_expiry(self):
        mgr = make_manager()
        mgr.announcement(now=3.0)
        ready_at = mgr.begin_write(LS, now=4.0)
        assert ready_at == 13.0  # 3.0 + 10.0 term

    def test_write_with_no_announcement_is_immediate(self):
        mgr = make_manager()
        assert mgr.begin_write(LS, now=4.0) == 4.0

    def test_finish_write_resumes_announcing_under_new_generation(self):
        """The resumed cover uses a fresh id: re-announcing the old one
        would revive expired leases over stale cached copies."""
        mgr = make_manager()
        mgr.begin_write(LS, now=0.0)
        mgr.finish_write(LS)
        covers, _ = mgr.announcement(now=1.0)
        assert "cover:bin" not in covers
        assert "cover:bin#g2" in covers
        assert mgr.cover_of(LS) == "cover:bin#g2"

    def test_concurrent_writes_keep_cover_excluded(self):
        mgr = make_manager()
        mgr.begin_write(LS, now=0.0)
        mgr.begin_write(CC, now=0.0)
        mgr.finish_write(LS)
        assert mgr.write_pending(CC)
        covers, _ = mgr.announcement(now=1.0)
        assert not any(c.startswith("cover:bin") for c in covers)
        mgr.finish_write(CC)
        covers, _ = mgr.announcement(now=2.0)
        assert any(c.startswith("cover:bin#") for c in covers)

    def test_write_on_noninstalled_raises(self):
        mgr = make_manager()
        with pytest.raises(KeyError):
            mgr.begin_write(DatumId.file("user/doc.tex"), now=0.0)

    def test_write_pending_flag(self):
        mgr = make_manager()
        assert not mgr.write_pending(LS)
        mgr.begin_write(LS, now=0.0)
        assert mgr.write_pending(LS)
        assert mgr.write_pending(CC)  # same cover
        assert not mgr.write_pending(HDR)
