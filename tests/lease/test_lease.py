"""Tests for one lease: the expiry the server's table stores for it."""

import math

import pytest

from repro.lease import INFINITE_TERM, LeaseTable, is_infinite
from repro.obs.bus import TraceBus
from repro.obs.events import LEASE_EXPIRE, LEASE_GRANT, LEASE_RENEW
from repro.types import DatumId

F = DatumId.file("f1")


def granted(now: float, term: float) -> LeaseTable:
    table = LeaseTable()
    table.grant(F, "c0", now=now, term=term)
    return table


def valid(table: LeaseTable, now: float) -> bool:
    return table.live_holders(F, now) == {"c0"}


class TestGrant:
    def test_granted_sets_expiry(self):
        table = granted(now=100.0, term=10.0)
        assert table.expiry_of(F, "c0") == 110.0
        assert table.max_term_granted == 10.0

    def test_valid_within_term(self):
        assert valid(granted(now=0.0, term=10.0), 5.0)

    def test_invalid_at_expiry_instant(self):
        assert not valid(granted(now=0.0, term=10.0), 10.0)

    def test_zero_term_never_valid(self):
        assert not valid(granted(now=5.0, term=0.0), 5.0)

    def test_infinite_term_always_valid(self):
        table = granted(now=0.0, term=INFINITE_TERM)
        assert valid(table, 1e12)
        assert math.isinf(table.expiry_of(F, "c0"))

    def test_negative_term_rejected(self):
        with pytest.raises(ValueError):
            granted(now=0.0, term=-1.0)


class TestRenew:
    """A renewal is a grant to a holder whose lease is still live (the
    write-back owner renews its write lease this way too)."""

    def test_renew_extends_expiry(self):
        table = granted(now=0.0, term=10.0)
        table.grant(F, "c0", now=8.0, term=10.0)
        assert table.expiry_of(F, "c0") == 18.0

    def test_renew_never_shortens(self):
        table = granted(now=0.0, term=100.0)
        table.grant(F, "c0", now=1.0, term=5.0)
        assert table.expiry_of(F, "c0") == 100.0

    def test_renew_after_expiry_revives(self):
        table = granted(now=0.0, term=1.0)
        table.grant(F, "c0", now=50.0, term=10.0)
        assert valid(table, 55.0)

    def test_renew_rejects_negative(self):
        table = granted(now=0.0, term=1.0)
        with pytest.raises(ValueError):
            table.grant(F, "c0", now=0.5, term=-2.0)
        assert table.expiry_of(F, "c0") == 1.0

    def test_renew_raises_the_crash_bound(self):
        table = granted(now=0.0, term=10.0)
        table.grant(F, "c0", now=1.0, term=50.0)
        assert table.max_term_granted == 50.0

    def test_renew_needs_a_record(self):
        """Only a live record is renewed; past its expiry the same call
        is a fresh grant (``lease.expire`` then ``lease.grant``)."""
        bus = TraceBus(capacity=None)
        table = LeaseTable(obs=bus)
        table.grant(F, "c0", now=0.0, term=1.0)
        table.grant(F, "c0", now=0.5, term=1.0)
        table.grant(F, "c0", now=5.0, term=1.0)
        assert [e["type"] for e in bus.events()] == [
            LEASE_GRANT, LEASE_RENEW, LEASE_EXPIRE, LEASE_GRANT
        ]


class TestIsInfinite:
    def test_recognizes_inf(self):
        assert is_infinite(INFINITE_TERM)

    def test_rejects_finite(self):
        assert not is_infinite(1e9)
