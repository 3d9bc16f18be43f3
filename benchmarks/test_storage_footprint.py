"""§2's storage argument: per-lease server state is a couple of references.

The paper: "The server requires a record of each leaseholder's identity
and a list of the leases it holds; each lease requires only a couple of
pointers.  For a client holding about one hundred leases, the total is
around one kilobyte per client."  Python objects are fatter than 1989 C
structs, but the *shape* must hold: per-lease cost is O(1) and flat in
both client count and datum count, and expired records are reclaimed.
"""

import gc
import sys

from repro.lease.table import LeaseTable
from repro.types import DatumId


def deep_size(table: LeaseTable) -> int:
    """Approximate bytes held by the table's containers and stored expiries."""
    gc.collect()
    seen = set()
    total = 0
    stack = [table._by_datum]
    while stack:
        obj = stack.pop()
        if id(obj) in seen:
            continue
        seen.add(id(obj))
        total += sys.getsizeof(obj)
        if isinstance(obj, dict):
            stack.extend(obj.keys())
            stack.extend(obj.values())
        elif isinstance(obj, (set, frozenset, list, tuple)):
            stack.extend(obj)
    return total


def bytes_per_lease(n_clients: int, leases_per_client: int) -> float:
    """Measure marginal per-lease storage at a given scale."""
    table = LeaseTable()
    for c in range(n_clients):
        for i in range(leases_per_client):
            table.grant(DatumId.file(f"file:{i}"), f"c{c}", now=0.0, term=1e9)
    return deep_size(table) / (n_clients * leases_per_client)


class TestStorageFootprint:
    def test_per_lease_cost_is_flat(self, benchmark):
        """O(1) per lease: the per-lease byte cost must not grow with scale."""

        def measure():
            small = bytes_per_lease(n_clients=4, leases_per_client=25)
            large = bytes_per_lease(n_clients=40, leases_per_client=100)
            return small, large

        small, large = benchmark.pedantic(measure, rounds=1, iterations=1)
        print(
            f"\nper-lease storage: {small:.0f} B at 100 leases, "
            f"{large:.0f} B at 4000 leases "
            f"(paper: 'a couple of pointers', ~10 B/lease in 1989 C)"
        )
        assert large < small * 1.5  # flat, not superlinear

    def test_hundred_leases_is_kilobytes_not_megabytes(self):
        """The paper's 1 KB/client becomes a few KB in Python — same order
        of practicality."""
        table = LeaseTable()
        for i in range(100):
            table.grant(DatumId.file(f"file:{i}"), "c0", now=0.0, term=1e9)
        size = deep_size(table)
        assert size < 100_000, f"100 leases cost {size} bytes"

    def test_expired_records_reclaimed(self, benchmark):
        """Short terms keep the table small (§2): after a sweep, storage
        returns to baseline."""

        def churn():
            table = LeaseTable()
            for round_no in range(10):
                now = float(round_no)
                for i in range(200):
                    table.grant(DatumId.file(f"f{i}"), f"c{i % 8}", now=now, term=0.5)
                table.expire_sweep(now + 0.6)
            return table.lease_count()

        assert benchmark.pedantic(churn, rounds=1, iterations=1) == 0
