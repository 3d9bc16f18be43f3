"""§2's storage argument as a gate: "each lease requires only a couple of
pointers".

The table stores a lease as one entry of its datum's ``holder -> expiry``
dict.  Measured here at the benchmark's ``cold_read`` shape (2 holders ×
20 000 datums), counting every byte the grants allocate: about 131 B per
lease on CPython 3.11 and 3.12, 155 B on 3.10.  A per-lease object of
any kind would cost more than the headroom the gate leaves (DESIGN §2,
*Per-lease cost*).
"""

import gc
import tracemalloc

from repro.lease.table import LeaseTable
from repro.types import DatumId

HOLDERS = ("c0", "c1")
DATUMS = 20_000


def bytes_per_lease() -> float:
    datums = [DatumId.file(f"file:{k}") for k in range(DATUMS)]
    gc.collect()
    tracemalloc.start()
    try:
        table = LeaseTable()
        for holder in HOLDERS:
            for datum in datums:
                table.grant(datum, holder, 0.0, 10.0)
        gc.collect()
        allocated, _peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert table.lease_count() == len(HOLDERS) * DATUMS
    return allocated / table.lease_count()


def test_a_lease_costs_at_most_160_bytes():
    cost = bytes_per_lease()
    assert cost <= 160, f"{cost:.0f} B per lease"
