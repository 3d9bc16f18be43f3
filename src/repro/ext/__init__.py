"""Extensions beyond the paper's core evaluation.

* :mod:`repro.ext.writeback` — non-write-through caches via exclusive
  *write leases* with recall, the extension §2 calls straightforward and
  §6 relates to the token schemes of Burrows's MFS and the Echo file
  system.  Owners buffer writes locally (absorbing repeated writes into
  one flush); the server recalls the lease when anyone else touches the
  datum; an unreachable owner delays others at most one term, at the
  documented cost that unflushed writes can be lost.
"""

from repro.ext.writeback import (
    WriteBackClientEngine,
    WriteBackServerEngine,
    WriteBackSimClient,
    build_writeback_cluster,
)

__all__ = [
    "WriteBackServerEngine",
    "WriteBackClientEngine",
    "WriteBackSimClient",
    "build_writeback_cluster",
]
