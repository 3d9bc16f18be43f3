"""Client-side caching substrate.

* :class:`~repro.cache.filecache.FileCache` — a capacity-bounded,
  write-through datum cache, and the one rule (its docstring) for what a
  reply may put back after an invalidation.
* :mod:`repro.cache.eviction` — the eviction-policy axis: plain LRU (the
  default, byte-identical to the seed) or hybrid LRU+LFU score-based
  eviction (:class:`~repro.cache.eviction.LruLfuPolicy`) for skewed,
  larger-than-cache workloads.
* :class:`~repro.cache.filecache.TempFileStore` — client-local storage for
  temporary files, which V keeps out of the file server entirely (§2, §3.2:
  temp files receive the majority of writes, so this is what makes
  write-through affordable).
"""

from repro.cache.eviction import EVICTION_KINDS, LruLfuPolicy, make_policy
from repro.cache.filecache import CacheEntry, CacheStats, FileCache, TempFileStore

__all__ = [
    "EVICTION_KINDS",
    "FileCache",
    "CacheEntry",
    "CacheStats",
    "LruLfuPolicy",
    "TempFileStore",
    "make_policy",
]
