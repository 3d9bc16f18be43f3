"""The sharded storage facade: N stores, one namespace of datum ids.

Placement is by *datum id*, not path: the facade owns a single global id
counter, mints the id first, hashes it through the ring, and only then
creates the file in the owning shard's :class:`~repro.storage.store.
FileStore`.  This breaks the circularity that per-shard counters would
create (two shards both minting ``file:1``) and keeps every datum id
unique across the whole deployment — which is what lets one consistency
oracle span all shards without collisions.

Each shard's store (and its namespace) is otherwise a completely normal
single-server store: the per-shard :class:`~repro.protocol.server.
ServerEngine` works against it unmodified.
"""

from __future__ import annotations

from repro.shard.router import ShardRouter
from repro.storage.file import FileData
from repro.storage.store import FileStore
from repro.types import DatumId, FileClass, Version


class ShardedStore:
    """N per-shard :class:`FileStore` instances behind one datum-id space.

    Duck-types the slice of the ``FileStore`` interface the scenario
    runner and benchmarks use (``create_file`` / ``file_datum`` /
    ``version_of`` / ``read_datum`` / ``datum_exists`` / ``file_count``),
    so a sharded cluster plugs in wherever a single store did.
    """

    def __init__(self, n_shards: int, router: ShardRouter | None = None):
        self.router = router or ShardRouter(n_shards)
        if self.router.n_shards != n_shards:
            raise ValueError(
                f"router has {self.router.n_shards} shards, expected {n_shards}"
            )
        self.shards: list[FileStore] = [FileStore() for _ in range(n_shards)]
        #: The next file id's number (a plain int, as in ``FileStore``).
        self._next_id = 1
        #: path -> owning shard index, recorded at creation time (paths
        #: are bound in the owning shard's namespace only).
        self._path_shard: dict[str, int] = {}

    # -- file lifecycle ------------------------------------------------------

    def create_file(
        self,
        path: str,
        content: bytes = b"",
        file_class: FileClass = FileClass.NORMAL,
        mode: str = "rw",
        now: float = 0.0,
    ) -> FileData:
        """Create a file on its hash-owned shard; returns the record."""
        file_id = f"file:{self._next_id}"
        self._next_id += 1
        shard = self.router.shard_of(DatumId.file(file_id))
        self._path_shard[path] = shard
        return self.shards[shard].create_file(
            path, content, file_class=file_class, mode=mode, now=now,
            file_id=file_id,
        )

    # -- routing -------------------------------------------------------------

    def shard_of(self, datum: DatumId) -> int:
        """The shard index owning ``datum``."""
        return self.router.shard_of(datum)

    def store_for(self, datum: DatumId) -> FileStore:
        """The shard store owning ``datum``."""
        return self.shards[self.router.shard_of(datum)]

    def shard_of_path(self, path: str) -> int:
        """The shard index a created path lives on."""
        return self._path_shard[path]

    # -- FileStore facade ------------------------------------------------------

    def file_datum(self, path: str) -> DatumId:
        """The file-contents datum for a path created through this facade."""
        return self.shards[self._path_shard[path]].file_datum(path)

    def version_of(self, datum: DatumId) -> Version:
        """Current committed version of a datum, wherever it lives."""
        return self.store_for(datum).version_of(datum)

    def read_datum(self, datum: DatumId) -> tuple[Version, object]:
        """Read ``(version, payload)`` from the owning shard."""
        return self.store_for(datum).read_datum(datum)

    def datum_exists(self, datum: DatumId) -> bool:
        """True when the owning shard holds the datum."""
        return self.store_for(datum).datum_exists(datum)

    def file_count(self) -> int:
        """Total files across every shard."""
        return sum(store.file_count() for store in self.shards)
