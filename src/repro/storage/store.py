"""The server's primary storage: files plus namespace, datum-addressed.

:class:`FileStore` is the single authority for datum versions.  The
protocol engines read and commit through the datum interface
(:meth:`read_datum` / :meth:`commit_file_write`), which keeps them agnostic
to whether a datum is file contents or directory metadata.

Durability model (paper §5): committed file data and namespace survive a
server crash; lease state does not.  The store is therefore kept *outside*
the server engine and reattached on restart.
"""

from __future__ import annotations

from repro.errors import NoSuchFileError, PermissionDeniedError
from repro.storage.file import FileData
from repro.storage.namespace import Namespace
from repro.types import DatumId, DatumKind, FileClass, Version


class FileStore:
    """Files, directories, and their datum versions."""

    def __init__(self) -> None:
        self.namespace = Namespace()
        self._files: dict[str, FileData] = {}
        #: The next default file id's number.  A plain int, so a store
        #: pickles (``itertools.count`` stops pickling in Python 3.14).
        self._next_id = 1
        #: Optional hook called as ``on_commit(datum, version)`` after every
        #: version change (file creation, file write).  The consistency
        #: oracle uses it to build the authoritative version history.
        self.on_commit = None

    # -- file lifecycle ------------------------------------------------------

    def create_file(
        self,
        path: str,
        content: bytes = b"",
        file_class: FileClass = FileClass.NORMAL,
        mode: str = "rw",
        now: float = 0.0,
        file_id: str | None = None,
    ) -> FileData:
        """Create a file and bind it at ``path``.

        Args:
            file_id: explicit datum id.  A sharded deployment
                (:class:`repro.shard.store.ShardedStore`) allocates ids
                from one global counter — placement hashes the id, so the
                id must exist before the owning store is chosen.  Default:
                this store's own counter.
        """
        if file_id is None:
            file_id = f"file:{self._next_id}"
            self._next_id += 1
        record = FileData(
            file_id=file_id,
            content=content,
            mtime=now,
            file_class=file_class,
            mode=mode,
        )
        self.namespace.bind(path, file_id)
        self._files[file_id] = record
        if self.on_commit is not None:
            self.on_commit(DatumId.file(file_id), record.version)
        return record

    def file(self, file_id: str) -> FileData:
        """Fetch a file record by id."""
        record = self._files.get(file_id)
        if record is None:
            raise NoSuchFileError(file_id)
        return record

    def file_at(self, path: str) -> FileData:
        """Resolve a path and fetch the file record."""
        entry = self.namespace.lookup(path)
        if entry.is_dir:
            raise NoSuchFileError(f"{path!r} is a directory")
        return self.file(entry.target)

    def unlink(self, path: str) -> None:
        """Remove a binding; drops the file record when it was a file."""
        _, target = self.namespace.unbind(path)
        self._files.pop(target, None)

    # -- datum interface -------------------------------------------------------

    def datum_exists(self, datum: DatumId) -> bool:
        """True when the datum currently exists."""
        if datum.kind is DatumKind.FILE:
            return datum.ident in self._files
        try:
            self.namespace.dir_of(datum.ident)
            return True
        except Exception:
            return False

    def read_datum(self, datum: DatumId) -> tuple[Version, object]:
        """Return (version, payload) for a datum.

        File payloads are ``bytes``; directory payloads are the sorted
        binding tuples (name-to-file bindings plus the files' permission
        modes ride along in :meth:`dir_payload_with_modes`).
        """
        if datum.kind is DatumKind.FILE:
            record = self.file(datum.ident)
            return record.version, record.content
        dir_id = datum.ident
        return self.namespace.dir_version(dir_id), self.dir_payload_with_modes(dir_id)

    def dir_payload_with_modes(self, dir_id: str) -> tuple:
        """Directory bindings annotated with each target file's mode.

        The paper: a cache needs "the name-to-file binding and permission
        information" under lease to perform a repeated open locally.
        """
        entries = []
        for entry in self.namespace.dir_payload(dir_id):
            mode = None
            if not entry.is_dir:
                record = self._files.get(entry.target)
                mode = record.mode if record else None
            entries.append((entry.name, entry.target, entry.is_dir, mode))
        return tuple(entries)

    def version_of(self, datum: DatumId) -> Version:
        """Current committed version of a datum."""
        return self.read_datum(datum)[0]

    def commit_file_write(self, datum: DatumId, content: bytes, now: float) -> Version:
        """Commit a write to a file datum; returns the new version.

        Raises:
            PermissionDeniedError: the file's mode forbids writing.
        """
        if datum.kind is not DatumKind.FILE:
            raise NoSuchFileError(f"cannot write directory datum {datum} as a file")
        record = self.file(datum.ident)
        if not record.writable:
            raise PermissionDeniedError(datum.ident)
        version = record.commit_write(content, now)
        if self.on_commit is not None:
            self.on_commit(datum, version)
        return version

    # -- convenience ------------------------------------------------------------

    def file_datum(self, path: str) -> DatumId:
        """The file-contents datum for ``path``."""
        return DatumId.file(self.file_at(path).file_id)

    def dir_datum(self, path: str) -> DatumId:
        """The directory-metadata datum for directory ``path``."""
        return DatumId.directory(self.namespace.resolve_dir(path).dir_id)

    def file_count(self) -> int:
        """Number of files currently stored."""
        return len(self._files)
