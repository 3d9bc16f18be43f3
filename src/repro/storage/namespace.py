"""Hierarchical namespace: name-to-file bindings and permissions.

Paths are POSIX-style (``"/bin/latex"``).  Each directory is a datum in
its own right (``DatumId.directory(dir_id)``): looking a name up *reads*
the directory datum; creating, removing or renaming an entry *writes* it
and bumps its version.  This is how the protocol supports a repeated
``open`` entirely from the client cache (paper §2).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import (
    FileExistsError_,
    NoSuchDirectoryError,
    NoSuchFileError,
    NotADirectoryError_,
)
from repro.storage.file import DirectoryData
from repro.types import Version


@dataclass(frozen=True, slots=True)
class DirEntry:
    """One binding in a directory: a name mapped to a file or subdirectory."""

    name: str
    target: str  # file_id or dir_id
    is_dir: bool


def split_path(path: str) -> list[str]:
    """Split a normalized absolute path into components.

    Raises:
        ValueError: for relative paths, empty names, or ``.``/``..``.
    """
    if not path.startswith("/"):
        raise ValueError(f"path must be absolute: {path!r}")
    parts = [p for p in path.split("/") if p]
    for part in parts:
        if part in (".", ".."):
            raise ValueError(f"path must be normalized: {path!r}")
    return parts


class Namespace:
    """The directory tree."""

    ROOT_ID = "dir:/"

    def __init__(self) -> None:
        self._dirs: dict[str, DirectoryData] = {
            self.ROOT_ID: DirectoryData(dir_id=self.ROOT_ID)
        }
        # Directory ids must be stable and unique for the directory's
        # lifetime, *independent of its name*: a renamed directory keeps
        # its id, and re-creating its old path must mint a fresh one
        # (path-derived ids would alias the two — a bug found by the
        # stateful property tests).
        self._next_dir_id = 1
        #: Optional hook called as ``on_change(dir_id, version)`` after a
        #: directory datum's version is bumped (oracle history).
        self.on_change = None

    def _bump(self, record: DirectoryData) -> None:
        record.version += 1
        if self.on_change is not None:
            self.on_change(record.dir_id, record.version)

    # -- navigation ---------------------------------------------------------

    def dir_of(self, dir_id: str) -> DirectoryData:
        """Fetch a directory record by id."""
        record = self._dirs.get(dir_id)
        if record is None:
            raise NoSuchDirectoryError(dir_id)
        return record

    def resolve_dir(self, path: str) -> DirectoryData:
        """Walk ``path`` to a directory record.

        Raises:
            NoSuchDirectoryError: a component is missing.
            NotADirectoryError_: a component is a plain file.
        """
        return self._walk(split_path(path), path)

    def _walk(self, parts: list[str], path: str | None = None) -> DirectoryData:
        """Walk already-split ``parts`` to a directory record.

        ``path`` names the walk in error messages; by default it is the
        parts joined back, which is what a caller holding a split path
        would have passed to :meth:`resolve_dir`.
        """
        dirs = self._dirs
        record = dirs[self.ROOT_ID]
        for part in parts:
            entry = record.entries.get(part)
            if entry is None or not entry.is_dir:
                if path is None:
                    path = "/" + "/".join(parts)
                if entry is None:
                    raise NoSuchDirectoryError(f"{path!r}: no component {part!r}")
                raise NotADirectoryError_(f"{path!r}: {part!r} is a file")
            record = dirs[entry.target]
        return record

    def lookup(self, path: str) -> DirEntry:
        """Resolve a path to its final binding (file or directory)."""
        parts = split_path(path)
        if not parts:
            return DirEntry(name="/", target=self.ROOT_ID, is_dir=True)
        parent = self._walk(parts[:-1])
        entry = parent.entries.get(parts[-1])
        if entry is None:
            raise NoSuchFileError(path)
        return entry

    def listdir(self, path: str) -> list[DirEntry]:
        """The bindings of a directory, sorted by name."""
        record = self.resolve_dir(path)
        return sorted(record.entries.values(), key=lambda e: e.name)

    def dir_version(self, dir_id: str) -> Version:
        """Current version of a directory datum."""
        return self.dir_of(dir_id).version

    def dir_payload(self, dir_id: str) -> tuple:
        """The cacheable payload of a directory datum: its sorted bindings."""
        record = self.dir_of(dir_id)
        return tuple(sorted(record.entries.values(), key=lambda e: e.name))

    # -- mutation (each bumps the affected directory's version) -----------------

    def mkdir(self, path: str) -> str:
        """Create a directory; returns its dir_id."""
        parts = split_path(path)
        if not parts:
            raise FileExistsError_("/")
        parent = self._walk(parts[:-1])
        name = parts[-1]
        if name in parent.entries:
            raise FileExistsError_(path)
        return self._add_dir(parent, name).dir_id

    def makedirs(self, path: str) -> str:
        """Create ``path`` and each missing directory above it, in prefix
        order (``mkdir -p``); returns the dir_id of ``path``.

        Directories that exist are reused as they are.

        Raises:
            NotADirectoryError_: a component is a plain file.
        """
        dirs = self._dirs
        record = dirs[self.ROOT_ID]
        for part in split_path(path):
            entry = record.entries.get(part)
            if entry is None:
                record = self._add_dir(record, part)
            elif entry.is_dir:
                record = dirs[entry.target]
            else:
                raise NotADirectoryError_(f"{path!r}: {part!r} is a file")
        return record.dir_id

    def _add_dir(self, parent: DirectoryData, name: str) -> DirectoryData:
        """Bind a new, empty directory ``name`` under ``parent``."""
        dir_id = f"dir:{self._next_dir_id}"
        self._next_dir_id += 1
        record = self._dirs[dir_id] = DirectoryData(dir_id=dir_id)
        parent.entries[name] = DirEntry(name=name, target=dir_id, is_dir=True)
        self._bump(parent)
        return record

    def bind(self, path: str, file_id: str) -> str:
        """Bind ``path`` to a file; returns the parent's dir_id.

        Raises:
            FileExistsError_: the name is already bound.
        """
        parts = split_path(path)
        if not parts:
            raise ValueError("cannot bind the root")
        parent = self._walk(parts[:-1])
        name = parts[-1]
        if name in parent.entries:
            raise FileExistsError_(path)
        parent.entries[name] = DirEntry(name=name, target=file_id, is_dir=False)
        self._bump(parent)
        return parent.dir_id

    def unbind(self, path: str) -> tuple[str, str]:
        """Remove a binding; returns (parent dir_id, removed target id)."""
        parts = split_path(path)
        if not parts:
            raise ValueError("cannot unbind the root")
        parent = self._walk(parts[:-1])
        name = parts[-1]
        entry = parent.entries.pop(name, None)
        if entry is None:
            raise NoSuchFileError(path)
        if entry.is_dir and self._dirs[entry.target].entries:
            parent.entries[name] = entry  # restore; refuse to drop non-empty dir
            raise FileExistsError_(f"directory not empty: {path!r}")
        if entry.is_dir:
            del self._dirs[entry.target]
        self._bump(parent)
        return parent.dir_id, entry.target

    def rename(self, old: str, new: str) -> list[str]:
        """Rename/move a binding; returns the dir_ids whose datums changed.

        Renaming is the paper's canonical example of a *write* to naming
        information: every affected directory's version is bumped, so
        leaseholders of those directory datums must approve.
        """
        old_parts = split_path(old)
        new_parts = split_path(new)
        if not old_parts or not new_parts:
            raise ValueError("cannot rename the root")
        src = self._walk(old_parts[:-1])
        dst = self._walk(new_parts[:-1])
        old_name, new_name = old_parts[-1], new_parts[-1]
        entry = src.entries.get(old_name)
        if entry is None:
            raise NoSuchFileError(old)
        if new_name in dst.entries:
            raise FileExistsError_(new)
        del src.entries[old_name]
        dst.entries[new_name] = DirEntry(
            name=new_name, target=entry.target, is_dir=entry.is_dir
        )
        self._bump(src)
        touched = [src.dir_id]
        if dst.dir_id != src.dir_id:
            self._bump(dst)
            touched.append(dst.dir_id)
        return touched

    def parent_dir_id(self, path: str) -> str:
        """The dir_id of ``path``'s parent directory."""
        parts = split_path(path)
        return self._walk(parts[:-1]).dir_id
