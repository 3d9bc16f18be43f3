"""File records."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.types import FileClass, Version


@dataclass(slots=True)
class FileData:
    """One file's primary copy at the server.

    Attributes:
        file_id: stable identifier, independent of the file's name(s).
        content: current contents.
        version: bumped on every committed write; the consistency oracle
            compares versions, so they must never repeat or go backward.
        mtime: server-clock time of the last committed write (the paper
            notes synchronized file-modified times matter for tools like
            ``make``).
        file_class: access-characteristic class driving the term policy.
        mode: simple permission string, e.g. ``"rw"`` or ``"r"``.
    """

    file_id: str
    content: bytes = b""
    version: Version = 1
    mtime: float = 0.0
    file_class: FileClass = FileClass.NORMAL
    mode: str = "rw"

    def commit_write(self, content: bytes, now: float) -> Version:
        """Apply a committed write; returns the new version."""
        self.content = content
        self.version += 1
        self.mtime = now
        return self.version

    @property
    def writable(self) -> bool:
        """True when the mode admits writes."""
        return "w" in self.mode

    @property
    def readable(self) -> bool:
        """True when the mode admits reads."""
        return "r" in self.mode


@dataclass(slots=True)
class DirectoryData:
    """One directory's lease-coverable metadata.

    The *payload* of a directory datum is its set of (name, target, mode)
    bindings; renaming, creating or deleting an entry is a write to this
    datum and bumps ``version``.
    """

    dir_id: str
    version: Version = 1
    entries: dict = field(default_factory=dict)  # name -> entry (see namespace)
