"""Tests for the FileStore datum interface."""

import copy
import gc
import pickle
import tracemalloc

import pytest

from repro.errors import NoSuchFileError, PermissionDeniedError
from repro.storage import FileStore
from repro.types import DatumId, FileClass


def make_store():
    store = FileStore()
    store.namespace.mkdir("/bin")
    store.create_file("/bin/latex", b"v1 binary", file_class=FileClass.INSTALLED)
    store.create_file("/doc.tex", b"\\documentclass{article}")
    return store


class TestFiles:
    def test_create_and_read(self):
        store = make_store()
        record = store.file_at("/doc.tex")
        assert record.content == b"\\documentclass{article}"
        assert record.version == 1

    def test_create_assigns_unique_ids(self):
        store = make_store()
        assert store.file_at("/bin/latex").file_id != store.file_at("/doc.tex").file_id

    def test_file_class_recorded(self):
        store = make_store()
        assert store.file_at("/bin/latex").file_class is FileClass.INSTALLED

    def test_missing_file_raises(self):
        with pytest.raises(NoSuchFileError):
            make_store().file("file:999")

    def test_file_at_directory_raises(self):
        with pytest.raises(NoSuchFileError):
            make_store().file_at("/bin")

    def test_unlink_drops_record(self):
        store = make_store()
        file_id = store.file_at("/doc.tex").file_id
        store.unlink("/doc.tex")
        with pytest.raises(NoSuchFileError):
            store.file(file_id)

    def test_file_count(self):
        assert make_store().file_count() == 2


class TestWrites:
    def test_commit_bumps_version_and_mtime(self):
        store = make_store()
        datum = store.file_datum("/doc.tex")
        v = store.commit_file_write(datum, b"edited", now=42.0)
        assert v == 2
        record = store.file_at("/doc.tex")
        assert record.content == b"edited"
        assert record.mtime == 42.0

    def test_versions_strictly_increase(self):
        store = make_store()
        datum = store.file_datum("/doc.tex")
        versions = [store.commit_file_write(datum, bytes([i]), now=i) for i in range(5)]
        assert versions == sorted(set(versions))

    def test_readonly_file_rejects_write(self):
        store = FileStore()
        store.create_file("/etc/passwd".replace("/etc", ""), b"x", mode="r")
        datum = store.file_datum("/passwd")
        with pytest.raises(PermissionDeniedError):
            store.commit_file_write(datum, b"hacked", now=0.0)

    def test_write_to_directory_datum_rejected(self):
        store = make_store()
        with pytest.raises(NoSuchFileError):
            store.commit_file_write(store.dir_datum("/bin"), b"x", now=0.0)


class TestDatumInterface:
    def test_file_datum_roundtrip(self):
        store = make_store()
        datum = store.file_datum("/doc.tex")
        version, payload = store.read_datum(datum)
        assert version == 1
        assert payload == b"\\documentclass{article}"

    def test_dir_datum_payload_includes_modes(self):
        store = make_store()
        datum = store.dir_datum("/bin")
        _, payload = store.read_datum(datum)
        (name, target, is_dir, mode), = payload
        assert name == "latex"
        assert not is_dir
        assert mode == "rw"

    def test_dir_version_tracks_binding_changes(self):
        store = make_store()
        datum = store.dir_datum("/bin")
        v1 = store.version_of(datum)
        store.create_file("/bin/dvips", b"")
        assert store.version_of(datum) == v1 + 1

    def test_datum_exists(self):
        store = make_store()
        assert store.datum_exists(store.file_datum("/doc.tex"))
        assert store.datum_exists(store.dir_datum("/bin"))
        assert not store.datum_exists(DatumId.file("file:999"))
        assert not store.datum_exists(DatumId.directory("dir:/ghost"))

    def test_read_missing_datum_raises(self):
        with pytest.raises(NoSuchFileError):
            make_store().read_datum(DatumId.file("file:999"))


FILES = 20_000


def bytes_per_file() -> float:
    """What ``create_file`` allocates per file beyond its content.

    The benchmark's ``cold_read`` shape: 20 000 files in one directory.
    Content objects and path strings exist before tracing starts, so what
    is counted is the store's own record of a file: its ``FileData``, its
    id, its ``DirEntry`` and its slots in the two dicts.
    """
    contents = [b"x%d" % k for k in range(FILES)]
    paths = [f"/f{k}" for k in range(FILES)]
    gc.collect()
    tracemalloc.start()
    try:
        store = FileStore()
        for path, content in zip(paths, contents):
            store.create_file(path, content)
        gc.collect()
        allocated, _peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert store.file_count() == FILES
    return allocated / FILES


class TestFootprint:
    def test_a_file_costs_at_most_320_bytes_beyond_its_content(self):
        """§2's storage argument for files: a record, not an object graph.
        About 290 B on CPython 3.11 (308 B on 3.10, 275 B on 3.12) with
        slotted records; 379 B on 3.11 while ``FileData`` and ``DirEntry``
        each carried a ``__dict__`` (DESIGN §2, *Per-file cost*)."""
        cost = bytes_per_file()
        assert cost <= 320, f"{cost:.0f} B per file"


class TestCopies:
    """Slotted records must round-trip whole: worlds are copied by pickle."""

    @staticmethod
    def world() -> FileStore:
        store = FileStore()
        store.namespace.mkdir("/a")
        store.namespace.mkdir("/a/b")
        store.create_file("/top", b"t", mode="r")
        store.create_file("/a/one", b"1", file_class=FileClass.INSTALLED)
        store.create_file("/a/b/two", b"2", now=3.5)
        store.commit_file_write(store.file_datum("/a/b/two"), b"2'", now=4.0)
        return store

    @staticmethod
    def walk(store: FileStore, path: str = "/"):
        """Every directory path under ``path``, itself first."""
        yield path
        for entry in store.namespace.listdir(path):
            if entry.is_dir:
                yield from TestCopies.walk(store, path.rstrip("/") + "/" + entry.name)

    @pytest.mark.parametrize(
        "copy_of",
        [lambda s: pickle.loads(pickle.dumps(s)), copy.deepcopy],
        ids=["pickle", "deepcopy"],
    )
    def test_a_copied_store_reads_the_same(self, copy_of):
        store = self.world()
        clone = copy_of(store)
        dirs = list(self.walk(store))
        assert dirs == ["/", "/a", "/a/b"]
        assert list(self.walk(clone)) == dirs
        for path in dirs:
            assert clone.namespace.listdir(path) == store.namespace.listdir(path)
            datum = store.dir_datum(path)
            assert clone.read_datum(datum) == store.read_datum(datum)
        for path in ("/top", "/a/one", "/a/b/two"):
            datum = store.file_datum(path)
            assert clone.file_datum(path) == datum
            assert clone.read_datum(datum) == store.read_datum(datum)
            assert clone.file_at(path) == store.file_at(path)
        clone.create_file("/a/three", b"3")
        assert clone.file_count() == store.file_count() + 1
