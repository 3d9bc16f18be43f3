"""Tests for the namespace: paths, bindings, versions, rename semantics."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import (
    FileExistsError_,
    NoSuchDirectoryError,
    NoSuchFileError,
    NotADirectoryError_,
)
from repro.storage.namespace import Namespace, split_path


class TestSplitPath:
    def test_root(self):
        assert split_path("/") == []

    def test_simple(self):
        assert split_path("/bin/latex") == ["bin", "latex"]

    def test_collapses_slashes(self):
        assert split_path("//bin///latex") == ["bin", "latex"]

    def test_rejects_relative(self):
        with pytest.raises(ValueError):
            split_path("bin/latex")

    def test_rejects_dots(self):
        with pytest.raises(ValueError):
            split_path("/bin/../etc")


class TestDirectories:
    def test_mkdir_and_resolve(self):
        ns = Namespace()
        dir_id = ns.mkdir("/bin")
        assert ns.resolve_dir("/bin").dir_id == dir_id

    def test_nested_mkdir(self):
        ns = Namespace()
        ns.mkdir("/usr")
        local_id = ns.mkdir("/usr/local")
        assert ns.resolve_dir("/usr/local").dir_id == local_id

    def test_recreated_path_gets_a_fresh_identity(self):
        """Regression (stateful property test): renaming a directory away
        and re-creating its old path must not alias the two."""
        ns = Namespace()
        old_id = ns.mkdir("/d")
        ns.rename("/d", "/kept")
        new_id = ns.mkdir("/d")
        assert new_id != old_id
        ns.bind("/kept/f", "file:1")
        assert ns.lookup("/kept/f").target == "file:1"
        assert ns.listdir("/d") == []  # the new directory is empty
        ns.unbind("/d")
        assert ns.lookup("/kept/f").target == "file:1"  # survivor intact

    def test_mkdir_duplicate_rejected(self):
        ns = Namespace()
        ns.mkdir("/bin")
        with pytest.raises(FileExistsError_):
            ns.mkdir("/bin")

    def test_mkdir_missing_parent_rejected(self):
        with pytest.raises(NoSuchDirectoryError):
            Namespace().mkdir("/no/such/parent")

    def test_mkdir_bumps_parent_version(self):
        ns = Namespace()
        before = ns.dir_version(Namespace.ROOT_ID)
        ns.mkdir("/bin")
        assert ns.dir_version(Namespace.ROOT_ID) == before + 1

    def test_resolve_through_file_rejected(self):
        ns = Namespace()
        ns.bind("/notadir", "file:1")
        with pytest.raises(NotADirectoryError_):
            ns.resolve_dir("/notadir/x")

    def test_makedirs_is_mkdir_p(self):
        """``makedirs`` creates each missing prefix in order, exactly as
        successive ``mkdir`` calls would (same ids, same versions), reuses
        what exists, and refuses to walk through a file."""
        ns, by_hand = Namespace(), Namespace()
        ns.mkdir("/usr")
        by_hand.mkdir("/usr")
        assert ns.makedirs("/usr/local/bin") == ns.resolve_dir("/usr/local/bin").dir_id
        by_hand.mkdir("/usr/local")
        by_hand.mkdir("/usr/local/bin")
        for path in ("/", "/usr", "/usr/local", "/usr/local/bin"):
            made, expected = ns.resolve_dir(path), by_hand.resolve_dir(path)
            assert (made.dir_id, made.version) == (expected.dir_id, expected.version)

        versions = {d: ns.dir_version(d) for d in ("dir:/", "dir:1", "dir:2")}
        assert ns.makedirs("/usr/local") == "dir:2"
        assert ns.makedirs("/") == Namespace.ROOT_ID
        assert {d: ns.dir_version(d) for d in versions} == versions

        ns.bind("/usr/f", "file:1")
        with pytest.raises(NotADirectoryError_, match=r"'f' is a file"):
            ns.makedirs("/usr/f/x")
        assert ns.lookup("/usr/f").target == "file:1"

    def test_walk_errors_name_the_parent_path(self):
        """A path is split once; a failed walk to its parent still names
        the parent as the normalized path, and ``resolve_dir`` names the
        path as it was given."""
        ns = Namespace()
        ns.mkdir("/a")
        ns.bind("/a/f", "file:1")
        with pytest.raises(NoSuchDirectoryError, match=r"^'/no/such': no component 'no'$"):
            ns.mkdir("//no///such/x")
        with pytest.raises(NotADirectoryError_, match=r"^'/a/f': 'f' is a file$"):
            ns.rename("/a/f/x", "/a/y")
        with pytest.raises(NotADirectoryError_, match=r"^'/a/f/x': 'f' is a file$"):
            ns.parent_dir_id("/a/f/x/y")
        with pytest.raises(NoSuchDirectoryError, match=r"^'/a//zz/': no component 'zz'$"):
            ns.resolve_dir("/a//zz/")


class TestBindings:
    def test_bind_and_lookup(self):
        ns = Namespace()
        ns.mkdir("/bin")
        ns.bind("/bin/latex", "file:7")
        entry = ns.lookup("/bin/latex")
        assert entry.target == "file:7"
        assert not entry.is_dir

    def test_lookup_missing_raises(self):
        with pytest.raises(NoSuchFileError):
            Namespace().lookup("/ghost")

    def test_bind_duplicate_rejected(self):
        ns = Namespace()
        ns.bind("/x", "file:1")
        with pytest.raises(FileExistsError_):
            ns.bind("/x", "file:2")

    def test_bind_bumps_version(self):
        ns = Namespace()
        bin_id = ns.mkdir("/bin")
        before = ns.dir_version(bin_id)
        ns.bind("/bin/ls", "file:1")
        assert ns.dir_version(bin_id) == before + 1

    def test_unbind_removes(self):
        ns = Namespace()
        ns.bind("/x", "file:1")
        parent_id, target = ns.unbind("/x")
        assert parent_id == Namespace.ROOT_ID
        assert target == "file:1"
        with pytest.raises(NoSuchFileError):
            ns.lookup("/x")

    def test_unbind_missing_raises(self):
        with pytest.raises(NoSuchFileError):
            Namespace().unbind("/ghost")

    def test_unbind_nonempty_dir_refused(self):
        ns = Namespace()
        ns.mkdir("/bin")
        ns.bind("/bin/ls", "file:1")
        with pytest.raises(FileExistsError_):
            ns.unbind("/bin")
        assert ns.lookup("/bin").is_dir  # still there

    def test_unbind_empty_dir_allowed(self):
        ns = Namespace()
        ns.mkdir("/tmp")
        ns.unbind("/tmp")
        with pytest.raises(NoSuchFileError):
            ns.lookup("/tmp")

    def test_listdir_sorted(self):
        ns = Namespace()
        ns.mkdir("/bin")
        ns.bind("/bin/zz", "file:1")
        ns.bind("/bin/aa", "file:2")
        assert [e.name for e in ns.listdir("/bin")] == ["aa", "zz"]


class TestRename:
    def test_rename_within_directory(self):
        ns = Namespace()
        ns.bind("/old", "file:1")
        touched = ns.rename("/old", "/new")
        assert touched == [Namespace.ROOT_ID]
        assert ns.lookup("/new").target == "file:1"
        with pytest.raises(NoSuchFileError):
            ns.lookup("/old")

    def test_rename_across_directories_touches_both(self):
        ns = Namespace()
        a_id = ns.mkdir("/a")
        b_id = ns.mkdir("/b")
        ns.bind("/a/f", "file:1")
        va, vb = ns.dir_version(a_id), ns.dir_version(b_id)
        touched = ns.rename("/a/f", "/b/f")
        assert set(touched) == {a_id, b_id}
        assert ns.dir_version(a_id) == va + 1
        assert ns.dir_version(b_id) == vb + 1

    def test_rename_missing_source(self):
        with pytest.raises(NoSuchFileError):
            Namespace().rename("/ghost", "/x")

    def test_rename_onto_existing_rejected(self):
        ns = Namespace()
        ns.bind("/a", "file:1")
        ns.bind("/b", "file:2")
        with pytest.raises(FileExistsError_):
            ns.rename("/a", "/b")

    def test_rename_directory_moves_subtree(self):
        ns = Namespace()
        ns.mkdir("/src")
        ns.bind("/src/f", "file:1")
        ns.rename("/src", "/dst")
        assert ns.lookup("/dst/f").target == "file:1"


class TestPayload:
    def test_payload_changes_iff_version_changes(self):
        ns = Namespace()
        bin_id = ns.mkdir("/bin")
        v1, p1 = ns.dir_version(bin_id), ns.dir_payload(bin_id)
        ns.bind("/bin/ls", "file:1")
        v2, p2 = ns.dir_version(bin_id), ns.dir_payload(bin_id)
        assert v2 > v1
        assert p2 != p1

    @given(names=st.lists(st.text(alphabet="abcde", min_size=1, max_size=4), unique=True, max_size=8))
    def test_version_bumps_once_per_mutation(self, names):
        """Property: N successful binds bump the version exactly N times."""
        ns = Namespace()
        d_id = ns.mkdir("/d")
        start = ns.dir_version(d_id)
        for i, name in enumerate(names):
            ns.bind(f"/d/{name}", f"file:{i}")
        assert ns.dir_version(d_id) == start + len(names)
