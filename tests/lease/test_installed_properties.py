"""Property tests for the installed-files manager's generation scheme."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.lease.installed import InstalledFileManager
from repro.types import DatumId

DATUMS = [DatumId.file(f"f{i}") for i in range(4)]
COVERS = {"cover:a": DATUMS[:2], "cover:b": DATUMS[2:]}


@settings(max_examples=80, deadline=None)
@given(
    ops=st.lists(
        st.one_of(
            st.tuples(st.just("write"), st.sampled_from(DATUMS)),
            st.tuples(st.just("announce"), st.none()),
        ),
        max_size=25,
    )
)
def test_announced_ids_never_resurrect(ops):
    """Once a versioned cover id stops being announced because of an
    update, it must never be announced again — that is the
    whole safety argument for generation bumps."""
    mgr = InstalledFileManager(COVERS, term=5.0)
    now = 0.0
    retired: set[str] = set()
    in_flight: dict = {}
    last_announced: set[str] = set()

    for op, datum in ops:
        now += 1.0
        if op == "write":
            if datum not in in_flight:
                old_id = mgr.cover_of(datum)
                mgr.begin_write(datum, now)
                in_flight[datum] = old_id
        else:  # announce; also finish one in-flight write if any
            if in_flight:
                finished, old_id = next(iter(in_flight.items()))
                mgr.finish_write(finished)
                del in_flight[finished]
                retired.add(old_id)
            covers, _term = mgr.announcement(now)
            last_announced = set(covers)
            assert not (last_announced & retired), (
                f"retired id re-announced: {last_announced & retired}"
            )


def test_generation_strictly_increases():
    mgr = InstalledFileManager(COVERS, term=5.0)
    datum = DATUMS[0]
    seen = set()
    for _ in range(5):
        cover_id = mgr.cover_of(datum)
        assert cover_id not in seen
        seen.add(cover_id)
        mgr.begin_write(datum, 0.0)
        mgr.finish_write(datum)
