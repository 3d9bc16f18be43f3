"""Process fan-out for sweeps and grids of pure jobs: results come back in
item order, so whatever is built from them is byte-identical to a serial
loop for any worker count.  Nothing is retried: a deterministic job that
kills its worker would kill a replacement too."""

import functools
import os
import signal
import traceback
from typing import Any, Callable, Iterable, Iterator

#: Cap on the ``ceil(n / (4 * workers))`` items per chunk.
_MAX_CHUNK = 32


class SweepJobError(RuntimeError):
    """Job ``index`` raised in a worker; ``worker_traceback`` is its text."""

    def __init__(self, index: int, worker_traceback: str):
        super().__init__(f"sweep job {index} raised in worker:\n{worker_traceback}")
        self.index = index
        self.worker_traceback = worker_traceback


def resolve_workers(spec: int | str | None) -> int:
    """A ``--workers N|auto`` spec as a count; ``"auto"``, ``None`` and ``0``
    mean the CPUs this process may run on.  ``ValueError`` otherwise."""
    text = "auto" if spec is None else str(spec).strip().lower()
    if text != "auto" and not text.isdecimal():
        raise ValueError(f"worker count must be a positive integer or 'auto', got {spec!r}")
    if text != "auto" and int(text):
        return int(text)
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def workers_arg(spec: str) -> int:
    """``argparse`` type of ``--workers``: a bad spec exits 2 before output."""
    import argparse
    try:
        return resolve_workers(spec)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _call(job: Callable, item: Any) -> tuple[bool, Any]:
    # Returned as data, an exception re-raises at its own index, not its chunk's first.
    try:
        return True, job(item)
    except Exception:
        return False, traceback.format_exc()


def ordered_map(job: Callable, items: Iterable, workers: int | str | None = 1) -> Iterator:
    """Yield ``job(item)`` for every item, in item order.

    One worker or one item runs inline; otherwise ``job`` must pickle.  A
    job's exception re-raises as :class:`SweepJobError`, a dead worker as
    ``BrokenProcessPool``.  Workers ignore SIGINT: on Ctrl-C the parent
    cancels the chunks no worker started and waits for the rest.
    """
    items = list(items)
    workers = resolve_workers(workers)
    if workers <= 1 or len(items) <= 1:
        yield from map(job, items)
        return
    # Imported here: every benchmark process imports repro.check.
    import multiprocessing
    from concurrent.futures.process import BrokenProcessPool, ProcessPoolExecutor

    executor = ProcessPoolExecutor(
        max_workers=min(workers, len(items)),
        mp_context=multiprocessing.get_context(
            "fork" if "fork" in multiprocessing.get_all_start_methods() else "spawn"),
        initializer=signal.signal, initargs=(signal.SIGINT, signal.SIG_IGN),
    )
    chunksize = max(1, min(_MAX_CHUNK, -(-len(items) // (4 * workers))))
    index = 0
    try:
        for ok, value in executor.map(functools.partial(_call, job), items, chunksize=chunksize):
            if not ok:
                raise SweepJobError(index, value)
            yield value
            index += 1
    except BrokenProcessPool as exc:
        raise BrokenProcessPool(f"a worker died before job {index} finished") from exc
    finally:
        executor.shutdown(cancel_futures=True)
