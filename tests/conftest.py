"""Fixtures shared by the test modules."""

import threading

import pytest


@pytest.fixture
def jump_bits(monkeypatch):
    """Sets K = maps._JUMP_BITS for one test and rebuilds the tables that depend on it."""
    from collatzbin import maps

    tables = (maps._jump_table, maps._end_table)

    def clear() -> None:
        for table in tables:
            table.cache_clear()

    def patch(bits: int) -> None:
        monkeypatch.setattr(maps, "_JUMP_BITS", bits)
        clear()

    yield patch
    clear()


@pytest.fixture
def started(monkeypatch):
    """The processes that ``multiprocessing.Process`` starts during one test, as they start.

    Each keeps its ``args`` as ``given``.
    """
    import multiprocessing

    starts = []

    class Recorded(multiprocessing.Process):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            self.given = kwargs.get("args", ())

        def start(self):
            starts.append(self)
            super().start()

    monkeypatch.setattr(multiprocessing, "Process", Recorded)
    return starts


class ThreadParts:
    """Stands in for ``harness.Parts``: each job of a map runs ``fn(*job)`` in a thread of its own.

    ``mapped`` records the job count of each map, and ``order`` = -1
    returns each map's results reversed.  A job's exception is raised once
    every job has ended.
    """

    mapped: list[int] = []
    order = 1

    def __init__(self, fn, n):
        self.fn, self.n = fn, n

    def close(self):
        pass

    def map(self, jobs):
        self.mapped.append(len(jobs))
        done = [None] * len(jobs)

        def run(i):
            try:
                done[i] = self.fn(*jobs[i])
            except Exception as exc:  # raised below, in the thread that maps
                done[i] = exc

        threads = [threading.Thread(target=run, args=(i,)) for i in range(len(jobs))]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(60)
            assert not thread.is_alive()
        for result in done:
            if isinstance(result, Exception):
                raise result
        return done[:: self.order]


@pytest.fixture
def thread_parts(monkeypatch):
    """Runs every fan-out's parts as :class:`ThreadParts` on a given CPU count.

    Called with the count, it sets it, patches ``Parts`` with fresh records
    from then on, and returns the class.
    """
    from collatzbin import harness, verify

    def cpus(count: int) -> type[ThreadParts]:
        monkeypatch.setattr(harness.os, "cpu_count", lambda: count)
        monkeypatch.setattr(ThreadParts, "mapped", [])
        monkeypatch.setattr(harness, "Parts", ThreadParts)
        monkeypatch.setattr(verify, "Parts", ThreadParts)
        return ThreadParts

    return cpus
