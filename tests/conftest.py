"""Fixtures shared by the test modules."""

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
