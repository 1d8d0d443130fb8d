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
