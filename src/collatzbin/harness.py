"""Reproducible random-orbit experiments over fixed-length binary fractions.

Randomness comes from a small splitmix64 generator with per-sample seeds
derived from (master seed, run index, sample index), so results are
identical across platforms and across worker counts: every sample is a pure
function of its coordinates, and cell statistics are maxima and sums, which
merge in any order.  :func:`fan_out` gives each worker one contiguous slice.
"""

from __future__ import annotations

import os
from collections.abc import Iterator
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, fields
from functools import partial

from .exact import BinaryFraction
from .maps import STEP_CAP, orbit_extents

__all__ = [
    "CSV_HEADER",
    "CellSummary",
    "ExperimentConfig",
    "ExperimentSummary",
    "MAX_SAMPLE_LENGTH",
    "RNG_ID",
    "derive_seed",
    "run_cell",
    "run_table",
    "sample_fraction",
    "sample_numerators",
    "write_csv",
]

RNG_ID = "splitmix64"
# the longest sampled length: drawing its digits takes time quadratic in it
# (0.2 s at 2**20, 6 s at 2**22), and a length in the billions is gigabytes
MAX_SAMPLE_LENGTH = 1 << 20

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def _mix64(z: int) -> int:
    """splitmix64 finalizer: one 64-bit state word to one output word."""
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9 & _MASK64
    z = (z ^ (z >> 27)) * 0x94D049BB133111EB & _MASK64
    return z ^ (z >> 31)


def _run_state(master: int, run: int) -> int:
    """The first splitmix64 round of every seed in one run."""
    return _mix64(((master & _MASK64) + (run + 1) * _GOLDEN) & _MASK64)


def derive_seed(master: int, run: int, index: int) -> int:
    """Seed for one sample, a pure function of its (run, index) coordinates."""
    return _mix64((_run_state(master, run) + (index + 1) * _GOLDEN) & _MASK64)


def _bit_stream(seed: int, nbits: int) -> int:
    """nbits pseudo-random bits (as an integer) from repeated splitmix64 draws."""
    out = 0
    got = 0
    state = seed & _MASK64
    while got < nbits:
        state = (state + _GOLDEN) & _MASK64
        out = (out << 64) | _mix64(state)
        got += 64
    return out >> (got - nbits)


def _sample_numerator(ell: int, seed: int) -> int:
    """Numerator of a length-ell sample: first and last digits 1, the rest random."""
    return (1 << (ell - 1)) | (_bit_stream(seed, ell - 2) << 1) | 1


def sample_fraction(ell: int, seed: int) -> BinaryFraction:
    """A uniform random length-ell binary fraction.

    First and last digits are pinned to 1 (normal form), the ell-2 middle
    digits are independent fair bits.
    """
    if not 3 <= ell <= MAX_SAMPLE_LENGTH:
        raise ValueError(
            f"sample_fraction needs 3 <= ell <= MAX_SAMPLE_LENGTH = {MAX_SAMPLE_LENGTH}"
        )
    return BinaryFraction(_sample_numerator(ell, seed), ell)


def sample_numerators(ell: int, master_seed: int, run: int, count: int) -> Iterator[int]:
    """Numerators of ``sample_fraction(ell, derive_seed(master_seed, run, i))``, i < count.

    The run's first splitmix64 round is computed once, not once per sample.
    """
    if not 3 <= ell <= MAX_SAMPLE_LENGTH:
        raise ValueError(
            f"sample_numerators needs 3 <= ell <= MAX_SAMPLE_LENGTH = {MAX_SAMPLE_LENGTH}"
        )
    state = _run_state(master_seed, run)
    for i in range(count):
        yield _sample_numerator(ell, _mix64((state + (i + 1) * _GOLDEN) & _MASK64))


@dataclass
class CellSummary:
    """Worst-case orbit statistics for one (length, samples, runs) cell.

    The field order is the CSV column order.
    """

    length: int
    samples: int
    runs: int
    max_length_delta: int
    max_stop_time: int
    seed: int
    rng_id: str
    capped_count: int

    def csv_row(self) -> str:
        return ",".join(str(getattr(self, f.name)) for f in fields(self))


CSV_HEADER = ",".join(f.name for f in fields(CellSummary))


def fan_out(fn, items: range, workers: int) -> list:
    """fn of each of n contiguous slices of ``items``, in order.

    n is ``workers`` (>= 1) clamped to the CPU count and to ``len(items)``.
    With n > 1 each slice is one pool task, so ``fn`` must pickle: a
    module-level function or a :func:`functools.partial` of one.
    """
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    n = min(workers, os.cpu_count() or 1, len(items))
    slices = [items[len(items) * i // n : len(items) * (i + 1) // n] for i in range(n)]
    if n > 1:
        with ProcessPoolExecutor(max_workers=n) as pool:
            return list(pool.map(fn, slices))
    return [fn(part) for part in slices]


@dataclass
class ExperimentConfig:
    """Configuration for a multi-length experiment table, checked on construction."""

    lengths: tuple[int, ...] = (50, 100)
    samples: int = 500
    runs: int = 10
    master_seed: int = 20250815
    step_cap: int = STEP_CAP

    def __post_init__(self) -> None:
        if not self.lengths or not all(3 <= ell <= MAX_SAMPLE_LENGTH for ell in self.lengths):
            raise ValueError(
                "lengths must be nonempty with every entry from 3 to"
                f" MAX_SAMPLE_LENGTH = {MAX_SAMPLE_LENGTH}"
            )
        if self.samples < 1 or self.runs < 1 or self.step_cap < 1:
            raise ValueError("samples, runs, and step_cap must be >= 1")


@dataclass
class ExperimentSummary:
    """One CellSummary per configured length, in configuration order."""

    config: ExperimentConfig
    cells: list[CellSummary] = field(default_factory=list)

    def to_csv(self) -> str:
        rows = [CSV_HEADER] + [cell.csv_row() for cell in self.cells]
        return "\n".join(rows) + "\n"


def _run_slice(pairs: range, config: ExperimentConfig) -> list[tuple[int, int, int]]:
    """(max length delta, max stop time, capped count) per length over some pairs.

    Pair i is run ``i // L`` of length ``config.lengths[i % L]``.  A length
    no pair reaches keeps (0, 0, 0), where every run's maxima start.
    """
    lengths, step_cap = config.lengths, config.step_cap
    cells = [(0, 0, 0)] * len(lengths)
    for i in pairs:
        run, j = divmod(i, len(lengths))
        ell = lengths[j]
        max_delta, max_stop, capped = cells[j]
        for n in sample_numerators(ell, config.master_seed, run, config.samples):
            extents = orbit_extents(n, step_cap)
            if extents is None:
                capped += 1
                continue
            max_len, steps = extents
            if max_len - ell > max_delta:
                max_delta = max_len - ell
            if steps > max_stop:
                max_stop = steps
        cells[j] = (max_delta, max_stop, capped)
    return cells


def run_table(config: ExperimentConfig, workers: int = 1) -> ExperimentSummary:
    """Run every cell of the configured table; deterministic given the config.

    One :func:`fan_out` over the (length, run) pairs, numbered run by run,
    gives each worker about runs/workers runs of every length; their
    per-length triples merge by max, max and sum, so memory does not grow
    with ``runs``.  Capped orbits are counted in ``capped_count`` and kept
    out of the maxima.  Results do not depend on ``workers`` (>= 1).
    """
    pairs = range(config.runs * len(config.lengths))
    results = fan_out(partial(_run_slice, config=config), pairs, workers)
    summary = ExperimentSummary(config=config)
    for ell, parts in zip(config.lengths, zip(*results)):
        summary.cells.append(
            CellSummary(
                length=ell,
                samples=config.samples,
                runs=config.runs,
                max_length_delta=max(p[0] for p in parts),
                max_stop_time=max(p[1] for p in parts),
                seed=config.master_seed,
                rng_id=RNG_ID,
                capped_count=sum(p[2] for p in parts),
            )
        )
    return summary


def run_cell(
    ell: int,
    samples: int,
    runs: int,
    master_seed: int,
    step_cap: int = STEP_CAP,
    workers: int = 1,
) -> CellSummary:
    """Worst case over `runs` independent runs of `samples` random orbits each.

    The one-length table of :func:`run_table`; :class:`ExperimentConfig`
    checks the arguments.
    """
    config = ExperimentConfig((ell,), samples, runs, master_seed, step_cap)
    return run_table(config, workers).cells[0]


def write_csv(summary: ExperimentSummary, path: str) -> None:
    """Write the table as UTF-8 CSV with LF line endings."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(summary.to_csv())
