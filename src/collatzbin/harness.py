"""Reproducible random-orbit experiments over fixed-length binary fractions.

Randomness comes from a small splitmix64 generator with per-sample seeds
derived from (master seed, run index, sample index), so results are
identical across platforms and across worker counts: every sample is a pure
function of its coordinates, and cell statistics are maxima, which merge in
any order.
"""

from __future__ import annotations

import os
from collections.abc import Iterator
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, fields

from .exact import BinaryFraction
from .maps import STEP_CAP, orbit_extents

__all__ = [
    "CSV_HEADER",
    "CellSummary",
    "ExperimentConfig",
    "ExperimentSummary",
    "RNG_ID",
    "derive_seed",
    "run_cell",
    "run_table",
    "sample_fraction",
    "sample_numerators",
    "write_csv",
]

RNG_ID = "splitmix64"

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
    if ell < 3:
        raise ValueError("sample_fraction needs ell >= 3")
    return BinaryFraction(_sample_numerator(ell, seed), ell)


def sample_numerators(ell: int, master_seed: int, run: int, count: int) -> Iterator[int]:
    """Numerators of ``sample_fraction(ell, derive_seed(master_seed, run, i))``, i < count.

    The run's first splitmix64 round is computed once, not once per sample.
    """
    if ell < 3:
        raise ValueError("sample_numerators needs ell >= 3")
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


def _run_one(args: tuple[int, int, int, int, int]) -> tuple[int, int, int]:
    """One run of `samples` orbits; returns (max length delta, max stop, capped)."""
    ell, samples, master_seed, run, step_cap = args
    max_delta = 0
    max_stop = 0
    capped = 0
    for n in sample_numerators(ell, master_seed, run, samples):
        max_len, steps, hit_cap = orbit_extents(n, step_cap)
        if hit_cap:
            capped += 1
            continue
        if max_len - ell > max_delta:
            max_delta = max_len - ell
        if steps > max_stop:
            max_stop = steps
    return max_delta, max_stop, capped


def worker_count(workers: int) -> int:
    """A requested worker count, checked to be >= 1 and clamped to the CPU count."""
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    return min(workers, os.cpu_count() or 1)


def fan_out(fn, jobs: list, workers: int) -> list:
    """fn applied to each job, in order; in a process pool when workers > 1.

    The pool gets at most one process per job and per CPU.
    """
    workers = min(worker_count(workers), len(jobs))
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(fn, jobs))
    return [fn(job) for job in jobs]


@dataclass
class ExperimentConfig:
    """Configuration for a multi-length experiment table, checked on construction."""

    lengths: tuple[int, ...] = (50, 100)
    samples: int = 500
    runs: int = 10
    master_seed: int = 20250815
    step_cap: int = STEP_CAP

    def __post_init__(self) -> None:
        if not self.lengths or any(ell < 3 for ell in self.lengths):
            raise ValueError("lengths must be nonempty with every entry >= 3")
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


def run_table(config: ExperimentConfig, workers: int = 1) -> ExperimentSummary:
    """Run every cell of the configured table; deterministic given the config.

    Every (length, run) pair is one job, and all of them go through one
    :func:`fan_out`.  Orbits that hit the step cap are counted in
    ``capped_count`` and excluded from the maxima.  Results do not depend on
    ``workers``, which must be >= 1 and is clamped to the CPU count.
    """
    runs = config.runs
    jobs = [
        (ell, config.samples, config.master_seed, run, config.step_cap)
        for ell in config.lengths
        for run in range(runs)
    ]
    results = fan_out(_run_one, jobs, workers)
    summary = ExperimentSummary(config=config)
    for i, ell in enumerate(config.lengths):
        cell = results[i * runs : (i + 1) * runs]
        summary.cells.append(
            CellSummary(
                length=ell,
                samples=config.samples,
                runs=runs,
                max_length_delta=max(r[0] for r in cell),
                max_stop_time=max(r[1] for r in cell),
                seed=config.master_seed,
                rng_id=RNG_ID,
                capped_count=sum(r[2] for r in cell),
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
