"""Reproducible random-orbit experiments over fixed-length binary fractions.

Randomness comes from a small splitmix64 generator with per-sample seeds
derived from (master seed, run index, sample index), so results are
identical across platforms and across worker counts: every sample is a pure
function of its coordinates, and cell statistics are maxima and sums, which
merge in any order.  :func:`fan_out` gives each worker one contiguous slice,
as one job of :class:`Parts`, the package's one process fan-out, which
range verification uses too.  Only a fan-out of n > 1 parts starts a child,
and only it loads ``multiprocessing``: a run at one worker, and every
command that never fans out, is spared that import at its start.

The sampler runs splitmix64 on many states at once.  Each state sits in its
own 128-bit lane of one Python int, and one round of big-int operations
mixes every lane.  No lane carries into the next: each is cut back to 64
bits before each multiply by a 64-bit constant, so every product is below
2**128, and the bits a right shift pulls in from the next lane land above
bit 64, where the same masks clear them.  A sample of length ell owns
h = ceil((ell - 1) / 128) adjacent lanes, each of which ends up holding two
of its 64-bit words.  Three big-int operations on the whole packed int cut
every sample's lanes down to its digits and pin its end digits, one
``struct`` unpack splits the int's bytes into per-sample windows, and
``int.from_bytes`` reads each window lazily, in time linear in ell.  An int
holds at most 1024 lanes (16 KiB), unless one sample alone needs more, so
memory stays flat at any sample count.
"""

from __future__ import annotations

import os
import struct
from collections.abc import Iterable, Iterator
from contextlib import closing
from functools import lru_cache, partial
from itertools import repeat

from .exact import BinaryFraction, _Record
from .maps import STEP_CAP, _end_table, _jump_table, orbit_extents

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
# the longest sampled length: a sample's time is linear in its length (0.2 ms
# at 2**16, 3 ms at 2**20, 11 ms at 2**22, plus 1-60 ms for the first sample
# of a length, which builds its lane constants), but a length in the
# billions would be gigabytes
MAX_SAMPLE_LENGTH = 1 << 20

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
# the most 128-bit lanes drawn in one packed int, unless one sample needs more
_LANES = 1024


def _mix64(z: int) -> int:
    """splitmix64 finalizer: one 64-bit state word to one output word."""
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9 & _MASK64
    z = (z ^ (z >> 27)) * 0x94D049BB133111EB & _MASK64
    return z ^ (z >> 31)


def _mix64_lanes(z: int, mask: int) -> int:
    """:func:`_mix64` of every 128-bit lane of z at once; mask is _MASK64 in each lane.

    Every lane is cut back to 64 bits before each multiply, so its product
    with a 64-bit constant stays below 2**128 and never carries into the
    next lane; the bits a right shift pulls in from the next lane land above
    bit 64, where the same masks clear them.
    """
    z = ((z ^ z >> 30) & mask) * 0xBF58476D1CE4E5B9 & mask
    z = ((z ^ z >> 27) & mask) * 0x94D049BB133111EB & mask
    return (z ^ z >> 31) & mask


def _lane(value: int) -> bytes:
    return value.to_bytes(16, "little")


@lru_cache(maxsize=8)
def _lane_constants(h: int, n: int) -> tuple[int, int, int, int, int, int]:
    """Lane constants for n samples of h lanes each: (ones, mask, iota, hi, lo, firsts).

    Sample i owns lanes h*i to h*i + h - 1, and lane q of them holds its
    word pair p = h - 1 - q.  ones is 1 and mask _MASK64 in every lane;
    iota is (i + 1) * _GOLDEN; hi and lo are the offsets (2p + 1) * _GOLDEN
    and (2p + 2) * _GOLDEN mod 2**64 of the pair's two words; firsts is 1
    in each sample's first lane, lane h*i, and 0 in its others.
    """

    def offsets(k: int) -> int:
        sample = b"".join(_lane((2 * p + k) * _GOLDEN & _MASK64) for p in reversed(range(h)))
        return int.from_bytes(sample * n, "little")

    ones = int.from_bytes(_lane(1) * (h * n), "little")
    iota = _GOLDEN * int.from_bytes(b"".join(_lane(i) * h for i in range(1, n + 1)), "little")
    firsts = int.from_bytes((_lane(1) + bytes(16 * (h - 1))) * n, "little")
    return ones, _MASK64 * ones, iota, offsets(1), offsets(2), firsts


def _run_state(master: int, run: int) -> int:
    """The first splitmix64 round of every seed in one run."""
    return _mix64(((master & _MASK64) + (run + 1) * _GOLDEN) & _MASK64)


def derive_seed(master: int, run: int, index: int) -> int:
    """Seed for one sample, a pure function of its (run, index) coordinates."""
    return _mix64((_run_state(master, run) + (index + 1) * _GOLDEN) & _MASK64)


def _draw(
    ell: int, seeds: int, n: int, mask: int, hi: int, lo: int, firsts: int, unpack=None
) -> Iterable[int]:
    """Numerators of n length-ell samples; seeds holds each one's seed in all its lanes.

    Word j of a seed is _mix64(seed + (j + 1) * _GOLDEN).  A numerator is 1,
    then the top ell - 2 bits of words 0, 1, ... in order, then 1.  Each
    lane becomes one word pair, word 2p above word 2p + 1, so a sample's
    lanes read little-endian put its words in order from the top.

    Of n > 1 samples, the packed int is shifted so that each sample's window
    of ``size`` bytes starts with its ell - 1 top digits, cut to those digits
    and pinned at both ends with firsts, which marks every window's lowest
    bit.  Only when ell - 1 == 128h does the top pin fall one bit past a
    window; it is then set sample by sample.  ``unpack`` splits the bytes
    into the n windows: the ``unpack`` of ``struct.Struct(f"{size}s" * n)``,
    built by the caller once for every chunk of n samples.
    """
    pairs = _mix64_lanes((seeds + hi) & mask, mask) << 64
    if ell - 1 > 64:  # a numerator's digits reach an odd word
        pairs |= _mix64_lanes((seeds + lo) & mask, mask)
    size = 16 * ((ell + 126) // 128)
    shift = 8 * size - (ell - 1)
    pinned = 1 << (ell - 1) | 1
    if n == 1:  # one sample's lanes are the whole packed int
        return [pairs >> shift | pinned]
    tops = firsts << (ell - 1)
    packed = pairs >> shift & tops - firsts | firsts
    if shift:
        packed |= tops
    windows = unpack(packed.to_bytes(size * n, "little"))
    nums = map(int.from_bytes, windows, repeat("little"))
    return nums if shift else map(pinned.__or__, nums)


def sample_fraction(ell: int, seed: int) -> BinaryFraction:
    """A uniform random length-ell binary fraction.

    First and last digits are pinned to 1 (normal form), the ell-2 middle
    digits are independent fair bits.
    """
    if not 3 <= ell <= MAX_SAMPLE_LENGTH:
        raise ValueError(
            f"sample_fraction needs 3 <= ell <= MAX_SAMPLE_LENGTH = {MAX_SAMPLE_LENGTH}"
        )
    ones, mask, _, hi, lo, firsts = _lane_constants((ell + 126) // 128, 1)
    (numerator,) = _draw(ell, (seed & _MASK64) * ones, 1, mask, hi, lo, firsts)
    return BinaryFraction(numerator, ell)


def sample_numerators(ell: int, master_seed: int, run: int, count: int) -> Iterator[int]:
    """Numerators of ``sample_fraction(ell, derive_seed(master_seed, run, i))``, i < count.

    The run's first splitmix64 round is computed once; then the seeds and
    words of up to _LANES lanes' worth of samples are drawn per packed pass.
    The unpacker of a full chunk is built once, and the tail's once more.
    """
    if not 3 <= ell <= MAX_SAMPLE_LENGTH:
        raise ValueError(
            f"sample_numerators needs 3 <= ell <= MAX_SAMPLE_LENGTH = {MAX_SAMPLE_LENGTH}"
        )
    if count < 0:
        raise ValueError(f"sample_numerators needs count >= 0, got {count}")
    h = (ell + 126) // 128
    per_chunk = max(1, _LANES // h)
    state = _run_state(master_seed, run)
    unpack = None
    for first in range(0, count, per_chunk):
        n = min(per_chunk, count - first)
        if n > 1 and (unpack is None or n < per_chunk):
            unpack = struct.Struct(f"{16 * h}s" * n).unpack
        ones, mask, iota, hi, lo, firsts = _lane_constants(h, n)
        seeds = _mix64_lanes(((state + first * _GOLDEN & _MASK64) * ones + iota) & mask, mask)
        yield from _draw(ell, seeds, n, mask, hi, lo, firsts, unpack)


class CellSummary(_Record):
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
        return ",".join(str(getattr(self, name)) for name in self._fields)


CSV_HEADER = ",".join(CellSummary._fields)


def pool_size(workers: int) -> int:
    """``workers`` (>= 1) clamped to the CPU count."""
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    return min(workers, os.cpu_count() or 1)


def split(items: range, n: int) -> list[range]:
    """n contiguous slices of ``items``, in order, whose lengths differ by at most 1."""
    return [items[len(items) * i // n : len(items) * (i + 1) // n] for i in range(n)]


def _part_loop(fn, end) -> None:
    """A child of :class:`Parts`: send back ``fn(*job)`` of each job that its pipe ``end`` brings.

    The child waits on its pipe and on its parent's sentinel at once, so it
    ends when its parent does, even by a signal.
    """
    import multiprocessing.connection  # runs only in a child; a forked one has it from its parent

    while end in multiprocessing.connection.wait([end, multiprocessing.parent_process().sentinel]):
        end.send(fn(*end.recv()))


class Parts:
    """The one process fan-out: n parts, this process part 0 and n - 1 children the others.

    Child i (:func:`_part_loop`) keeps ``fn``: a forked child inherits it,
    with the orbit kernel's jump and end tables built here first, and under
    the spawn and forkserver start methods it reaches the child as an
    argument of its process, by pickle, once; so ``fn`` must then pickle, as
    a module-level function or a :func:`functools.partial` of one does.
    Each child has its own pipe, and this process keeps only its own end of
    it, so the pipe reads as closed as soon as the child ends, by an error
    or a signal.  :meth:`map` sends each child its job, runs job 0 here
    meanwhile, and waits for the children's results; :meth:`close` ends and
    reaps every child.  With n = 1 no child starts, nothing is pickled and
    ``multiprocessing`` is not imported; with n > 1 it is imported here.
    No part waits on a lock that another part holds, so no part's end can
    leave the others waiting, as a ``multiprocessing.Barrier`` would: one of
    its parties killed while it waits leaves every later wait, and even
    ``abort``, blocked for ever.
    """

    def __init__(self, fn, n: int) -> None:
        self.fn, self.n = fn, n
        self.links, self.children = [], []
        _jump_table(), _end_table()  # built before any fork, so that no child builds its own
        if n > 1:  # only a run that starts a child pays for this import
            import multiprocessing
        try:
            for _ in range(n - 1):
                link, end = multiprocessing.Pipe()
                self.links.append(link)
                child = multiprocessing.Process(target=_part_loop, args=(fn, end))
                child.start()
                self.children.append(child)
                end.close()
        except BaseException:
            self.close()
            raise

    def map(self, jobs: list[tuple]) -> list:
        """``fn(*job)`` of every job, in order, job i run by part i; at most n jobs."""
        for part, job in enumerate(jobs[1:], 1):
            self._call(part, "send", job)
        return [self.fn(*jobs[0])] + [self._call(part, "recv") for part in range(1, len(jobs))]

    def _call(self, part: int, method: str, *args):
        """``method(*args)`` on the pipe of child ``part``.

        A pipe whose child has ended reads as closed or breaks, and that
        raises RuntimeError naming the part and its exit code.
        """
        try:
            return getattr(self.links[part - 1], method)(*args)
        except (EOFError, OSError):
            child = self.children[part - 1]
            child.join()
            raise RuntimeError(f"part {part} of {self.n} ended with exit code "
                               f"{child.exitcode}") from None

    def close(self) -> None:
        """Kill and reap every child.

        A child holds no lock and no file of its own, and between jobs it
        only waits, so SIGKILL, which it can neither catch nor ignore, ends
        it at once whether the run finished or failed.
        """
        for child in self.children:
            child.kill()
        for child in self.children:
            child.join()
        for link in self.links:
            link.close()


def fan_out(fn, items: range, workers: int) -> list:
    """fn of each of n contiguous slices of ``items``, in order.

    n is :func:`pool_size` of ``workers``, clamped to ``len(items)``; each
    slice is one job of one :class:`Parts`, so with n > 1 under the spawn
    or forkserver start method ``fn`` must pickle.
    """
    with closing(Parts(fn, min(pool_size(workers), len(items)))) as parts:
        return parts.map([(part,) for part in split(items, parts.n)])


class ExperimentConfig(_Record):
    """Configuration for a multi-length experiment table, checked on construction."""

    lengths: tuple[int, ...] = (50, 100)
    samples: int = 500
    runs: int = 10
    master_seed: int = 20250815
    step_cap: int = STEP_CAP

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        if not self.lengths or not all(3 <= ell <= MAX_SAMPLE_LENGTH for ell in self.lengths):
            raise ValueError(
                "lengths must be nonempty with every entry from 3 to"
                f" MAX_SAMPLE_LENGTH = {MAX_SAMPLE_LENGTH}"
            )
        if self.samples < 1 or self.runs < 1 or self.step_cap < 1:
            raise ValueError("samples, runs, and step_cap must be >= 1")


class ExperimentSummary(_Record):
    """One CellSummary per configured length, in configuration order."""

    config: ExperimentConfig
    cells: list[CellSummary] = []

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
