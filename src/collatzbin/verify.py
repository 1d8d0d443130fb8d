"""Exhaustive convergence checks over every odd start below a power of two.

:func:`verify_range` proves that every odd start below 2**ell reaches the
ground state, with the largest stopping time and its smallest start.  Stop
times are memoized in one int16 memo, filled block by block from the
parity-vector classes of Terras's block identity; the starts the classes do
not resolve, and those above the memo, are walked by the orbit kernel's jump
table.  The memo is one mmap at any worker count: this process and n - 1
children, the n parts of :class:`harness.Parts`, fill every block in n
parts of it, in lockstep.  At one part it is an anonymous mmap, and only
with children a ``multiprocessing`` arena that they share.
"""

import sys
from array import array
from collections.abc import Callable, Iterator
from contextlib import closing
from functools import partial
from itertools import chain, repeat

from . import maps
from .exact import _Record
from .harness import Parts, pool_size

__all__ = ["DivergenceError", "RangeVerification", "verify_range"]


class DivergenceError(Exception):
    """An orbit exceeded its step cap before reaching the ground state."""

    def __init__(self, start: int, step_cap: int):
        super().__init__(start, step_cap)
        self.start = start
        self.step_cap = step_cap

    def __str__(self) -> str:
        return f"orbit of {self.start} exceeded the step cap of {self.step_cap}"


class RangeVerification(_Record):
    """Exhaustive convergence summary for all odd starts below 2**ell."""

    ell: int
    verified_count: int
    max_stopping_time: int
    worst_start: int


# stop times are memoized for odd values below 2**_MEMO_BITS only: one int16
# memo of at most 2**24 entries, 32 MiB, however many workers share it.
# _MEMO_BITS >= maps._JUMP_BITS: the starts above the memo are walked down to
# its bound, and a jump of K steps counts its reduced steps exactly only from
# a state at or above 2**K (see _walk)
_MEMO_BITS = 25
# the memo fill copies a residue class as one slice when each start's stop
# time follows from an iterate at most this share of it, the pair (p, q) for
# the ratio p/q (see _FillTree)
_FILL_RATIO = (27, 32)
# a fill block takes the tree's classes down to the depth where one still
# holds this many of its starts (see _fill_depth); 8 and 32 were no faster
_CLASS_STARTS = 16
# the most starts of a class copied in one slice, so no slice is large
_PIECE = 1 << 12
# the parts share an open residue's starts in runs of this many per part;
# which part takes a run's first start turns from run to run (see _fill_block)
_RUN = 1 << 11


def _walk(
    memo: array | memoryview, starts, floor: int, step_cap: int
) -> tuple[int, int, int, int]:
    """Walk odd starts down below ``floor``; a part's (count, peak, smallest start at it, capped).

    ``memo`` is an int16 ``array`` or memoryview holding the stop time of
    each odd v below its bound, 2 * len(memo), at index v >> 1, or -1 if
    not yet known, and memo[0] = 0 for the value 1.  ``floor`` is clamped
    to that bound, every odd value below it must be known, and it must be
    at least 2**K.  A start jumps K steps of T from every state, odd or
    even, through ``maps._jump_table``, each count of reduced steps exact
    as in :func:`maps.orbit_extents`, until it falls below ``floor``; that
    state's odd part adds its memo entry, and a start below the bound
    stores its stop time.  A start whose stop time passes ``step_cap`` is
    skipped with its entry left at -1.  The starts may come in any order:
    the start returned at the peak is the smallest that reaches it, and the
    last value the smallest skipped start, or 0 if none is.
    """
    K = maps._JUMP_BITS
    mask = (1 << K) - 1
    table = maps._jump_table()
    bound = len(memo) << 1
    floor = min(floor, bound)
    count, best, worst, capped = 0, -1, 0, 0
    for x in starts:
        v, s = x, 0
        while v >= floor and s <= step_cap:
            c, power, tail, _, _ = table[v & mask]
            v = power * (v >> K) + tail
            s += c
        if s <= step_cap:
            # the odd part of v is v >> t, t its trailing zeros, at index v >> (t + 1)
            s += memo[v >> (v & -v).bit_length()]
        if s > step_cap:
            if not capped or x < capped:
                capped = x
            continue
        if x < bound:
            memo[x >> 1] = s
        count += 1
        if s >= best and (s > best or x < worst):
            best, worst = s, x
    return count, best, worst, capped


def _merge(parts: list[tuple[int, int, int, int]]) -> tuple[int, int, int, int]:
    """The (count, peak, smallest start at the peak, smallest capped start or 0) of ``parts``.

    Each part reports those four of a set of starts, the sets disjoint, and
    0 where it has no capped start.  A start that reaches the joint peak
    reaches its own part's peak, so the smallest of them is the smallest
    of the starts that the parts at the peak report, whatever order the
    parts come in; likewise the smallest capped start.
    """
    peak = max(p for _, p, _, _ in parts)
    return (
        sum(n for n, _, _, _ in parts),
        peak,
        min(x for _, p, x, _ in parts if p == peak),
        min((x for _, _, _, x in parts if x), default=0),
    )


def _found(ys: array, top: int, start: int, gap: int, step_cap: int) -> tuple[int, int]:
    """(the smallest start whose stop time is ``top``, the smallest past ``step_cap``, or 0).

    ``ys`` holds the stop times of the starts ``start``, ``start + gap``,
    ... in order, and ``top`` is its largest entry; the capped start is
    the first sum past the cap, sought only when ``top`` passes it.
    """
    capped = 0
    if top > step_cap:
        capped = start + gap * next(i for i, s in enumerate(ys) if s > step_cap)
    return start + gap * ys.index(top), capped


class _FillTree:
    """The parity-vector tree at ``ratio`` that :func:`_fill_memo` fills by, ``depth`` deep.

    With T(n) = (3n+1)/2 on odd n and n/2 on even n, a residue b mod 2**m
    fixes the parities of T^j(x), j < m, for every x = 2**m A + b, and
    T^j(x) = 3**c 2**(m-j) A + T^j(b) for j <= m, c the count of odd values
    among T^0(x), ..., T^(j-1)(x) (Terras's block identity, as in
    :func:`maps.orbit_extents`).  The tree splits the odd residues one bit
    at a time, from 1 mod 2, and a residue b mod 2**m becomes a class
    (b, m, c, stride, offset), split no further, as soon as its parities
    resolve it.  Then x has stop(x) = c + stop(y), y the odd value at memo
    index ``stride * A + offset``:

    * b = 5 mod 8, at m = 3: c = 0 and y = (x - 1)/4 = 2A + 1, so the
      stride is 1 and the offset 0;
    * otherwise at j = m - 1, the first j at which T^j(b) is odd and
      3**c <= ``ratio`` 2**j (every earlier j was tested on b's parent mod
      2**(m-1), which stayed open): y = T^j(x) = 2 * 3**c A + T^j(b), so
      the stride is 3**c and the offset T^j(b) >> 1.

    Every other residue stays open and is split again, down to ``depth``.
    So the classes of depth at most M, each standing for its 2**(M-m)
    residues mod 2**M, and the residues open at M, partition the odd
    residues mod 2**M, for every M <= ``depth``.  The whole tree is built
    here, once per run (see :func:`verify_range`); ``fields`` holds the b,
    m, c and offset of every class, one array each, in order of depth m,
    ``ends[M]`` counts the classes of depth at most M, and ``opens[M]``
    holds the residues open at M.  ``ratio`` is an integer pair (p, q) that
    stands for p/q, so the tree tests 3**c q <= p 2**j in integers.
    """

    def __init__(self, ratio: tuple[int, int], depth: int) -> None:
        self.ratio = p, q = ratio
        # int32 holds every residue and offset of a tree less than 32 levels deep
        self.fields = tuple(array("i") for _ in range(4))
        self.ends = [0, 0]
        self.opens = [array("i"), array("i", [1])]
        # T^m(b), and the count c of odd values among T^0(b), ..., T^(m-1)(b),
        # for each b open at the deepest level m built so far
        values, odds = array("q", [2]), array("b", [1])
        for m in range(1, depth):
            opens, next_values, next_odds = array("i"), array("q"), array("b")
            for b, v, c in zip(self.opens[m], values, odds):
                power = 3**c
                resolves = power * q <= p << m
                # T^m(b + 2**m) = T^m(b) + 3**c: the two children differ in that parity only
                for child, w in ((b, v), (b | 1 << m, v + power)):
                    if m == 2 and child == 5:
                        found = (5, 3, 0, 0)
                    elif w & 1 and resolves:
                        found = (child, m + 1, c, w >> 1)
                    else:
                        opens.append(child)
                        next_values.append((3 * w + 1) >> 1 if w & 1 else w >> 1)
                        next_odds.append(c + (w & 1))
                        continue
                    for field, value in zip(self.fields, found):
                        field.append(value)
            self.ends.append(len(self.fields[0]))
            self.opens.append(opens)
            values, odds = next_values, next_odds

    def level(self, depth: int, part: int = 0, parts: int = 1) -> tuple[Iterator, array]:
        """The classes of depth at most ``depth`` and the residues open there.

        Of the classes, every ``parts``-th from the ``part``-th; every open
        residue, as each part walks its share of each one's starts (see
        :func:`_fill_block`).  A ``depth`` past the tree's own raises
        IndexError.
        """
        b, m, c, offset = (field[part : self.ends[depth] : parts] for field in self.fields)
        return zip(b, m, c, map(pow, repeat(3), c), offset), self.opens[depth]


def _fill_depth(lo: int, hi: int) -> int:
    """The tree depth M of a fill block [lo, hi) whose end, before rounding, is hi.

    The deepest M at which one residue class mod 2**M still holds
    ``_CLASS_STARTS`` values of [lo, hi), but no deeper than 2**(M+1) <= lo,
    and at least 1; lo >= 4.
    """
    return max(1, min(((hi - lo) // _CLASS_STARTS).bit_length() - 1, lo.bit_length() - 2))


def _add_lanes(ys, c: int, below: int) -> tuple[array, int]:
    """(``array("h", [y + c for y in ys])``, the largest y + c if it passes ``below``, else -1).

    ``ys``, an ``array`` or a strided memoryview of int16 entries with
    0 <= y <= ``below`` <= 0x7FFF, and 0 < c <= 0x8000, is read once, as
    one integer of 16-bit lanes in the host's byte order, and c times the
    integer with 1 in each lane is added in one int add.  A lane carries
    into the next only if it passes 0xFFFF, and y + c <= 0x7FFF + c does
    not.  The threshold test adds 0x7FFF - below + c to every lane
    instead: a lane then holds y + 0x7FFF - below + c, at least
    0x7FFF - below + c >= 0 and at most 0x7FFF + c <= 0xFFFF, so no lane
    borrows or carries, and its bit 15 is set exactly when
    y + 0x7FFF - below + c >= 0x8000, that is when y + c > below.  Only
    then is the exact ``max`` taken, of the bytes already read.  A sum
    past 0x7FFF is not a valid int16, so the caller must check the
    maximum before it stores the array.
    """
    data = bytes(ys)
    n = len(data) >> 1
    ones = int.from_bytes(array("h", [1]).tobytes() * n, sys.byteorder)
    total = int.from_bytes(data, sys.byteorder) + c * ones
    top = -1
    if (total + (0x7FFF - below) * ones) & ones << 15:
        top = max(memoryview(data).cast("h")) + c
    return array("h", total.to_bytes(len(data), sys.byteorder)), top


def _fill_block(
    memo: array | memoryview, tree: _FillTree, lo: int, hi: int, depth: int, below: int,
    part: int, parts: int, step_cap: int
) -> tuple[int, int, int, int]:
    """Fill part ``part`` of ``parts`` of one block [lo, hi) of :func:`_fill_memo`.

    The block's classes are those of ``tree`` of depth at most ``depth``,
    and the part copies every ``parts``-th of them, from the ``part``-th, in
    pieces of at most ``_PIECE`` starts.  The starts of every residue still
    open at ``depth`` are cut into runs of ``parts * _RUN`` consecutive
    ones, from lo, and in run w the part walks every ``parts``-th start from
    the ((part + w) mod ``parts``)-th, down below lo by :func:`_walk`.  So
    the first block's one residue is shared too, and in the last round, one
    residue at depth 1, each part walks starts of every size, and as many
    1 mod 4, which fall faster, as 3 mod 4.  A class with c > 0 adds c to
    its source piece in one packed add (:func:`_add_lanes`).  Every entry
    read lies below lo, so the fill has checked it to be in [0, ``below``],
    ``below`` the largest entry below lo; a piece whose largest sum, taken
    only when it passes ``below``, passes 0x7FFF raises OverflowError before
    it is stored, as ``array("h")`` does.  A class with no start in the
    block is skipped.  The part writes only the entries of its own starts in
    [lo, hi) and reads only entries below lo, so the parts of a block can
    run at once on one shared memo.

    Returns, as :func:`_merge` of the walk and the pieces whose largest
    sum passes ``below`` (each by :func:`_found`), (how many entries it
    wrote, its peak, the smallest start at the peak, the smallest capped
    start or 0).  A start of a piece that stays at most ``below`` can
    neither pass the cap nor raise the largest stop time found so far, so
    the peak and its start are exact whenever the peak passes ``below``.
    A capped walk leaves its start's entry at -1, and a capped piece stores
    its sums; either way the fill stops at this block.
    """
    classes, opens = tree.level(depth, part, parts)
    count, found = 0, []
    for b, m, c, stride, offset in classes:
        step = 1 << (m - 1)  # the memo stride of one class
        first, end = (lo - b + (1 << m) - 1) >> m, (hi - b + (1 << m) - 1) >> m
        for a in range(first, end, _PIECE):
            n = min(_PIECE, end - a)
            x, y = step * a + (b >> 1), stride * a + offset
            ys = memo[y : y + n * stride : stride]
            if c:
                ys, top = _add_lanes(ys, c, below)
                if top > 0x7FFF:
                    raise OverflowError(f"stop time {top} of the class {b} mod 2**{m} "
                                        "passes int16")
                if top > below:
                    found.append((0, top, *_found(ys, top, 2 * x + 1, 2 * step, step_cap)))
            memo[x : x + n * step : step] = ys
        count += end - first
    mask, period, span = (1 << depth) - 1, parts << depth, parts * _RUN << depth
    # each run: where it starts and ends, and how far past a residue's first start this part starts
    runs = ((at, min(at + span, hi), (part + w) % parts << depth)
            for w, at in enumerate(range(lo, hi, span)))
    starts = chain.from_iterable(range(at + (b - at & mask) + skip, end, period)
                                 for at, end, skip in runs for b in opens)
    walks, *walked = _walk(memo, starts, lo, step_cap)
    return _merge([(count + walks, *walked), *found])


def _blocks(top: int, ratio: tuple[int, int]) -> Iterator[tuple[int, int, int]]:
    """The fill blocks (lo, hi, depth) of :func:`_fill_memo` at ``ratio``, from 2**K up to ``top``.

    ``ratio`` is the pair (p, q) of :class:`_FillTree`, for rho = p/q < 1.
    The first block is [2**K, 2**K a0) at depth 1, a0 = ceil(p / (q - p)),
    the smallest a with floor(a / rho) > a, and K = ``maps._JUMP_BITS``.
    Each next block [lo, hi) starts at the last one's end: with
    h = floor(lo / rho) = floor(lo q / p), its depth is
    M = ``_fill_depth(lo, h)``, and hi is h rounded down to a multiple of
    2**M.  Every hi is cut at ``top``, and the last block ends there.
    """
    p, q = ratio
    lo, hi, depth = 1 << maps._JUMP_BITS, -(-p // (q - p)) << maps._JUMP_BITS, 1
    while lo < top:
        yield lo, min(hi, top), depth
        lo, h = hi, hi * q // p
        depth = _fill_depth(lo, h)
        hi = h >> depth << depth


def _fill_arena(arena, tree: _FillTree, *job) -> tuple[int, int, int, int]:
    """:func:`_fill_block` of one job on the shared int16 memo that ``arena`` holds."""
    return _fill_block(memoryview(arena.buffer).cast("h"), tree, *job)


def _fill_memo(
    memo: array | memoryview, top: int, step_cap: int, tree: _FillTree, parts: Parts
) -> tuple[int, int, int]:
    """Check every odd start below ``top``, from 1 up; store those below the memo's bound.

    ``memo`` is as in :func:`_walk`, with bound 2 * len(memo), but nothing
    need be known yet.  Values below 2**K (K = ``maps._JUMP_BITS``),
    memo[0] among them, are copied from the step column of
    ``maps._end_table``.  Then each block (lo, hi, M) of
    ``_blocks(min(top, bound), rho)``, rho = ``tree.ratio``, is filled by
    :func:`_fill_block` from the classes of ``tree`` of depth at most M and
    the residues open at M; ``tree`` must be at least as deep as every M.
    Every value below lo is already stored, and every y that a class reads
    lies there.  A class (b, m, c, ...) covers the starts x = 2**m A + b in
    the block, and m <= M:

    * A >= 1 for every start: x >= lo >= 2**(M+1) and b < 2**m <= 2**M, so
      2**m A = x - b > 2**M.
    * 2**m (A + 1) <= hi <= h <= lo / rho: x < hi, and hi is a multiple of
      2**M, hence of 2**m, so 2**m A <= hi - 2**m.
    * b = 5 mod 8: 3x + 1 = 4 (3y + 1) with y = (x - 1)/4 > 1, so x and y
      have the same next odd value and stop(x) = stop(y); and
      y < 2**(m-2) (A + 1) < rho 2**m (A + 1) <= lo, as rho > 1/4.
    * The other classes, at j = m - 1: each T^i(x), i <= j, is at least
      2**(m-i) A >= 2, so no value before y = T^j(x) is 1; and y is odd,
      so it is the c-th reduced iterate and stop(x) = c + stop(y).  By the
      lemma of :func:`orbit_extents`, T^j(b) < 3**c 2**(m-j), so
      y < 3**c 2**(m-j) (A + 1) <= rho 2**m (A + 1) <= lo.
    * The open residues are walked down below lo by :func:`_walk`.

    The first block, [2**K, 2**K a0), may be wider than lo / rho: at depth
    1 the tree has no class and its one open residue, 1 mod 2, holds every
    odd start, so the whole block is walked, and a walk needs only that
    every value below lo is stored.  The starts in [bound, ``top``), if
    any, are the last round: a block at depth 1, whose starts are walked
    down to the bound and not stored.

    So no entry of a block depends on another entry of it, and every entry
    it reads was checked below to be in [0, ``step_cap``]; the largest of
    them, ``below``, is the largest stop time found so far.  A class can
    raise the maximum, pass the cap or pass 0x7FFF only where some
    y + c > ``below``, which :func:`_add_lanes`'s packed test finds, and
    only there is the exact maximum taken; no lane of its add carries, and
    a sum past 0x7FFF raises OverflowError.  ``parts`` (see
    :class:`harness.Parts`) fills the blocks by :func:`_fill_block` on
    ``tree`` and on the memo that ``memo`` views in this process.  Every
    block, the last round too, is filled as n = ``parts.n`` parts at once,
    all done before the next block starts: inside the memo each part takes
    its turns of the block's classes and open residues.

    Every part reports (count, peak, smallest start at the peak, smallest
    capped start or 0), and the parts of a range (those below 2**K, or a
    block) are merged by :func:`_merge`, so the order of the starts, the
    parts and the pieces never matters.  A range with a capped start
    raises :class:`DivergenceError` for the smallest: the smallest
    witness, as every smaller start is known and within the cap.  A range
    whose parts wrote other than one entry per odd value in it raises
    RuntimeError naming it, so no entry is left unknown.  The ranges
    ascend, so the first range whose peak passes every earlier one holds
    the smallest start at the largest stop time.  Returns (the number of
    starts checked, the largest stop time below ``top``, its smallest
    start).
    """

    def checked(lo: int, hi: int, done: list[tuple[int, int, int, int]]) -> tuple[int, int, int]:
        """(count, peak, smallest start at it) of the parts ``done`` of [lo, hi), once checked."""
        count, peak, start, capped = _merge(done)
        if capped:
            raise DivergenceError(capped, step_cap)
        odd = range(lo | 1, hi, 2)
        if count != len(odd):
            raise RuntimeError(f"the memo fill of [{lo}, {hi}) wrote {count} of its {len(odd)} "
                               "odd values")
        return count, peak, start

    low, bound = min(top, 1 << maps._JUMP_BITS), len(memo) << 1
    ys = array("h", [s for s, _ in maps._end_table()[1:low:2]])
    memo[: len(ys)] = ys
    top_ys = max(ys)
    total, best, worst = checked(1, low, [(len(ys), top_ys, *_found(ys, top_ys, 1, 2, step_cap))])
    above = [(bound, top, 1)] if top > bound else []
    n = parts.n
    for lo, hi, depth in chain(_blocks(min(top, bound), tree.ratio), above):
        jobs = [(lo, hi, depth, best, part, n, step_cap) for part in range(n)]
        count, peak, start = checked(lo, hi, parts.map(jobs))
        total += count
        if peak > best:
            best, worst = peak, start
    return total, best, worst


def _shared_memo(bound: int, tree: _FillTree, n: int) -> tuple[memoryview, Callable]:
    """(memo, fill): an empty memo of the odd values below ``bound``, and the fill of its blocks.

    The memo is the int16 view of an mmap of ``bound`` bytes, as in
    :func:`_walk` once :func:`_fill_memo` has stored memo[0] = 0 with the
    rest of the end table, and is filled with -1 a piece at a time.
    ``fill`` is :func:`_fill_block` on the memo by the classes of ``tree``,
    for the n parts of :class:`harness.Parts`.  At n > 1 the mmap is a
    ``multiprocessing.heap.Arena`` and ``fill`` reaches it through the
    arena, which the children inherit or, under the spawn and forkserver
    start methods, reopen, as it pickles; at n = 1 it is an anonymous mmap
    that only this process maps, and ``fill`` writes its view in place.
    """
    # imported here, not with the module, so that only a run that fills a memo
    # loads them, and only one with children loads multiprocessing
    if n > 1:
        from multiprocessing.heap import Arena

        arena = Arena(bound)
        memo = memoryview(arena.buffer).cast("h")
        fill = partial(_fill_arena, arena, tree)
    else:
        import mmap

        memo = memoryview(mmap.mmap(-1, bound)).cast("h")
        fill = partial(_fill_block, memo, tree)
    unknown = array("h", [-1]) * min(len(memo), 1 << 15)
    for at in range(0, len(memo), len(unknown)):
        memo[at : at + len(unknown)] = unknown
    return memo, fill


def verify_range(ell: int, workers: int = 1, step_cap: int = maps.STEP_CAP) -> RangeVerification:
    """Prove every odd start below 2**ell reaches the ground state.

    Reduced-map stopping times are held in one int16 memo of the odd
    values below 2**min(ell, 25), at most 32 MiB; the worst start is the
    smallest one attaining the maximum.  The memo is filled from 1 up,
    block by block, by the classes of one parity-vector tree (see
    ``_FillTree``, ``_blocks`` and ``_fill_memo``): a residue mod 2**m
    becomes a class as soon as its first parities give every start's stop
    time from a smaller value's, and each block takes the tree down to the
    depth at which a class still holds about 16 of its starts.  At ell 22 a quarter
    of the starts (5 mod 8) copy a smaller value's stop time in strided
    slices, about 62% add a constant to one in a single int add over
    packed int16 lanes, and only the other 13% are walked, by jumps of 10
    steps through the orbit kernel's table (see ``_walk``).  No lane
    carries: every entry read is checked to be in [0, step_cap].  One more
    packed add tests whether a sum passes the largest stop time below the
    block; only then is the slice's maximum taken, and a sum past 0x7FFF
    raises OverflowError.  The starts at or above 2**25 are the fill's
    last round: they are walked the same way down to 2**25, reading the
    memo, and not stored.

    The tree is built once per run, as deep as the deepest block, before
    any child starts.  The memo is one mmap at any worker count, and its
    blocks are filled by one ``harness.Parts`` of n parts, n the worker
    count clamped to the CPU count, or 1 at ell <= 10, where the end table
    holds every start and there is no block to split.  At n = 1 the memo
    is an anonymous mmap that this process fills in place, and the run
    loads no ``multiprocessing``; at n > 1 it is a
    ``multiprocessing.heap.Arena``, which the children inherit or, under
    the spawn and forkserver start methods, reopen.  This process
    and n - 1 child processes fill every block in lockstep: this process
    sends each child its part of the block and fills part 0 meanwhile, and
    the next block starts once every part has reported.  Inside the memo
    the n parts take turns on the block's classes and on the starts of
    each open residue, the starts at or above 2**25 among them.  A child
    that fails or is killed makes the run raise RuntimeError, and no child
    outlives the run.

    ``verified_count`` counts the memo entries the fill wrote and the
    starts walked above 2**25, and a block that leaves an odd value
    unknown raises RuntimeError naming the block.  Every part of a block
    reports its count, its peak, its smallest start at the peak and its
    smallest capped start, and the parts merge by sum, max, the minimum
    at the max and the minimum: a start that reaches the block's peak
    reaches its own part's, so the minimum over the parts at the max is
    the block's smallest start at its peak, and the blocks ascend.  So a
    start whose stopping time exceeds the step cap raises
    :class:`DivergenceError` with the smallest such start as witness, and
    the memo is never scanned.  Worker count affects speed only, never
    the summary or the witness; it must be >= 1.
    """
    if not 1 <= ell <= 34:
        raise ValueError("verify_range supports 1 <= ell <= 34")
    if step_cap < 1:
        raise ValueError("step_cap must be >= 1")
    n = pool_size(workers)
    bound = 1 << min(ell, _MEMO_BITS)
    tree = _FillTree(_FILL_RATIO, max((d for _, _, d in _blocks(bound, _FILL_RATIO)), default=1))
    if ell <= maps._JUMP_BITS:
        n = 1
    memo, fill = _shared_memo(bound, tree, n)
    with closing(Parts(fill, n)) as parts:
        count, best, worst = _fill_memo(memo, 1 << ell, step_cap, tree, parts)
    return RangeVerification(ell=ell, verified_count=count, max_stopping_time=best,
                             worst_start=worst)
