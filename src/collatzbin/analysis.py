"""Orbit statistics, length accounting, and the periodic-orbit exclusion scan.

The analyses here are the quantitative core of the package: trajectory
records with stopping times and hailstone iterates, the head/tail table
bounding per-step length changes, exact error bounds between the interval
map and its circle-map companion, the scan for the first horizon k* where
those bounds stop excluding periodic points, exhaustive convergence checks
over all odd starts below a power of two, and probes of the structured
start families.
"""

from __future__ import annotations

import sys
from array import array
from collections.abc import Iterator
from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from functools import cache, partial
from itertools import chain, repeat

from . import maps
from .exact import BinaryFraction
from .harness import MAX_SAMPLE_LENGTH, pool_size, process_pool, sample_numerators, split
from .maps import (
    STEP_CAP,
    Branch,
    Family,
    binary_step,
    classify_branch,
    collatz_step,
    critical_point,
    embed,
    family_member,
    orbit_extents,
    reduced_step,
)

__all__ = [
    "AuditSummary",
    "DELTA_TABLE",
    "DivergenceError",
    "FamilyProbe",
    "HeadTailReport",
    "KStarReport",
    "MapKind",
    "RangeVerification",
    "TrajectoryRecord",
    "audit_length_deltas",
    "epsilon_bound",
    "family_orbit_probe",
    "head_tail_classify",
    "kstar_scan",
    "run_trajectory",
    "verify_range",
]


class MapKind(Enum):
    """Which map drives a trajectory: interval, reduced integer, or classic."""

    BINARY = "b"
    REDUCED = "r"
    COLLATZ = "c"


class DivergenceError(Exception):
    """An orbit exceeded its step cap before reaching the ground state."""

    def __init__(self, start: int, step_cap: int):
        super().__init__(start, step_cap)
        self.start = start
        self.step_cap = step_cap

    def __str__(self) -> str:
        return f"orbit of {self.start} exceeded the step cap of {self.step_cap}"


@dataclass
class TrajectoryRecord:
    """A finite orbit as the integers it visits; the rest is derived from them.

    ``states`` are the numerators n of the iterates n / 2**len(n) for map b,
    and the integers themselves for maps r and c; a length is a bit length.
    ``stopping_time`` is the number of steps to first reach the ground state
    (1/2 or 1); None means the step budget ran out first.  The hailstone is
    the first iterate of maximal length.
    """

    map_kind: MapKind
    states: list[int]
    stopping_time: int | None

    @property
    def iterates(self) -> list:
        """The orbit's points: BinaryFractions for map b, the states otherwise."""
        if self.map_kind is MapKind.BINARY:
            return [BinaryFraction(s, s.bit_length()) for s in self.states]
        return self.states

    @property
    def lengths(self) -> list[int]:
        return [s.bit_length() for s in self.states]

    @property
    def max_length(self) -> int:
        return max(self.states).bit_length()

    @property
    def hailstone_index(self) -> int:
        return self.lengths.index(self.max_length)

    @property
    def hailstone(self):
        return self.iterates[self.hailstone_index]

    @property
    def capped(self) -> bool:
        return self.stopping_time is None


# a stored orbit may hold at most this many cells (states times the largest
# bit length), which bounds its listing and its raster, at about 7 bytes a cell
_MAX_CELLS = 2**24


def run_trajectory(
    start: int | BinaryFraction,
    map_kind: MapKind = MapKind.BINARY,
    max_steps: int = STEP_CAP,
) -> TrajectoryRecord:
    """Follow one orbit until the ground state or the step budget.

    Integer starts for the interval map are embedded first.  A start that
    already sits at the ground state gets stopping time 0 and is followed
    once around its cycle, within the budget: 1, 4, 2, 1 on the classic
    map, and the one step from the fixed point to itself on the others.
    An orbit whose stored states times their largest bit length would pass
    2**24 cells raises ValueError.
    """
    if max_steps < 1:
        raise ValueError("max_steps must be >= 1")
    if map_kind is MapKind.BINARY:
        state = (embed(start) if isinstance(start, int) else start).numerator
    else:
        if not isinstance(start, int) or start < 1:
            raise ValueError("integer maps need a positive integer start")
        if map_kind is MapKind.REDUCED and start % 2 == 0:
            raise ValueError("the reduced map needs an odd start")
        state = start
    # the interval map is the reduced step on numerators (see binary_step)
    step = collatz_step if map_kind is MapKind.COLLATZ else reduced_step

    states = [state]
    width = state.bit_length()
    for _ in range(max_steps):
        state = step(state)
        states.append(state)
        if state.bit_length() > width:
            width = state.bit_length()
        if len(states) * width > _MAX_CELLS:
            raise ValueError(
                f"orbit listing passes {_MAX_CELLS} cells (states x largest bit length) "
                f"at step {len(states) - 1}, {width} bits wide"
            )
        if state == 1:
            break
    stopping_time = 0 if states[0] == 1 else (len(states) - 1 if state == 1 else None)
    return TrajectoryRecord(map_kind, states, stopping_time)


_HEAD_LABELS = {"100": "h1", "101": "h2", "110": "h3", "111": "h4"}
_TAIL_LABELS = {"001": "t1", "011": "t2", "101": "t3", "111": "t4"}

# Per-step length change (min, max) keyed by (head, tail) of the digit
# string.  A None minimum means unbounded below: tail 101 makes 3n+1 end in
# 000, and the run of zeros swallowed by renormalization can be arbitrarily
# long.  The other tails fix the swallowed run exactly (tail 001 -> two
# zeros, tails 011 and 111 -> one), which is why those cells are so tight.
DELTA_TABLE: dict[tuple[str, str], tuple[int | None, int]] = {
    ("h1", "t1"): (-1, -1),
    ("h1", "t2"): (0, 0),
    ("h1", "t3"): (None, -2),
    ("h1", "t4"): (0, 0),
    ("h2", "t1"): (-1, 0),
    ("h2", "t2"): (0, 1),
    ("h2", "t3"): (None, -1),
    ("h2", "t4"): (0, 1),
    ("h3", "t1"): (0, 0),
    ("h3", "t2"): (1, 1),
    ("h3", "t3"): (None, -1),
    ("h3", "t4"): (1, 1),
    ("h4", "t1"): (0, 0),
    ("h4", "t2"): (1, 1),
    ("h4", "t3"): (None, -1),
    ("h4", "t4"): (1, 1),
}


@dataclass
class HeadTailReport:
    """Classification of one point against the head/tail length table."""

    y: BinaryFraction
    head: str
    tail: str
    branch: Branch
    predicted_min: int | None
    predicted_max: int
    observed_delta: int

    def within_bounds(self) -> bool:
        if self.predicted_min is not None and self.observed_delta < self.predicted_min:
            return False
        return self.observed_delta <= self.predicted_max


def head_tail_classify(y: BinaryFraction) -> HeadTailReport:
    """Locate y in the head/tail table and record its actual length change.

    The head is the first three digits (which of the two arms applies and
    how much headroom the leading digits leave), the tail is the last three
    (which fixes, or fails to fix, the power of two stripped after
    tripling).  Needs at least six digits so head and tail do not overlap.
    """
    if y.length < 6:
        raise ValueError("head/tail classification needs at least 6 digits")
    bits = y.to_bits()
    head = _HEAD_LABELS[bits[:3]]
    tail = _TAIL_LABELS[bits[-3:]]
    lo, hi = DELTA_TABLE[(head, tail)]
    stepped = binary_step(y)
    return HeadTailReport(
        y=y,
        head=head,
        tail=tail,
        branch=classify_branch(y),
        predicted_min=lo,
        predicted_max=hi,
        observed_delta=stepped.length - y.length,
    )


# witness text an audit stores, in characters (see AuditSummary)
_WITNESS_CHARS = 1 << 20


@dataclass
class AuditSummary:
    """Result of a randomized audit of the head/tail table at one length.

    ``violation_count`` counts every violation; ``violations`` holds their
    witnesses in order until the text passes ``_WITNESS_CHARS`` (2**20)
    characters, and always holds the first.  Construction checks the arguments:
    6 <= ell <= ``MAX_SAMPLE_LENGTH`` and samples >= 1.
    """

    ell: int
    samples: int
    seed: int
    cell_counts: dict[tuple[str, str], int] = field(default_factory=dict)
    violations: list[str] = field(default_factory=list)
    violation_count: int = 0

    def __post_init__(self) -> None:
        if self.ell < 6:
            raise ValueError("audit needs ell >= 6")
        if self.ell > MAX_SAMPLE_LENGTH:
            raise ValueError(f"audit needs ell <= MAX_SAMPLE_LENGTH = {MAX_SAMPLE_LENGTH}")
        if self.samples < 1:
            raise ValueError("samples must be >= 1")

    @property
    def ok(self) -> bool:
        return not self.violation_count


def audit_length_deltas(samples: int, ell: int, seed: int = 0) -> AuditSummary:
    """Check random length-ell points against the head/tail table.

    For every sample the observed length change must fall inside its table
    cell, and it must decompose as the arm's contribution (+1 low, +2 high)
    minus the 2-adic valuation of 3n+1.  This holds at a ground-state
    predecessor too: there 3n+1 = 2**(ell+1), and the high-arm form
    2 - (ell+1) is the step to 1/2.  Violations are counted, and their
    digit-string witnesses kept up to a bound (see :class:`AuditSummary`).

    The audit stays on integers.  The observed change of a sampled
    numerator n is ``reduced_step(n).bit_length() - ell``, the step that
    :func:`binary_step` wraps.  Its cell is keyed by (n >> (ell - 3)) << 3 | n & 7,
    head bits above tail bits, and 3n+1 below 2**(ell+1) picks the low arm.
    :func:`head_tail_classify` is the digit-string route for one point, and
    the tests' oracle here.
    """
    summary = AuditSummary(ell=ell, samples=samples, seed=seed)
    cells = {
        int(h, 2) << 3 | int(t, 2): ((head, tail), *DELTA_TABLE[(head, tail)])
        for h, head in _HEAD_LABELS.items()
        for t, tail in _TAIL_LABELS.items()
    }
    room = _WITNESS_CHARS  # witness characters still to store

    def violation(n: int, message: str) -> None:
        nonlocal room
        summary.violation_count += 1
        if room > 0:
            witness = f"{n:b}: {message}"
            summary.violations.append(witness)
            room -= len(witness)

    counts: dict[int, int] = {}
    shift = ell - 3
    ground = 1 << (ell + 1)
    for n in sample_numerators(ell, seed, 0, samples):
        key = (n >> shift) << 3 | n & 7
        counts[key] = counts.get(key, 0) + 1
        delta = reduced_step(n).bit_length() - ell
        cell, lo, hi = cells[key]
        if delta > hi or (lo is not None and delta < lo):
            violation(n, f"delta {delta} outside {cell} bounds ({lo}, {hi})")
        t = 3 * n + 1
        arm = 1 if t < ground else 2
        expected = arm - ((t & -t).bit_length() - 1)
        if delta != expected:
            violation(n, f"delta {delta} != arm {arm} minus valuation decomposition {expected}")
    summary.cell_counts = {cells[key][0]: count for key, count in counts.items()}
    return summary


def epsilon_bound(k: int, ell: int) -> Fraction:
    """Worst-case gap between k interval-map steps and k circle-map steps.

    The bound for all length-ell starts, in closed form: with n = floor(k/2)
    and growth g = (9/8)**n - 1, it is 7g * 2**-ell for even k and
    ((15/2)g + 1/2) * 2**-ell for odd k.  Grows like (9/8)**(k/2) while the
    distance from the critical points shrinks like (8/9)**k, which is what
    eventually ends the periodic-orbit exclusion.
    """
    if k < 1:
        raise ValueError("epsilon_bound needs k >= 1")
    if ell < 1:
        raise ValueError("epsilon_bound needs ell >= 1")
    n, odd = divmod(k, 2)
    growth = Fraction(9, 8) ** n - 1
    if odd:
        coefficient = Fraction(15, 2) * growth + Fraction(1, 2)
    else:
        coefficient = 7 * growth
    return coefficient / (1 << ell)


@dataclass
class KStarReport:
    """Outcome of the exclusion-horizon scan at one digit length."""

    ell: int
    k_max: int
    k_star: int | None
    critical: Fraction | None
    epsilon: Fraction | None
    margins: list[Fraction] | None = None

    @property
    def excluded_all(self) -> bool:
        return self.k_star is None


def kstar_scan(ell: int, k_max: int = 1000, collect_margins: bool = False) -> KStarReport:
    """Find the first k where the error bound can reach past the critical point.

    For each k the scan compares 1/2 + epsilon_bound(k, ell) against the
    critical point c_k = 2**mu / 3**k exactly.  While the sum stays at or
    below c_k, no orbit of a length-ell start can close up in k steps; the
    first strict reversal is k*, returned with its critical point and bound.
    If no reversal occurs by k_max the report says every k was excluded.

    The comparison is done in integers.  With n = k // 2 and s = 3n + ell,
    multiplying the margin c_k - 1/2 - epsilon_bound(k, ell) by
    3**k * 2**(s+1) turns ``margin < 0`` into

        (2**(mu+1) - 3**k) * 2**s < E,
        E = 14 * 9**n * (9**n - 8**n)              for even k,
        E = 3**k * (15 * (9**n - 8**n) + 8**n)      for odd k,

    and 3**k, 9**n and 8**n are running products updated by small factors.
    Where the left side has more bits than E can have, the margin is
    positive and E is never multiplied out.  ``collect_margins`` returns
    each margin as the integer difference of the two sides over
    3**k * 2**(s+1), equal to the Fraction expression above.
    """
    if ell < 1:
        raise ValueError("kstar_scan needs ell >= 1")
    if k_max < 1:
        raise ValueError("kstar_scan needs k_max >= 1")
    margins: list[Fraction] | None = [] if collect_margins else None
    p3 = p9 = p8 = 1
    for k in range(1, k_max + 1):
        p3 *= 3
        n, odd = divmod(k, 2)
        if not odd:
            p9 *= 9
            p8 *= 8
        s = 3 * n + ell
        gap = (2 << (p3.bit_length() - 1)) - p3
        factor, cofactor = (p3, 15 * (p9 - p8) + p8) if odd else (14 * p9, p9 - p8)
        # a product of i-bit and j-bit numbers has at most i + j bits
        if margins is None and gap.bit_length() + s > factor.bit_length() + cofactor.bit_length():
            continue
        numerator = (gap << s) - factor * cofactor
        if margins is not None:
            margins.append(Fraction(numerator, p3 << (s + 1)))
        if numerator < 0:
            return KStarReport(ell, k_max, k, critical_point(k), epsilon_bound(k, ell), margins)
    return KStarReport(ell, k_max, None, None, None, margins)


@dataclass
class RangeVerification:
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
# time follows from an iterate at most this share of it (see _fill_plan)
_FILL_RATIO = Fraction(27, 32)
# a fill block takes the tree's classes down to the depth where one still
# holds this many of its starts (see _fill_depth); 8 and 32 were no faster
_CLASS_STARTS = 16
# the most starts of a class copied in one slice, so no slice is large
_PIECE = 1 << 12
# with n > 1 workers, a fill block at least this many values wide is split
# into n parts that fill their residue classes at once (see _fill_memo)
_SPLIT_WIDTH = 1 << 13


def _walk(
    memo: array | memoryview, starts, floor: int, step_cap: int
) -> tuple[int, int, int, int]:
    """Walk odd starts down below ``floor``; returns (count, best, worst, first capped).

    ``memo`` is an int16 ``array`` or memoryview holding the stop time of
    each odd v below its bound, 2 * len(memo), at index v >> 1, or -1 if
    not yet known, and memo[0] = 0 for the value 1.  Every odd value below
    ``floor`` must be known, and ``floor`` >= 2**K.  A start jumps K steps
    of T from every state, odd or even, through ``maps._jump_table``, each
    count of reduced steps exact as in :func:`maps.orbit_extents`, until it
    falls below ``floor``; that state's odd part adds its memo entry, and a
    start below the bound stores its stop time.  A start whose stop time
    passes ``step_cap`` is skipped with its entry left at -1, and the last
    value returned is the first such start walked, or 0.
    """
    K = maps._JUMP_BITS
    mask = (1 << K) - 1
    table = maps._jump_table()
    bound = len(memo) << 1
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
            capped = capped or x
            continue
        if x < bound:
            memo[x >> 1] = s
        count += 1
        if s > best:
            best, worst = s, x
    return count, best, worst, capped


class _FillTree:
    """The parity-vector tree of :func:`_fill_plan`, grown one level at a time.

    ``fields`` holds the b, m, c and offset of every class (b, m, c, 3**c,
    offset) found so far, one array each, in order of depth m; ``ends[M]``
    counts the classes of depth at most M, and ``opens[M]`` holds the odd
    residues mod 2**M that none of them covers.  For the deepest level M,
    ``values`` holds T^M(b) and ``odds`` the count of odd values among
    T^0(b), ..., T^(M-1)(b), for each b of ``opens[M]``.
    """

    def __init__(self) -> None:
        # int32 holds every residue and offset of a tree less than 32 levels deep
        self.fields = tuple(array("i") for _ in range(4))
        self.ends = [0, 0]
        self.opens = [array("i"), array("i", [1])]
        self.values, self.odds = array("q", [2]), array("b", [1])

    def level(self, depth: int, part: int = 0, parts: int = 1) -> tuple[Iterator, array]:
        """The classes of depth at most ``depth`` and the residues open there.

        Of each, every ``parts``-th from the ``part``-th; the tree grows
        first if it is not yet that deep.
        """
        while len(self.opens) <= depth:
            self._grow()
        b, m, c, offset = (field[part : self.ends[depth] : parts] for field in self.fields)
        return zip(b, m, c, map(pow, repeat(3), c), offset), self.opens[depth][part::parts]

    def _grow(self) -> None:
        """Split each open residue b mod 2**m into b and b + 2**m, mod 2**(m+1)."""
        m = len(self.opens) - 1
        num, den = _FILL_RATIO.numerator, _FILL_RATIO.denominator
        opens, values, odds = array("i"), array("q"), array("b")
        for b, v, c in zip(self.opens[m], self.values, self.odds):
            power = 3**c
            resolves = power * den <= num << m
            # T^m(b + 2**m) = T^m(b) + 3**c: the two children differ in that parity only
            for child, w in ((b, v), (b | 1 << m, v + power)):
                if m == 2 and child == 5:
                    found = (5, 3, 0, 0)
                elif w & 1 and resolves:
                    found = (child, m + 1, c, w >> 1)
                else:
                    opens.append(child)
                    values.append((3 * w + 1) >> 1 if w & 1 else w >> 1)
                    odds.append(c + (w & 1))
                    continue
                for field, value in zip(self.fields, found):
                    field.append(value)
        self.ends.append(len(self.fields[0]))
        self.opens.append(opens)
        self.values, self.odds = values, odds


@cache
def _fill_plan() -> _FillTree:
    """The parity-vector tree that :func:`_fill_memo` fills its blocks by.

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
      3**c <= ``_FILL_RATIO`` 2**j (every earlier j was tested on b's
      parent mod 2**(m-1), which stayed open): y = T^j(x) = 2 * 3**c A + T^j(b),
      so the stride is 3**c and the offset T^j(b) >> 1.

    Every other residue stays open, and is split when a deeper level is
    first asked for (:meth:`_FillTree.level`).  So the classes of depth at
    most M, each standing for its 2**(M-m) residues mod 2**M, and the
    residues open at M, partition the odd residues mod 2**M.  Built on the
    first fill, not at import, and grown no deeper than a fill asks.
    """
    return _FillTree()


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
    memo: array | memoryview, lo: int, hi: int, depth: int, below: int, part: int, parts: int,
    step_cap: int
) -> tuple[int, int, bool]:
    """Fill part ``part`` of ``parts`` of one block [lo, hi) of :func:`_fill_memo`.

    The block's classes are those of :func:`_fill_plan`'s tree of depth at
    most ``depth``, and the part copies every ``parts``-th of them, from
    the ``part``-th, in pieces of at most ``_PIECE`` starts; it walks the
    starts of every ``parts``-th residue still open at ``depth`` down below
    lo by :func:`_walk`.  A class with c > 0 adds c to its source piece
    in one packed add (:func:`_add_lanes`).  Every entry read lies below
    lo, so the fill has checked it to be in [0, ``below``], ``below`` the
    largest entry below lo; a piece whose largest sum, taken only when it
    passes ``below``, passes 0x7FFF raises OverflowError before it is
    stored, as ``array("h")`` does.  A class with no start in the block is
    skipped.  The part writes only the entries of its own starts in
    [lo, hi) and reads only entries below lo, so the parts of a block can
    run at once on one shared memo.  Returns (how many entries it wrote,
    the largest stop time it wrote if that passes ``below``, and otherwise
    at most ``below``, whether a walk passed ``step_cap``); such a walk
    leaves its start's entry at -1.
    """
    classes, opens = _fill_plan().level(depth, part, parts)
    count, best = 0, -1
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
                best = max(best, top)
            memo[x : x + n * step : step] = ys
        count += end - first
    mask = (1 << depth) - 1
    starts = chain.from_iterable(range(lo + (b - lo & mask), hi, mask + 1) for b in opens)
    walks, peak, _, capped = _walk(memo, starts, lo, step_cap)
    return count + walks, max(best, peak), capped > 0


def _fill_memo(
    memo: array | memoryview, top: int, step_cap: int, pool=None, parts: int = 1
) -> tuple[int, int, range]:
    """Store the stop time of every odd value below ``top`` in ``memo``, from 1 up.

    ``memo`` is as in :func:`_walk`, with 2 * len(memo) >= top.  Values
    below 2**K (K = ``maps._JUMP_BITS``) are copied from the step column of
    ``maps._end_table``, and the rest below 2**K a0 (a0 = 6, the smallest
    a with floor(a / rho) > a, rho = ``_FILL_RATIO`` = 27/32) are walked
    down below 2**K by :func:`_walk`.  Then each block [lo, hi) starts at
    the last one's end and is filled by :func:`_fill_block`: with
    h = floor(lo / rho) and M = ``_fill_depth(lo, h)``, the block takes the
    classes of :func:`_fill_plan`'s tree of depth at most M and the
    residues open at M, and hi is h rounded down to a multiple of 2**M (cut
    at ``top``).  Every value below lo is already stored, and every y that
    a class reads lies there.  A class (b, m, c, ...) covers the starts
    x = 2**m A + b in the block, and m <= M:

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

    So no entry of a block depends on another entry of it, and every entry
    it reads was checked below to be in [0, ``step_cap``]; the largest of
    them, ``below``, is the largest stop time found so far.  A class can
    raise the maximum, pass the cap or pass 0x7FFF only where some
    y + c > ``below``, which :func:`_add_lanes`'s packed test finds, and
    only there is the exact maximum taken; no lane of its add carries, and
    a sum past 0x7FFF raises OverflowError.  With ``parts`` > 1, ``memo``
    is the memo every worker of ``pool`` shares (see :func:`_share_memo`),
    and a block at least ``_SPLIT_WIDTH`` values wide is filled as
    ``parts`` parts, one pool task each, all done before the next block
    starts; the other blocks are filled here.

    Returns the number of entries written, the largest stop time below
    ``top`` and the range of values (those below 2**K a0, or a block)
    where it first occurs.  A range whose largest entry passes ``step_cap``,
    or that holds a capped walk, raises :class:`DivergenceError` for its
    smallest odd value whose entry is -1 or above the cap: the smallest
    witness, as every smaller value is known and within the cap.  A range
    whose parts wrote other than one entry per odd value in it raises
    RuntimeError naming it, so no entry is left unknown and the memo is
    never scanned for one.
    """
    K = maps._JUMP_BITS
    num, den = _FILL_RATIO.numerator, _FILL_RATIO.denominator
    lo, low, hi = 1, min(top, 1 << K), min(top, -(-num // (den - num)) << K)
    ys = array("h", [s for s, _ in maps._end_table()[1:low:2]])
    memo[: len(ys)] = ys
    count, peak, _, capped = _walk(memo, range(low + 1, hi, 2), low, step_cap)
    done = [(len(ys) + count, max(max(ys), peak), capped > 0)]
    total, best, where = 0, -1, range(0)
    fill_part = partial(_fill_part, step_cap=step_cap)
    while True:
        count = sum(n for n, _, _ in done)
        peak = max(s for _, s, _ in done)
        odd = range(lo | 1, hi, 2)
        if peak > step_cap or any(stopped for _, _, stopped in done):
            over = next(x for x in odd if not 0 <= memo[x >> 1] <= step_cap)
            raise DivergenceError(over, step_cap)
        if count != len(odd):
            raise RuntimeError(f"the memo fill of [{lo}, {hi}) wrote {count} of its {len(odd)} "
                               "odd values")
        total += count
        if peak > best:
            best, where = peak, range(lo, hi)
        if hi == top:
            return total, best, where
        lo = hi
        hi = lo * den // num
        depth = _fill_depth(lo, hi)
        hi = min(hi >> depth << depth, top)
        block = (lo, hi, depth, best)
        if parts > 1 and hi - lo >= _SPLIT_WIDTH:
            done = list(pool.map(fill_part, [(*block, i, parts) for i in range(parts)]))
        else:
            done = [_fill_block(memo, *block, 0, 1, step_cap)]


def _first_start(memo: array | memoryview, stop: int, values: range) -> int:
    """The smallest odd value in ``values`` whose memo entry is ``stop``.

    Reads 2**12 entries at a time, so the memo is never copied whole.
    """
    view = memoryview(memo)
    entries = range(values.start >> 1, (values.stop + 1) >> 1)
    for at in entries[:: 1 << 12]:
        piece = view[at : min(at + (1 << 12), entries.stop)].tolist()
        if stop in piece:
            return 2 * (at + piece.index(stop)) + 1
    raise ValueError(f"no odd value in {values} has stop time {stop}")


def _shared_memo(bound: int) -> tuple[object, memoryview]:
    """(arena, memo): an empty memo of the odd values below ``bound`` in shared memory.

    ``arena`` is one mmap of ``bound`` bytes that pool workers inherit or
    reopen (see :func:`_share_memo`); ``memo`` is its int16 view, as in
    :func:`_walk`.  It is filled with -1 a piece at a time, then
    memo[0] = 0.
    """
    # imported here, not with the module: only a pool shares a memo
    from multiprocessing.heap import Arena

    arena = Arena(bound)
    memo = memoryview(arena.buffer).cast("h")
    unknown = array("h", [-1]) * min(len(memo), 1 << 15)
    for at in range(0, len(memo), len(unknown)):
        memo[at : at + len(unknown)] = unknown
    memo[0] = 0
    return arena, memo


# a pool worker's view of the memo that every worker shares, set by _share_memo
_shared: memoryview | None = None


def _share_memo(arena) -> None:
    """Pool initializer: view the int16 memo that ``arena`` holds."""
    global _shared
    _shared = memoryview(arena.buffer).cast("h")


def _fill_part(block: tuple[int, int, int, int, int, int], step_cap: int) -> tuple[int, int, bool]:
    """:func:`_fill_block` of (lo, hi, depth, below, part, parts) on the shared memo."""
    return _fill_block(_shared, *block, step_cap)


def _walk_part(starts: range, step_cap: int) -> tuple[int, int, int, int]:
    """:func:`_walk` of a slice of starts above the shared memo's bound, down to it."""
    return _walk(_shared, starts, len(_shared) << 1, step_cap)


def verify_range(ell: int, workers: int = 1, step_cap: int = STEP_CAP) -> RangeVerification:
    """Prove every odd start below 2**ell reaches the ground state.

    Reduced-map stopping times are held in one int16 memo of the odd
    values below 2**min(ell, 25), at most 32 MiB; the worst start is the
    smallest one attaining the maximum.  The memo is filled from 1 up,
    block by block, by the classes of one parity-vector tree (see
    ``_fill_plan`` and ``_fill_memo``): a residue mod 2**m becomes a class
    as soon as its first parities give every start's stop time from a
    smaller value's, and each block takes the tree down to the depth at
    which a class still holds about 16 of its starts.  At ell 22 a quarter
    of the starts (5 mod 8) copy a smaller value's stop time in strided
    slices, about 62% add a constant to one in a single int add over
    packed int16 lanes, and only the other 13% are walked, by jumps of 10
    steps through the orbit kernel's table (see ``_walk``).  No lane
    carries: every entry read is checked to be in [0, step_cap].  One more
    packed add tests whether a sum passes the largest stop time below the
    block; only then is the slice's maximum taken, and a sum past 0x7FFF
    raises OverflowError.  Starts at or above 2**25 are then walked the
    same way down to 2**25, reading the memo.

    With one worker all of this runs in this process on an ``array``.
    With n > 1 workers (clamped to the CPU count) the memo is one shared
    buffer that a pool of n processes maps once, through its initializer.
    Every fill block at least 2**13 values wide is split into n parts
    that take turns on its classes and open residues, and the starts at
    or above 2**25 are walked in n contiguous slices.

    ``verified_count`` counts the memo entries the fill wrote and the
    starts walked above 2**25, and a fill block that leaves an odd value
    unknown raises RuntimeError naming the block.
    A start whose stopping time exceeds the step cap raises
    :class:`DivergenceError`, with the smallest such start as witness: a
    fill block that holds one is scanned for it, and the slices above 2**25
    ascend, so it is the first capped start of the first slice with one.
    Worker count affects speed only, never the summary or the witness; it
    must be >= 1.
    """
    if not 1 <= ell <= 34:
        raise ValueError("verify_range supports 1 <= ell <= 34")
    if step_cap < 1:
        raise ValueError("step_cap must be >= 1")
    n = pool_size(workers)
    bound = 1 << min(ell, _MEMO_BITS)
    if n == 1:
        memo = array("h", [-1]) * (bound >> 1)
        memo[0] = 0
        return _verify(ell, memo, step_cap)
    arena, memo = _shared_memo(bound)
    with process_pool(n, _share_memo, (arena,)) as pool:
        return _verify(ell, memo, step_cap, pool, n)


def _verify(
    ell: int, memo: array | memoryview, step_cap: int, pool=None, parts: int = 1
) -> RangeVerification:
    """:func:`verify_range` on an empty memo; ``pool`` and ``parts`` as in :func:`_fill_memo`."""
    bound = len(memo) << 1
    count, best, where = _fill_memo(memo, bound, step_cap, pool, parts)
    worst = _first_start(memo, best, where)
    above = range(bound + 1, 1 << ell, 2)
    if above:  # walked down to the memo's bound, reading the filled memo
        if pool is None:
            results = [_walk(memo, above, bound, step_cap)]
        else:
            results = pool.map(partial(_walk_part, step_cap=step_cap), split(above, parts))
        # slices ascend, so the first maximum is the smallest start, and the
        # first capped start is the smallest witness
        for walked, stop, start, capped in results:
            if capped:
                raise DivergenceError(capped, step_cap)
            count += walked
            if stop > best:
                best, worst = stop, start
    return RangeVerification(
        ell=ell,
        verified_count=count,
        max_stopping_time=best,
        worst_start=worst,
    )


@dataclass
class FamilyProbe:
    """Stopping times across one structured start family."""

    kind: Family
    k_max: int
    step_cap: int
    stopping_times: dict[int, int] = field(default_factory=dict)
    unresolved: list[int] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.unresolved

    @property
    def max_stop(self) -> int | None:
        return max(self.stopping_times.values()) if self.stopping_times else None


def family_orbit_probe(kind: Family, k_max: int, step_cap: int = STEP_CAP) -> FamilyProbe:
    """Stopping times of the 111000-block family members for 1 <= k <= k_max.

    Members whose orbits outlast the step cap are flagged as unresolved
    rather than treated as failures.  ``step_cap`` must be >= 1.
    """
    if k_max < 1:
        raise ValueError("family_orbit_probe needs k_max >= 1")
    if step_cap < 1:
        raise ValueError("step_cap must be >= 1")
    probe = FamilyProbe(kind=kind, k_max=k_max, step_cap=step_cap)
    for k in range(1, k_max + 1):
        y = family_member(kind, k)
        extents = orbit_extents(y.numerator, step_cap)
        if extents is None:
            probe.unresolved.append(k)
        else:
            probe.stopping_times[k] = extents[1]
    return probe
