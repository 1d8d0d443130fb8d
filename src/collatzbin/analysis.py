"""Orbit statistics, length accounting, and the periodic-orbit exclusion scan.

The analyses here are the quantitative core of the package: trajectory
records with stopping times and hailstone iterates, the head/tail table
bounding per-step length changes, exact error bounds between the interval
map and its circle-map companion, the scan for the first horizon k* where
those bounds stop excluding periodic points, and probes of the structured
start families.  The exhaustive convergence checks live in
:mod:`collatzbin.verify`.
"""

from __future__ import annotations

from enum import Enum
from functools import cached_property

from .exact import BinaryFraction, _Record
from .harness import MAX_SAMPLE_LENGTH, sample_numerators
from .maps import (
    STEP_CAP,
    Branch,
    Family,
    _critical_pair,
    _pow3_bracket,
    binary_step,
    classify_branch,
    collatz_step,
    critical_point,
    embed,
    family_member,
    log2_3_bounds,
    orbit_extents,
    reduced_step,
)

__all__ = [
    "AuditSummary",
    "DELTA_TABLE",
    "FamilyProbe",
    "HeadTailReport",
    "KStarReport",
    "MapKind",
    "TrajectoryRecord",
    "audit_length_deltas",
    "epsilon_bound",
    "family_orbit_probe",
    "head_tail_classify",
    "kstar_scan",
    "run_trajectory",
]


class MapKind(Enum):
    """Which map drives a trajectory: interval, reduced integer, or classic."""

    BINARY = "b"
    REDUCED = "r"
    COLLATZ = "c"


class TrajectoryRecord(_Record):
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


class HeadTailReport(_Record):
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


class AuditSummary(_Record):
    """Result of a randomized audit of the head/tail table at one length.

    ``violation_count`` counts every violation; ``violations`` holds their
    witnesses in order until the text passes ``_WITNESS_CHARS`` (2**20)
    characters, and always holds the first.  Construction checks the arguments:
    6 <= ell <= ``MAX_SAMPLE_LENGTH`` and samples >= 1.
    """

    ell: int
    samples: int
    seed: int
    cell_counts: dict[tuple[str, str], int] = {}
    violations: list[str] = []
    violation_count: int = 0

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
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


def _epsilon_pair(k: int, ell: int, p3: int) -> tuple[int, int]:
    """epsilon_bound(k, ell) as an unreduced (numerator, denominator), from p3 = 3**k.

    With n = k // 2, 9**n is 3**k at even k and 3**k // 3 at odd k, and
    8**n is 1 << 3n: the bound is 7 (9**n - 8**n) / (8**n 2**ell) at even k
    and (15 (9**n - 8**n) + 8**n) / (2 8**n 2**ell) at odd k.
    """
    n, odd = divmod(k, 2)
    p9, p8 = (p3 // 3 if odd else p3), 1 << 3 * n
    if odd:
        return 15 * (p9 - p8) + p8, p8 << (ell + 1)
    return 7 * (p9 - p8), p8 << ell


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
    from fractions import Fraction

    return Fraction(*_epsilon_pair(k, ell, 3**k))


class KStarReport(_Record, hide=("margins",)):
    """Outcome of the exclusion-horizon scan at one digit length.

    ``critical`` and ``epsilon`` are c_k* and epsilon_bound(k*, ell), or
    None when no k was a reversal; each is formed when first read.  The
    ``repr`` leaves out ``margins``.
    """

    ell: int
    k_max: int
    k_star: int | None
    margins: list[Fraction] | None = None

    @property
    def excluded_all(self) -> bool:
        return self.k_star is None

    @cached_property
    def critical(self) -> Fraction | None:
        return None if self.k_star is None else critical_point(self.k_star)

    @cached_property
    def epsilon(self) -> Fraction | None:
        return None if self.k_star is None else epsilon_bound(self.k_star, self.ell)


# the scan's bracket grows to at most 2 len(3**k) bits, and collected margins
# form 3**k, only up to this k, where 3**k has under 2**28 bits (32 MiB):
# k log2(3) < 2**27 * 1.585 < 2**28
_MAX_POWER_K = 1 << 27

# collected margins may hold at most this many bits (512 MiB) in all
_MAX_MARGIN_BITS = 1 << 32


def _margin(k: int, ell: int, p3: int) -> tuple[int, int]:
    """c_k - 1/2 - epsilon_bound(k, ell) as an unreduced (numerator, denominator), from p3 = 3**k.

    The definition cross-multiplied: c_k = cn / cd (:func:`maps._critical_pair`)
    and the bound en / ed (:func:`_epsilon_pair`) give
    (2 cn ed - cd ed - 2 cd en) / (2 cd ed), with no gcd taken.
    """
    (cn, cd), (en, ed) = _critical_pair(p3), _epsilon_pair(k, ell, p3)
    return 2 * cn * ed - cd * ed - 2 * cd * en, 2 * cd * ed


def _below(a: int, shift: int, b: int) -> bool:
    """a * 2**shift < b for a >= 1, never shifting past b's length (shift may be 10**12)."""
    return shift < b.bit_length() and (a << shift) < b


def _bracket_sign(ell: int, k: int, bits: int) -> int:
    """-1 if k's margin is negative, 1 if it is not, 0 if the bracket at ``bits`` cannot tell.

    With 3**k = 2**top f, f in [1/2, 1), m = top - 3n and q bits of f,
    ``gap * 2**s < E`` (see :func:`kstar_scan`) times 2**(2q + m) reads
    L(F) < R(F) at F = 2**q f, where s - 3n = ell gives

        L(F) = (2**q - F) 2**(ell + q),
        R(F) = 14 F (F 2**m - 2**q)          at even k,
        R(F) = F (5 F 2**m - 14 2**q)        at odd k.

    :func:`_pow3_bracket` gives lo 2**e <= 3**k <= hi 2**e.  When lo and
    hi have the same length q, top = q + e and lo <= F <= hi.  L falls as
    F rises, and R rises on [2**(q-1), 2**q): its slope is
    14 (2 F 2**m - 2**q) >= 0 at even k, and 10 F 2**m - 14 2**q >= 6 2**q
    at odd k, where m >= 2 (top > k log2(3) > 1.58 k and 3n = 1.5 (k - 1)).
    So L(lo) < R(lo) proves the margin negative, and L(hi) >= R(hi)
    proves it nonnegative.  hi < 2**q, so 2**q - F >= 1, and
    :func:`_below` compares the power of two by bit lengths.

    Near a sign change L and R are of one size, and L is proportional to
    2**q - F, so the bracket decides once its width is small against
    2**q (1 - f), where 1 - f = 1 - 2**-t_k >= t_k / 2 (the t/2 bound of
    :func:`kstar_scan`).  The squares double the tracks' rounding, to
    about 2**(len(k) + 1) units, so ``bits`` must pass -log2(t_k) +
    len(k) by a few bits.  For q_n <= k < q_(n+1), convergent
    denominators of log2(3), t_k > 1 / ((a + 2) k), a the next partial
    quotient: 64 bits decide every k the scans above reach.  From
    bits = len(3**k) on, lo = hi = 3**k and e = 0, so L(F) < R(F) is the
    exact test and the bracket always tells.
    """
    lo, hi, e = _pow3_bracket(k, bits)
    q = hi.bit_length()
    if lo.bit_length() != q:
        return 0
    m = q + e - 3 * (k >> 1)

    def right(f: int) -> int:
        return f * (5 * (f << m) - (14 << q)) if k & 1 else 14 * f * ((f << m) - (1 << q))

    if _below((1 << q) - lo, ell + q, right(lo)):
        return -1
    if not _below((1 << q) - hi, ell + q, right(hi)):
        return 1
    return 0


# the bracket starts at this many bits and doubles until it tells, which it
# does by len(3**k) bits at the latest, so it never passes 2 len(3**k) bits
_BRACKET_BITS = 64


def _margin_sign(ell: int, k: int) -> int:
    """-1 if k's margin is negative, 1 if not: :func:`_bracket_sign`, doubling its width."""
    bits = _BRACKET_BITS
    while not (sign := _bracket_sign(ell, k, bits)):
        bits *= 2
    return sign


def _window_scan(ell: int, k0: int, k1: int, bits: int) -> int | None:
    """The first k in [k0, k1) with a negative margin, or None.

    A k that :func:`_clears` at c = floor(k lo / 2**bits) + 1, d = k is
    skipped; every other k is signed by :func:`_margin_sign`.  Refused
    with ValueError past ``_MAX_POWER_K``, before any k is tried.
    """
    if k1 - 1 > _MAX_POWER_K:
        raise ValueError(f"kstar_scan would bracket 3**k up to k = {k1 - 1}, past k = 2**27")
    lo = log2_3_bounds(bits)[0]
    for k in range(k0, k1):
        if not _clears(ell, k, ((k * lo) >> bits) + 1, k, bits) and _margin_sign(ell, k) < 0:
            return k
    return None


def _intervals(k_max: int):
    """The Stern-Brocot descent toward log2(3), as (k0, k1, c, d, bits) up to k1 > k_max.

    a/b < log2(3) < c/d are neighbours (bc - ad = 1), from 1/1 and 2/1;
    each step replaces one of them by the mediant (a+c)/(b+d), on the side
    that :func:`log2_3_bounds` at ``bits`` certifies, and doubles ``bits``
    while the bounds cannot tell.  The windows [k0, k1 = b + d) follow one
    another from k0 = 1, and no step forms a power of 3.
    """
    bits = 64
    a, b, c, d = 1, 1, 2, 1
    k0 = 1
    while True:
        yield k0, b + d, c, d, bits
        if b + d > k_max:
            return
        k0, p, q = b + d, a + c, b + d
        while True:
            lo, hi = log2_3_bounds(bits)
            if p << bits < q * lo:
                a, b = p, q
                break
            if p << bits > q * hi:
                c, d = p, q
                break
            bits *= 2


def _clears(ell: int, k: int, c: int, d: int, bits: int) -> bool:
    """True when t_k >= c - d log2(3) makes k's margin positive; see :func:`kstar_scan`.

    c - d log2(3) is above room / 2**bits, room = c 2**bits - d hi, so at
    least 2**(len(room) - 1 - bits), and top_k is at most
    floor(k hi / 2**bits) + 1: the test is top_k - s_k + 5 <= len(room) - 1 - bits.
    """
    hi = log2_3_bounds(bits)[1]
    room = (c << bits) - d * hi
    return room > 0 and ((k * hi) >> bits) + 1 - 3 * (k >> 1) - ell <= room.bit_length() - bits - 6


def kstar_scan(ell: int, k_max: int = 1000, collect_margins: bool = False) -> KStarReport:
    """Find the first k where the error bound can reach past the critical point.

    For each k the scan compares 1/2 + epsilon_bound(k, ell) against the
    critical point c_k = 2**mu / 3**k exactly.  While the sum stays at or
    below c_k, no orbit of a length-ell start can close up in k steps; the
    first strict reversal is k*.  The report forms its critical point and
    bound only when they are read, and says every k was excluded if no
    reversal occurs by k_max.

    **The exact test.**  With n = k // 2 and s = 3n + ell, multiplying the
    margin c_k - 1/2 - epsilon_bound(k, ell) by 3**k * 2**(s+1) turns
    ``margin < 0`` into

        gap * 2**s < E,  gap = 2**(mu+1) - 3**k,
        E = 14 * 9**n * (9**n - 8**n)              for even k,
        E = 3**k * (15 * (9**n - 8**n) + 8**n)      for odd k,

    where 2**(mu+1) = 2**top, top the bit length of 3**k.  9**n is 3**k at
    even k and 3**k // 3 at odd k, and 8**n is 1 << 3n.  Both forms are
    below 16 * 3**(2k) < 2**(2 top + 4): E = 14 * 3**k * (3**k - 8**n) at
    even k and 3**k * (5 * 3**k - 14 * 8**n) at odd k.  So a margin is
    positive wherever gap * 2**s >= 2**(2 top + 4).

    **One bound on log2(3) skips the rest.**  Write L = log2(3) and t_k =
    top - k L = ceil(k L) - k L, in (0, 1) since L is irrational.

    * The t/2 bound.  gap = 2**top (1 - 2**-t_k), and 1 - 2**-t is concave
      in t, 0 at t = 0 and 1/2 at t = 1, so it is at least t/2 on [0, 1]
      and gap >= 2**(top-1) t_k.  Hence t_k >= 2**(top - s + 5) gives
      gap * 2**s >= 2**(2 top + 4): a positive margin.
    * The rule.  For integers c, d with t_k >= c - d L, the margin at k is
      positive when (c - d L) 2**P reaches 2**(top_k - s_k + 5 + P).
      :func:`log2_3_bounds` gives lo <= 2**P L <= hi, so c - d L >=
      room / 2**P with room = c 2**P - d hi (hi rounds L up, which lowers
      the bound), and top_k <= floor(k hi / 2**P) + 1 (hi rounds top up).
      So :func:`_clears` compares bit lengths and small integers; it never
      shifts by s, which may be 10**12.
    * Whole windows.  Let a/b < L < c/d with bc - ad = 1, t_d = c - d L.
      Every 1 <= k < b + d has t_k >= t_d.  Take p = ceil(k L).  The pairs
      (b, a) and (d, c) form a basis of the integer lattice (determinant
      bc - ad = 1), so (k, p) = x (b, a) + y (d, c) with integers
      x = ck - dp and y = bp - ak.  p/k > L > a/b gives y >= 1; if also
      x >= 1, then k = xb + yd >= b + d.  So x <= 0, and
      t_k = p - k L = -x (b L - a) + y (c - d L) >= t_d, as b L - a > 0.
      top_(k+2) - top_k is 3 or 4 (2 L = 3.17) and s_(k+2) - s_k = 3, so
      top - s never falls over a step of 2 in k, and its largest value on
      [k0, b + d) is taken at k = b + d - 1 or b + d - 2.  The rule with
      (c, d) at those two k's clears the window whole.
    * Single k's.  c = floor(k lo / 2**P) + 1 and d = k: as lo <= 2**P L,
      c <= floor(k L) + 1 = top_k, so t_k = top_k - k L >= c - k L.

    So the scan descends the Stern-Brocot pairs of L (:func:`_intervals`),
    where a mediant is taken as below L only when it is below lo / 2**P,
    as above L only when it is above hi / 2**P, and P doubles where the
    bounds cannot place it.  It clears each window it can whole, and
    :func:`_window_scan` tries the rule at each k of any other window.
    A k the rule cannot clear is signed by :func:`_margin_sign`, from a
    bracket of the top bits of 3**k that widens until it tells; every
    verdict it gives is a proof, so the scan forms no 3**k.  At ell 500,
    5000, 50000 and 200000 every bracket tells at its first width.  The
    descent stops once b + d > k_max.  A window reaching past k = 2**27,
    where 3**k would pass 2**28 bits, is refused with ValueError first.

    ``collect_margins`` finds k* by the same scan, then walks k = 1, 2, ...
    on a running 3**k up to k* (or k_max), and returns each margin as a
    Fraction of :func:`_margin`.  The margins do not decide k*, so they
    check the scan: the last is negative when k* is found, and every other
    is nonnegative.  The margins of k <= k_max hold under
    k_max (2 ell + 4 k_max) bits.  Past k = 2**27, and then past 2**32
    bits of margins, the call is refused with ValueError before the scan.
    """
    if ell < 1:
        raise ValueError("kstar_scan needs ell >= 1")
    if k_max < 1:
        raise ValueError("kstar_scan needs k_max >= 1")
    if collect_margins:
        if k_max > _MAX_POWER_K:
            raise ValueError(f"kstar_scan would form 3**k up to k = {k_max}, past k = 2**27")
        if (size := k_max * (2 * ell + 4 * k_max)) > _MAX_MARGIN_BITS:
            raise ValueError(f"kstar_scan would collect margins of about {size} bits, past 2**32")
    k_star = None
    for k0, k1, c, d, bits in _intervals(k_max):
        if not all(_clears(ell, k, c, d, bits) for k in (k1 - 1, k1 - 2) if k):
            k_star = _window_scan(ell, k0, min(k1, k_max + 1), bits)
            if k_star is not None:
                break
    if not collect_margins:
        return KStarReport(ell, k_max, k_star)
    from fractions import Fraction

    margins, p3 = [], 1
    for k in range(1, (k_star or k_max) + 1):
        p3 *= 3
        margins.append(Fraction(*_margin(k, ell, p3)))
    return KStarReport(ell, k_max, k_star, margins)


class FamilyProbe(_Record):
    """Stopping times across one structured start family."""

    kind: Family
    k_max: int
    step_cap: int
    stopping_times: dict[int, int] = {}
    unresolved: list[int] = []

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
