"""The Collatz map and its binary reformulation on [1/2, 1).

Three layers, all exact:

* integer maps: the classic step ``collatz_step`` and the reduced step
  ``reduced_step`` that jumps odd-to-odd by stripping every factor of 2;
* the interval map ``binary_step`` acting on :class:`BinaryFraction`,
  conjugate to the reduced map under the embedding ``embed``: the
  numerator of the image of n / 2**ell is the reduced step m of n, and its
  length is the bit length of m.  So one integer kernel, ``orbit_extents``,
  follows orbits of both maps: it gives an orbit's maximum length and
  stopping time, or None past its step cap.  It jumps by Terras's block
  identity: with T(n) = (3n+1)/2 for odd n and n/2 for even n, and c(b)
  the number of odd steps among the first K steps of T from b < 2**K,
  T^K(2**K a + b) = 3**c(b) a + T^K(b) for every residue b, odd or even
  (Terras, Acta Arith. 30, 1976; Lagarias, Amer. Math. Monthly 92, 1985).
  The odd states of T from odd n are its reduced orbit, and T^K(n) is
  c(b) reduced steps on from n whatever its parity, so the kernel follows
  T's own states, never strips an odd part, and ends each orbit below
  2**K with one table lookup;
* the piecewise-linear circle map ``circle_step`` (slopes 3/2 and 3/4)
  that the interval map tracks up to an explicit error, together with its
  closed-form iterates, critical points, and inverse.
"""

from __future__ import annotations

from enum import Enum
from functools import cache

from .exact import BinaryFraction, two_adic_valuation

__all__ = [
    "Branch",
    "Family",
    "STEP_CAP",
    "binary_step",
    "circle_iterate",
    "circle_preimage",
    "circle_step",
    "classify_branch",
    "collatz_step",
    "critical_point",
    "embed",
    "family_member",
    "is_predecessor",
    "log2_3_bounds",
    "mu",
    "orbit_extents",
    "reduced_step",
]

# the default step budget of every orbit walk, in the library and the CLI
STEP_CAP = 10**6
# orbit_extents jumps this many steps of T at a time through a 2**K-entry table
_JUMP_BITS = 10


class Branch(Enum):
    """Which arm of the interval map applies at a point."""

    PREDECESSOR = "predecessor"
    LOW = "low"
    HIGH = "high"


class Family(Enum):
    """Suffix tag for the structured start families built from 111000 blocks."""

    ALPHA = "1"
    BETA = "11"
    GAMMA = "111"


def collatz_step(x: int) -> int:
    """One step of the classic map: 3x+1 on odd x, x/2 on even x."""
    if x < 1:
        raise ValueError(f"collatz_step needs a positive integer, got {x}")
    return 3 * x + 1 if x % 2 else x // 2


def reduced_step(x: int) -> int:
    """Odd-to-odd step: form 3x+1 and strip every factor of 2."""
    if x < 1 or x % 2 == 0:
        raise ValueError(f"reduced_step needs a positive odd integer, got {x}")
    t = 3 * x + 1
    return t >> ((t & -t).bit_length() - 1)


@cache
def _jump_table() -> list[tuple[int, int, int, int, tuple[tuple[int, int], ...]]]:
    """For each residue b mod 2**K, the jump over K steps of T from 2**K a + b.

    Entry b, for every b (even ones too), is
    ``(c, 3**c, T^K(b), bound, candidates)``: c is the number of odd steps
    among the first K, ``candidates`` the pairs ``(3**c_j * 2**(K-j), T^j(b))``
    of the odd T^j(b) with 0 < j < K whose multiplier has the largest bit
    length among them, and ``bound`` is that bit length minus K (0 when
    there are none).  Built on the first call of :func:`orbit_extents`, not
    at import.
    """
    K = _JUMP_BITS
    powers = [3**c for c in range(K + 1)]
    # multipliers[c][j] = 3**c 2**(K-j), one object shared by every entry
    multipliers = [[p << (K - j) for j in range(K)] for p in powers]
    table = []
    for b in range(1 << K):
        x, c, top, candidates = b, 0, 0, []
        for j in range(K):
            if x & 1:
                if j:
                    m = multipliers[c][j]
                    if m.bit_length() > top:
                        top, candidates = m.bit_length(), [(m, x)]
                    elif m.bit_length() == top:
                        candidates.append((m, x))
                x = (3 * x + 1) >> 1
                c += 1
            else:
                x >>= 1
        table.append((c, powers[c], x, top - K if candidates else 0, tuple(candidates)))
    return table


@cache
def _end_table() -> list[tuple[int, int]]:
    """For each n < 2**K, (steps to 1, largest odd length on the way) of T from n.

    The steps are the odd T^j(n) before the first that is 1, so the reduced
    steps from the odd part of n; the lengths are those of the odd T^j(n)
    up to and including 1.  Entry 0 is (0, 0) and is never read.  Built on
    the first call of :func:`orbit_extents`, not at import.
    """
    end = [(0, 0), (0, 1)]
    for n in range(2, 1 << _JUMP_BITS):
        if not n & 1:
            end.append(end[n >> 1])
            continue
        # reduced steps until the orbit falls below n, whose entry is known
        v, steps, longest = n, 0, n.bit_length()
        while v >= n:
            v = reduced_step(v)
            steps += 1
            if v.bit_length() > longest:
                longest = v.bit_length()
        rest, length = end[v]
        end.append((steps + rest, max(longest, length)))
    return end


def orbit_extents(n: int, step_cap: int) -> tuple[int, int] | None:
    """(max bit length, steps to 1) for the reduced orbit of odd n.

    Through :func:`embed` this is also the interval-map orbit of
    n / 2**len(n): each iterate's length is its numerator's bit length, and
    1 is the ground state 1/2.  The result is None when the orbit does not
    reach 1 within ``step_cap`` steps (it is capped).

    The odd states of T are the reduced orbit, so the kernel follows T
    itself, K = ``_JUMP_BITS`` steps at a time by the block identity (see
    the module docstring): with a = n >> K and b = n mod 2**K, the next
    state is ``3**c a + T^K(b)``, c = c(b) reduced steps on, odd or even,
    and no odd part is ever stripped.  Once a state falls below 2**K,
    ``_end_table`` gives its remaining steps and largest odd length.  Every
    result is the single-step loop's:

    * No iterate inside a jump is 1.  For j < K and a >= 1,
      T^j(n) = 3**c_j 2**(K-j) a + T^j(b) >= 2**(K-j) a >= 2, so the
      orbit can first reach 1 only once a state is below 2**K, where the
      end table counts the rest exactly, and the step count c of each
      pass before that is exact.  For j < K, T^j(n) and T^j(b) have the
      same parity, so c and the odd inner iterates depend on b alone, for
      even b as for odd.
    * Only the candidates can hold the block's largest odd length.  By
      induction on j, T^j(b) < A_j = 3**c_j 2**(K-j) for any b < 2**K
      (b < 2**K = A_0; an even step halves both sides, and an odd step
      maps x <= A_j - 1 to (3x+1)/2 <= 3 A_j / 2 - 1).  So an odd iterate
      v = A_j a + T^j(b) has A_j a <= v < A_j (a+1) <= A_j 2**len(a), and
      len(v) lies in [len(A_j) + len(a) - 1, len(A_j) + len(a)].  With L
      the largest len(A_j), a candidate (len(A_j) = L) has length at least
      L + len(a) - 1, which no other odd iterate exceeds, and no iterate in
      the block is longer than L + len(a).  So the candidates are evaluated
      only when that bound passes the maximum so far.  A state's own
      length counts only when it is odd: the odd part of an even state is
      an inner odd iterate of a later pass (after passes with b = 0 if
      2**K divides the state) or lies on the end table's orbit, so the
      candidates or the end table cover it.
    * Every pass ends.  c = 0 only for b = 0, and such a pass maps n to
      a = n >> K, so a run of them sheds K bits each; every other pass
      takes at least one step toward the cap.
    * The cap test is strict.  A state reached after ``steps`` reduced
      steps may be a power of two with no step left to take, so only
      ``steps > step_cap`` proves the orbit capped; the end lookup's total
      is checked the same way.
    """
    if n < 1 or n % 2 == 0:
        raise ValueError(f"orbit_extents needs a positive odd integer, got {n}")
    if step_cap < 1:
        raise ValueError(f"orbit_extents needs step_cap >= 1, got {step_cap}")
    K = _JUMP_BITS
    mask = (1 << K) - 1
    table = _jump_table()
    ell = max_len = n.bit_length()
    steps = 0
    a = n >> K
    while a:
        if steps > step_cap:
            return None
        c, power, tail, bound, candidates = table[n & mask]
        if ell + bound > max_len:
            for m, r in candidates:
                inner = (m * a + r).bit_length()
                if inner > max_len:
                    max_len = inner
        n = power * a + tail
        steps += c
        ell = n.bit_length()
        if ell > max_len and n & 1:
            max_len = ell
        a = n >> K
    rest, length = _end_table()[n]
    steps += rest
    if steps > step_cap:
        return None
    return max(max_len, length), steps


def embed(x: int) -> BinaryFraction:
    """Map a positive integer to [1/2, 1) by shifting out its binary length.

    Factors of 2 are stripped first, so x and 2x embed to the same point and
    every power of two lands on the ground state 1/2.
    """
    if x < 1:
        raise ValueError("embed needs a positive integer")
    n = x >> two_adic_valuation(x)
    return BinaryFraction(n, n.bit_length())


def is_predecessor(y: BinaryFraction) -> bool:
    """True when y's digits are "1" followed by copies of "01".

    These are exactly the points one reduced step before the ground state
    (including the ground state itself); the interval map sends them
    straight to 1/2.
    """
    # digits "1" + "01"*k  <=>  odd length and 3*num == 2**(ell+1) - 1
    return y.length % 2 == 1 and 3 * y.numerator == (1 << (y.length + 1)) - 1


def classify_branch(y: BinaryFraction) -> Branch:
    """Classify y as PREDECESSOR, or LOW / HIGH as y < 2/3 or y > 2/3.

    A dyadic can never equal 2/3, so the low/high split is a strict
    dichotomy once predecessors are carved out.
    """
    if is_predecessor(y):
        return Branch.PREDECESSOR
    # y < 2/3  <=>  3*num < 2**(ell+1)
    return Branch.LOW if 3 * y.numerator < (1 << (y.length + 1)) else Branch.HIGH


def binary_step(y: BinaryFraction) -> BinaryFraction:
    """One step of the interval map on [1/2, 1).

    The image of n / 2**ell is m / 2**len(m) with m the reduced step of n:
    form 3n+1 and strip every factor of 2.  So the map is the reduced
    Collatz step seen through :func:`embed`.  In the paper's form,
    predecessors of the ground state map to 1/2, and other points map to
    3y plus the last-place unit, divided by 2 on the low arm (y < 2/3) and
    by 4 on the high arm (y > 2/3); ``test_matches_the_arm_formula`` checks
    that the two forms agree.  They do because 3n+1 has ell+1 bits on the
    low arm, ell+2 on the high arm, and is 2**(ell+1) at a predecessor.
    """
    m = reduced_step(y.numerator)
    return BinaryFraction(m, m.bit_length())


def circle_step(y: Fraction | int) -> Fraction:
    """One step of the comparison circle map: 3y/2 on [1/2, 2/3), 3y/4 on [2/3, 1)."""
    from fractions import Fraction

    y = Fraction(y)
    if not Fraction(1, 2) <= y < 1:
        raise ValueError(f"circle_step is defined on [1/2, 1), got {y}")
    return 3 * y / 2 if y < Fraction(2, 3) else 3 * y / 4


def mu(k: int) -> int:
    """floor(k * log2(3)), computed exactly as the bit length of 3**k minus 1."""
    if k < 1:
        raise ValueError("mu needs k >= 1")
    return (3**k).bit_length() - 1


def _pow3_bracket(k: int, bits: int) -> tuple[int, int, int]:
    """(lo, hi, e) with lo * 2**e <= 3**k <= hi * 2**e and hi <= 2**bits.

    Two fixed-point powers of 3 by left-to-right binary powering, one
    square per digit of k and a factor 3 per digit 1.  After each digit
    both tracks are cut by one shift, what hi has past ``bits`` bits, and
    share the exponent e.  The lower track floors the cut and the upper
    one ceils it, which leaves hi at most 2**bits; squaring and tripling
    keep either side of the true power, as both tracks are positive.  So
    lo 2**e stays at or below the power of 3 read so far, and hi 2**e at
    or above it.  A power of at most ``bits`` bits is never cut: at
    bits >= len(3**k), lo = hi = 3**k and e = 0.
    """
    lo = hi = 1
    e = 0
    for digit in f"{k:b}":
        lo, hi, e = lo * lo, hi * hi, 2 * e
        if digit == "1":
            lo, hi = 3 * lo, 3 * hi
        cut = hi.bit_length() - bits
        if cut > 0:
            lo, hi, e = lo >> cut, -(-hi >> cut), e + cut
    return lo, hi, e


@cache
def log2_3_bounds(bits: int) -> tuple[int, int]:
    """Integers lo < 2**bits log2(3) < hi = lo + 1, certified without a float.

    2**bits log2(3) = log2(3**N), N = 2**bits, so its floor is
    len(3**N) - 1, read from :func:`_pow3_bracket` at 2 bits + 64 bits.
    When the bracket's two tracks have one length q,
    2**(e+q-1) <= 3**N < 2**(e+q), so the floor is e + q - 1, strictly
    below 2**bits log2(3) as 3**N is no power of two.  Where the lengths
    differ the width doubles; from len(3**N) bits on the bracket is exact.
    Cached; nothing is built at import.
    """
    if bits < 1:
        raise ValueError("log2_3_bounds needs bits >= 1")
    work = 2 * bits + 64
    while True:
        lo, hi, e = _pow3_bracket(1 << bits, work)
        if lo.bit_length() == hi.bit_length():
            floor = e + hi.bit_length() - 1
            return floor, floor + 1
        work *= 2


def _critical_pair(p3: int) -> tuple[int, int]:
    """c_k = 2**mu(k) / 3**k as the pair (2**mu(k), 3**k), from p3 = 3**k."""
    return 1 << (p3.bit_length() - 1), p3


def critical_point(k: int) -> Fraction:
    """The point 2**mu(k) / 3**k in (1/2, 1) where the k-fold circle map folds."""
    if k < 1:
        raise ValueError("critical_point needs k >= 1")
    from fractions import Fraction

    return Fraction(*_critical_pair(3**k))


def circle_iterate(y: Fraction | int, k: int) -> Fraction:
    """The k-fold circle map in closed form.

    Equals 3**k * y / 2**mu(k) below the critical point c_k and one further
    halving at or above it; agrees with composing :func:`circle_step` k
    times.
    """
    from fractions import Fraction

    y = Fraction(y)
    if not Fraction(1, 2) <= y < 1:
        raise ValueError(f"circle_iterate is defined on [1/2, 1), got {y}")
    if k < 1:
        raise ValueError("circle_iterate needs k >= 1")
    c = critical_point(k)
    return y / c if y < c else y / (2 * c)


def circle_preimage(y: Fraction | int) -> Fraction:
    """Inverse of :func:`circle_step`: 2y/3 on [3/4, 1), 4y/3 on [1/2, 3/4)."""
    from fractions import Fraction

    y = Fraction(y)
    if not Fraction(1, 2) <= y < 1:
        raise ValueError(f"circle_preimage is defined on [1/2, 1), got {y}")
    return 2 * y / 3 if y >= Fraction(3, 4) else 4 * y / 3


def family_member(kind: Family, repetitions: int) -> BinaryFraction:
    """The point whose digits are `repetitions` copies of 111000 plus the family suffix.

    With zero repetitions the families degenerate to 0.1, 0.11, and 0.111.
    """
    if repetitions < 0:
        raise ValueError("repetitions must be >= 0")
    return BinaryFraction.from_bits("111000" * repetitions + kind.value)
