"""Tests for the map layer: integer steps, the embedding, the interval map,
and the circle-map companion.  The interval map is checked two independent
ways: against the explicit rational formula for each arm, and against the
reduced integer map through the embedding."""

import re
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from collatzbin import maps
from collatzbin.exact import GROUND_STATE, BinaryFraction, compare, to_decimal
from collatzbin.maps import (
    Branch,
    Family,
    binary_step,
    circle_iterate,
    circle_preimage,
    circle_step,
    classify_branch,
    collatz_step,
    critical_point,
    embed,
    family_member,
    is_predecessor,
    log2_3_bounds,
    mu,
    orbit_extents,
    reduced_step,
)

odd_integers = st.integers(min_value=0, max_value=2**59).map(lambda m: 2 * m + 1)
points = odd_integers.map(lambda n: BinaryFraction(n, n.bit_length()))
# rationals anywhere in [1/2, 1), not only dyadics
interval_rationals = st.fractions(
    min_value=Fraction(1, 2), max_value=Fraction(999, 1000), max_denominator=10**6
)


def bf(bits: str) -> BinaryFraction:
    return BinaryFraction.from_bits(bits)


class TestIntegerSteps:
    def test_collatz_examples(self):
        assert collatz_step(7) == 22
        assert collatz_step(22) == 11
        assert collatz_step(1) == 4
        assert collatz_step(4) == 2

    def test_reduced_examples(self):
        assert reduced_step(5) == 1
        assert reduced_step(7) == 11
        assert reduced_step(11) == 17
        assert reduced_step(31) == 47

    def test_reduced_matches_collatz_until_next_odd(self):
        for x in range(1, 10**4, 2):
            v = collatz_step(x)
            while v % 2 == 0:
                v = collatz_step(v)
            assert reduced_step(x) == v

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            collatz_step(0)
        with pytest.raises(ValueError):
            reduced_step(6)
        with pytest.raises(ValueError):
            reduced_step(-3)


class TestEmbed:
    def test_examples(self):
        assert embed(1) == GROUND_STATE
        assert embed(17) == bf("10001")
        assert embed(12) == bf("11")
        assert embed(64) == GROUND_STATE

    @given(st.integers(min_value=1, max_value=2**60), st.integers(min_value=0, max_value=8))
    def test_powers_of_two_are_invisible(self, x, j):
        assert embed(x << j) == embed(x)

    @given(odd_integers)
    def test_odd_integers_keep_their_digits(self, x):
        assert embed(x).to_bits() == format(x, "b")

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            embed(0)


class TestPredecessorsAndBranches:
    def test_examples(self):
        assert is_predecessor(bf("1"))
        assert is_predecessor(bf("101"))
        assert is_predecessor(bf("10101"))
        assert not is_predecessor(bf("11"))
        assert not is_predecessor(bf("1011"))
        assert not is_predecessor(bf("1001"))

    def test_matches_digit_pattern_exhaustively(self):
        # the predecessor set is exactly the digit strings 1(01)*
        pattern = re.compile(r"1(01)*")
        for ell in range(1, 14):
            start = (1 << (ell - 1)) + 1 if ell > 1 else 1
            for num in range(start, 1 << ell, 2):
                y = BinaryFraction(num, ell)
                assert is_predecessor(y) == bool(pattern.fullmatch(y.to_bits()))

    def test_branch_examples(self):
        assert classify_branch(bf("1001")) is Branch.LOW
        assert classify_branch(bf("1011")) is Branch.HIGH
        assert classify_branch(bf("11")) is Branch.HIGH
        assert classify_branch(bf("101")) is Branch.PREDECESSOR

    @given(points)
    def test_branch_agrees_with_two_thirds_comparison(self, y):
        branch = classify_branch(y)
        if branch is not Branch.PREDECESSOR:
            expected = Branch.LOW if compare(y, Fraction(2, 3)) < 0 else Branch.HIGH
            assert branch is expected


class TestBinaryStep:
    def test_examples(self):
        assert binary_step(bf("1011")) == bf("10001")
        assert binary_step(bf("1001")) == bf("111")
        assert binary_step(bf("11")) == bf("101")
        assert binary_step(bf("101")) == GROUND_STATE
        assert binary_step(GROUND_STATE) == GROUND_STATE

    @given(points)
    def test_matches_the_arm_formula(self, y):
        # independent route: exact rational arithmetic on the arm formulas
        branch = classify_branch(y)
        stepped = binary_step(y)
        if branch is Branch.PREDECESSOR:
            assert stepped == GROUND_STATE
            return
        bumped = 3 * y.value + Fraction(1, 1 << y.length)
        expected = bumped / 2 if branch is Branch.LOW else bumped / 4
        assert stepped.value == expected

    @given(points)
    def test_image_stays_in_interval_and_refines_by_branch(self, y):
        branch = classify_branch(y)
        img = binary_step(y).value
        assert Fraction(1, 2) <= img < 1
        if branch is Branch.LOW:
            assert img > Fraction(3, 4)
        elif branch is Branch.HIGH:
            assert img < Fraction(3, 4) + Fraction(1, 1 << (y.length + 2))

    def test_conjugate_to_reduced_step_exhaustively(self):
        for x in range(1, 1 << 14, 2):
            assert binary_step(embed(x)) == embed(reduced_step(x))

    def test_jump_discontinuity_near_a_predecessor(self):
        # points just below 0.1011 map near 0.10001, while 0.1011 itself
        # has a predecessor between, pinning a jump of at least 2^-6
        y = bf("1011")
        target = binary_step(y).value
        for tail in range(6, 17):
            z = bf("1010" + "1" * (tail - 4))
            gap = abs(binary_step(z).value - target)
            assert gap > Fraction(1, 64)


def binary_walk(y: BinaryFraction, cap: int) -> tuple[int, int] | None:
    """Independent route for orbit_extents: step BinaryFractions one by one."""
    max_len, steps = y.length, 0
    while y != GROUND_STATE:
        if steps == cap:
            return None
        y = binary_step(y)
        steps += 1
        max_len = max(max_len, y.length)
    return max_len, steps


def single_step_lengths(n: int) -> list[int]:
    """Bit lengths along the reduced orbit of odd n down to 1, one reduced
    step per pass: the reference for orbit_extents' jumps."""
    lengths = [n.bit_length()]
    while n != 1:
        n = reduced_step(n)
        lengths.append(n.bit_length())
    return lengths


def assert_matches_single_steps(n: int) -> None:
    """orbit_extents(n, cap) against the reference at every cap from
    stop - 2K - 2 to stop + 1, where a jump can meet the cap, and at 10**6."""
    lengths = single_step_lengths(n)
    stop = len(lengths) - 1
    caps = range(max(1, stop - 2 * maps._JUMP_BITS - 2), stop + 2)
    for cap in (*caps, 10**6):
        assert orbit_extents(n, cap) == (None if cap < stop else (max(lengths), stop)), cap


def t_block(x: int) -> tuple[int, int, list[tuple[int, int]]]:
    """K direct steps of T from x: the number of odd steps, T^K(x), and the
    pairs (3**c_j * 2**(K-j), T^j(x)) of the odd T^j(x) with 0 < j < K."""
    K = maps._JUMP_BITS
    odd_steps, inner = 0, []
    for j in range(K):
        if j and x % 2:
            inner.append((3**odd_steps * 2 ** (K - j), x))
        odd_steps += x % 2
        x = (3 * x + 1) // 2 if x % 2 else x // 2
    return odd_steps, x, inner


class TestOrbitExtents:
    def test_rejects_bad_input(self):
        # each of these returned an answer for some other orbit, or none
        for n, cap in ((0, 5), (-1, 10), (6, 10**6), (7, 0)):
            with pytest.raises(ValueError):
                orbit_extents(n, cap)

    @given(st.integers(min_value=0, max_value=2**1299).map(lambda m: 2 * m + 1))
    def test_matches_single_steps(self, n):
        assert_matches_single_steps(n)

    @pytest.mark.parametrize("bits", [10, 4, 6])
    def test_matches_single_steps_on_structured_starts(self, jump_bits, bits):
        # small starts cross into the end table and out of it; all-ones
        # starts climb for their whole length, so the maximum often falls
        # strictly inside a jump
        jump_bits(bits)
        for n in range(1, 1 << (maps._JUMP_BITS + 2), 2):
            assert_matches_single_steps(n)
        for k in range(1, 201):
            assert_matches_single_steps(family_member(Family.GAMMA, k).numerator)
        for b in range(1, 401):
            assert_matches_single_steps((1 << b) - 1)

    @pytest.mark.parametrize("bits", [10, 4, 6])
    def test_predecessors_at_every_cap(self, jump_bits, bits):
        # (4**k - 1)/3 takes one reduced step, to a power of two that the
        # jumps halve down to the end table: a state reached at the cap may
        # still be a power of two with no step left, so the cap test must
        # be strict
        jump_bits(bits)
        for k in range(6, 151):
            n = (4**k - 1) // 3
            lengths = single_step_lengths(n)
            stop = len(lengths) - 1
            for cap in range(1, stop + 2):
                expected = None if cap < stop else (max(lengths), stop)
                assert orbit_extents(n, cap) == expected, (k, cap)

    @pytest.mark.parametrize("bits", [10, 4, 6])
    def test_jump_table_against_direct_steps(self, jump_bits, bits):
        jump_bits(bits)
        K = maps._JUMP_BITS
        table = maps._jump_table()
        assert len(table) == 1 << K
        for b in range(1 << K):
            c, power, tail, bound, candidates = table[b]
            odd_steps, end, inner = t_block(b)
            assert (c, power, tail) == (odd_steps, 3**c, end)
            top = max((m.bit_length() for m, _ in inner), default=K)
            assert bound == top - K
            assert candidates == tuple(p for p in inner if p[0].bit_length() == top)

    @given(
        st.integers(min_value=1, max_value=2**300),
        st.integers(min_value=0, max_value=(1 << maps._JUMP_BITS) - 1),
    )
    def test_block_identity(self, a, b):
        K = maps._JUMP_BITS
        c, power, tail, bound, candidates = maps._jump_table()[b]
        n = (a << K) + b
        odd_steps, end, pairs = t_block(n)
        assert (odd_steps, end) == (c, power * a + tail)
        # the candidates are inner odd iterates and hold the longest of them,
        # and none is longer than the bound
        inner = [v for _, v in pairs]
        values = [m * a + r for m, r in candidates]
        assert set(values) <= set(inner)
        if inner:
            longest = max(v.bit_length() for v in inner)
            assert max(v.bit_length() for v in values) == longest
            assert longest <= n.bit_length() + bound

    @pytest.mark.parametrize("bits", [10, 4, 6])
    def test_end_table_against_single_steps(self, jump_bits, bits):
        # entry n is the rest of the orbit from the odd part of n
        jump_bits(bits)
        end = maps._end_table()
        assert len(end) == 1 << maps._JUMP_BITS
        for n in range(1, 1 << maps._JUMP_BITS):
            lengths = single_step_lengths(n >> ((n & -n).bit_length() - 1))
            assert end[n] == (len(lengths) - 1, max(lengths)), n

    def test_jump_table_is_built_on_first_use(self):
        code = (
            "import collatzbin, collatzbin.cli\n"
            "from collatzbin import maps\n"
            "tables = (maps._jump_table, maps._end_table)\n"
            "assert [t.cache_info().currsize for t in tables] == [0, 0]\n"
            "maps.orbit_extents(27, 10**6)\n"
            "maps.orbit_extents(2**100 - 1, 10**6)\n"
            "assert [t.cache_info().misses for t in tables] == [1, 1]\n"
        )
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr

    def test_ground_state(self):
        for cap in (1, 2, 10**6):
            assert orbit_extents(1, cap) == (1, 0)

    def test_examples(self):
        assert orbit_extents(31, 10**6) == (12, 39)
        assert orbit_extents(31, 39) == (12, 39)
        assert orbit_extents(31, 38) is None
        assert orbit_extents(5, 1) == (3, 1)

    @given(odd_integers, st.integers(min_value=1, max_value=3))
    def test_matches_a_walk_of_the_interval_map(self, n, gap):
        y = BinaryFraction(n, n.bit_length())
        stop = binary_walk(y, 10**6)[1]
        # caps below, exactly at and above the stopping time
        for cap in (stop - gap, stop, stop + gap):
            if cap >= 1:
                extents = orbit_extents(n, cap)
                assert extents == binary_walk(y, cap)
                assert (extents is None) == (cap < stop)


class TestCircleMap:
    def test_step_examples(self):
        assert circle_step(Fraction(1, 2)) == Fraction(3, 4)
        assert circle_step(Fraction(2, 3)) == Fraction(1, 2)
        assert circle_step(Fraction(5, 8)) == Fraction(15, 16)
        assert circle_step(Fraction(3, 4)) == Fraction(9, 16)

    def test_step_rejects_out_of_domain(self):
        for bad in (Fraction(1, 4), Fraction(1), Fraction(3, 2), Fraction(-1, 2)):
            with pytest.raises(ValueError):
                circle_step(bad)

    @given(interval_rationals)
    def test_is_a_bijection_with_explicit_inverse(self, y):
        assert circle_preimage(circle_step(y)) == y
        assert circle_step(circle_preimage(y)) == y

    def test_preimage_examples(self):
        assert circle_preimage(Fraction(3, 4)) == Fraction(1, 2)
        assert circle_preimage(Fraction(1, 2)) == Fraction(2, 3)
        assert circle_preimage(Fraction(9, 16)) == Fraction(3, 4)
        with pytest.raises(ValueError):
            circle_preimage(Fraction(1, 4))

    def test_mu_examples_and_bracketing(self):
        assert mu(1) == 1
        assert mu(2) == 3
        assert mu(3) == 4
        assert mu(600) == 950
        for k in range(1, 301):
            assert (1 << mu(k)) <= 3**k < (1 << (mu(k) + 1))
        with pytest.raises(ValueError):
            mu(0)

    def test_critical_point_examples(self):
        assert critical_point(1) == Fraction(2, 3)
        assert critical_point(2) == Fraction(8, 9)
        assert to_decimal(critical_point(42), 6) == "0.674352"
        assert to_decimal(critical_point(600), 6) == "0.507858"
        for k in range(1, 301):
            assert Fraction(1, 2) < critical_point(k) < 1
        with pytest.raises(ValueError):
            critical_point(0)

    def test_iterate_examples(self):
        assert circle_iterate(Fraction(1, 2), 2) == Fraction(9, 16)
        assert circle_iterate(Fraction(2, 3), 1) == Fraction(1, 2)
        assert circle_iterate(Fraction(9, 10), 1) == Fraction(27, 40)

    @given(interval_rationals, st.integers(min_value=1, max_value=40))
    def test_iterate_closed_form_matches_composition(self, y, k):
        z = y
        for _ in range(k):
            z = circle_step(z)
        assert circle_iterate(y, k) == z

    @given(points, st.integers(min_value=1, max_value=64))
    def test_no_dyadic_periodic_points(self, y, k):
        assert circle_iterate(y.value, k) != y.value

    def test_iterate_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            circle_iterate(Fraction(1, 2), 0)
        with pytest.raises(ValueError):
            circle_iterate(Fraction(1, 4), 3)


# denominators of the convergents of log2(3) up to 15601
CONVERGENT_DENOMINATORS = (1, 2, 5, 12, 41, 53, 306, 665, 15601)


class TestLog2Bounds:
    @pytest.mark.parametrize("bits", range(1, 13))
    def test_small_precisions_give_the_exact_floor(self, bits):
        # 2**bits log2(3) = log2(3**(2**bits)), whose floor is a bit length minus 1
        lo, hi = log2_3_bounds(bits)
        assert lo == (3 ** (1 << bits)).bit_length() - 1
        assert hi == lo + 1

    @pytest.mark.parametrize("bits", [64, 128])
    def test_floor_of_k_log2_3_is_mu(self, bits):
        lo, hi = log2_3_bounds(bits)
        assert hi == lo + 1
        for k in range(1, 5001):
            assert (k * lo) >> bits == mu(k), k

    @pytest.mark.parametrize("bits", [64, 128, 256])
    def test_convergents_fall_on_the_side_of_their_powers(self, bits):
        lo, hi = log2_3_bounds(bits)
        for q in CONVERGENT_DENOMINATORS:
            for p in (mu(q), mu(q) + 1):
                # p/q < log2(3) exactly when 2**p < 3**q; the bounds must say the same
                below, above = p << bits < q * lo, p << bits > q * hi
                assert below != above, (p, q)
                assert below == ((1 << p) < 3**q), (p, q)

    @pytest.mark.parametrize("bits", range(1, 11))
    def test_each_track_is_certified_at_any_working_precision(self, bits):
        # a coarse fixed point makes the tracks differ, but each must stay on its side
        power = 3 ** (1 << bits)
        for work in range(1, 49):
            low = (1 << bits) + maps._log2_digits(bits, work, False)
            high = (1 << bits) + maps._log2_digits(bits, work, True) + 1
            assert 1 << low <= power < 1 << high, work

    def test_built_on_first_use_and_cached(self):
        code = (
            "import collatzbin, collatzbin.cli\n"
            "from collatzbin import analysis, maps\n"
            "assert maps.log2_3_bounds.cache_info().currsize == 0\n"
            "analysis.kstar_scan(500, 10000)\n"
            "analysis.kstar_scan(60, 1000)\n"
            "assert maps.log2_3_bounds.cache_info().misses == 1\n"
        )
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            log2_3_bounds(0)


class TestFamilies:
    def test_member_examples(self):
        assert family_member(Family.ALPHA, 1) == bf("1110001")
        assert family_member(Family.BETA, 1) == bf("11100011")
        assert family_member(Family.GAMMA, 2) == bf("111000111000111")
        assert family_member(Family.ALPHA, 0) == GROUND_STATE
        assert family_member(Family.BETA, 0) == bf("11")

    def test_rejects_negative_repetitions(self):
        with pytest.raises(ValueError):
            family_member(Family.GAMMA, -1)

    def test_alpha_and_beta_step_onto_predecessors(self):
        for k in range(1, 101):
            alpha_image = binary_step(family_member(Family.ALPHA, k))
            beta_image = binary_step(family_member(Family.BETA, k))
            assert alpha_image.to_bits() == "1" + "01" * (3 * k)
            assert beta_image.to_bits() == "1" + "01" * (3 * k + 1)
            assert binary_step(alpha_image) == GROUND_STATE
            assert binary_step(beta_image) == GROUND_STATE
