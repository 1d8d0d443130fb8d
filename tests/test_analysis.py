"""Tests for trajectory records, the head/tail table, error bounds, the
exclusion scan, and the family probes.

Wherever a closed form or a memoized computation is under test, a plain
brute-force route computes the same quantity independently."""

import subprocess
import sys
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from collatzbin import analysis
from collatzbin.analysis import (
    DELTA_TABLE,
    Branch,
    HeadTailReport,
    MapKind,
    _clears,
    _epsilon_pair,
    _intervals,
    audit_length_deltas,
    epsilon_bound,
    family_orbit_probe,
    head_tail_classify,
    kstar_scan,
    run_trajectory,
)
from collatzbin.exact import GROUND_STATE, BinaryFraction, to_decimal, two_adic_valuation
from collatzbin.harness import derive_seed, sample_fraction
from collatzbin.maps import (
    Family,
    _critical_pair,
    binary_step,
    critical_point,
    embed,
    is_predecessor,
    log2_3_bounds,
    reduced_step,
)
from test_verify import brute_stopping_time

odd_integers = st.integers(min_value=0, max_value=2**40).map(lambda m: 2 * m + 1)


def bf(bits: str) -> BinaryFraction:
    return BinaryFraction.from_bits(bits)


def fraction_margin(k: int, ell: int) -> Fraction:
    return critical_point(k) - Fraction(1, 2) - epsilon_bound(k, ell)


def running_products_kstar(ell: int, k_max: int) -> int | None:
    """k* by the integer scan with running 3**k, 9**n and 8**n and an exact bit-length prefilter."""
    p3 = p9 = p8 = 1
    for k in range(1, k_max + 1):
        p3 *= 3
        n, odd = divmod(k, 2)
        if not odd:
            p9 *= 9
            p8 *= 8
        s = 3 * n + ell
        gap = (1 << p3.bit_length()) - p3
        factor, cofactor = (p3, 15 * (p9 - p8) + p8) if odd else (14 * p9, p9 - p8)
        if gap.bit_length() + s > factor.bit_length() + cofactor.bit_length():
            continue
        if (gap << s) < factor * cofactor:
            return k
    return None


def gap_bits_floor(p: int, top: int) -> int:
    """A lower bound on (2**top - p).bit_length() for p >= 1 of ``top`` bits, read from 64 of them.

    Past 64 bits, p = W 2**(top-64) + r with W = p >> (top - 64), its top
    64 bits, and 0 <= r < 2**(top-64).  Then 2**top - p =
    (2**64 - W) 2**(top-64) - r > g 2**(top-64), g = 2**64 - W - 1, so the
    gap has at least top - 64 + g.bit_length() bits when g > 0.  When
    top <= 64, or when g = 0 (an all-ones window bounds the gap only by 1),
    the gap is small and its bit length is taken exactly.
    """
    if top > 64:
        g = 0xFFFF_FFFF_FFFF_FFFF - (p >> (top - 64))
        if g:
            return top - 64 + g.bit_length()
    return ((1 << top) - p).bit_length()


def window_loop_kstar(ell: int, k_max: int) -> int | None:
    """k* by the walk over every k on a running 3**k, skipping k by a 64-bit window test."""
    p3 = 1
    for k in range(1, k_max + 1):
        p3 *= 3
        s = 3 * (k >> 1) + ell
        top = p3.bit_length()
        if gap_bits_floor(p3, top) + s > 2 * top + 4:
            continue
        odd = k & 1
        p9, p8 = (p3 // 3 if odd else p3), 1 << (s - ell)
        factor, cofactor = (p3, 15 * (p9 - p8) + p8) if odd else (14 * p9, p9 - p8)
        if (((1 << top) - p3) << s) < factor * cofactor:
            return k
    return None


def t_at_least(k: int, c: int, d: int) -> bool:
    """ceil(k log2 3) - k log2 3 >= c - d log2 3, exactly: 2**(top - c) against 3**(k - d)."""
    x, y = (3**k).bit_length() - c, k - d
    return (1 << max(x, 0)) * 3 ** max(-y, 0) >= (1 << max(-x, 0)) * 3 ** max(y, 0)


class TestRunTrajectory:
    def test_orbit_of_31(self):
        record = run_trajectory(31)
        assert record.stopping_time == 39
        assert record.max_length == 12
        assert record.lengths.count(12) == 3
        assert record.hailstone_index == 26
        assert record.iterates[-1] == GROUND_STATE
        assert len(record.iterates) == 40

    def test_one_step_orbit(self):
        record = run_trajectory(5)
        assert record.stopping_time == 1
        assert record.iterates == [bf("101"), GROUND_STATE]

    def test_lengths_track_iterates(self):
        record = run_trajectory(27)
        assert record.lengths == [y.length for y in record.iterates]
        assert record.max_length == max(record.lengths)
        assert record.hailstone_index == record.lengths.index(record.max_length)
        assert record.hailstone.length == record.max_length

    def test_binary_and_reduced_stopping_times_agree(self):
        for x in range(1, 400, 2):
            b = run_trajectory(x, MapKind.BINARY)
            r = run_trajectory(x, MapKind.REDUCED)
            assert b.stopping_time == r.stopping_time == brute_stopping_time(x)

    def test_reduced_orbit_of_11(self):
        record = run_trajectory(11, MapKind.REDUCED)
        assert record.iterates == [11, 17, 13, 5, 1]
        assert record.stopping_time == 4

    def test_collatz_orbit_of_7(self):
        record = run_trajectory(7, MapKind.COLLATZ)
        assert record.stopping_time == 16
        assert record.iterates[:6] == [7, 22, 11, 34, 17, 52]

    def test_capped_orbit_reports_no_stopping_time(self):
        record = run_trajectory(27, max_steps=5)
        assert record.capped
        assert record.stopping_time is None
        assert len(record.iterates) == 6

    def test_ground_start_is_followed_to_expose_cycles(self):
        record = run_trajectory(1, MapKind.COLLATZ, max_steps=4)
        assert record.iterates == [1, 4, 2, 1]
        assert record.stopping_time == 0
        short = run_trajectory(1, MapKind.COLLATZ, max_steps=2)
        assert short.iterates == [1, 4, 2]
        assert short.stopping_time == 0
        fixed = run_trajectory(1, MapKind.BINARY, max_steps=3)
        assert fixed.iterates == [GROUND_STATE] * 2
        assert fixed.stopping_time == 0
        reduced = run_trajectory(1, MapKind.REDUCED)
        assert reduced.iterates == [1, 1]
        assert reduced.stopping_time == 0

    def test_binary_start_accepts_digit_points(self):
        record = run_trajectory(bf("1011"))
        assert record.iterates[1] == bf("10001")
        assert record.stopping_time == 4

    def test_rejects_bad_starts(self):
        with pytest.raises(ValueError):
            run_trajectory(10, MapKind.REDUCED)
        with pytest.raises(ValueError):
            run_trajectory(0, MapKind.COLLATZ)
        with pytest.raises(ValueError):
            run_trajectory(bf("101"), MapKind.REDUCED)
        with pytest.raises(ValueError):
            run_trajectory(31, max_steps=0)

    def test_stored_orbit_is_bounded_in_cells(self, monkeypatch):
        from collatzbin import analysis

        # 2**2000 - 1 climbs to 3170 bits over 9827 states, about 31M cells
        with pytest.raises(ValueError, match="16777216 cells"):
            run_trajectory(bf("1" * 2000))
        assert run_trajectory(bf("1" * 200)).max_length == 317  # 980 states
        # the orbit of 31 is 40 states, at most 12 bits wide: 480 cells
        monkeypatch.setattr(analysis, "_MAX_CELLS", 480)
        assert run_trajectory(31).stopping_time == 39
        monkeypatch.setattr(analysis, "_MAX_CELLS", 479)
        with pytest.raises(ValueError, match="479 cells"):
            run_trajectory(31)


class TestHeadTailTable:
    def test_classification_examples(self):
        rep = head_tail_classify(bf("100101"))
        assert (rep.head, rep.tail) == ("h1", "t3")
        assert (rep.predicted_min, rep.predicted_max) == (None, -2)
        assert rep.observed_delta == -3
        assert rep.within_bounds()

        rep = head_tail_classify(bf("111111"))
        assert (rep.head, rep.tail) == ("h4", "t4")
        assert (rep.predicted_min, rep.predicted_max) == (1, 1)
        assert rep.observed_delta == 1
        assert not HeadTailReport(**{**vars(rep), "observed_delta": 0}).within_bounds()
        assert not HeadTailReport(**{**vars(rep), "observed_delta": 2}).within_bounds()

        rep = head_tail_classify(bf("100001"))
        assert (rep.head, rep.tail) == ("h1", "t1")
        assert rep.observed_delta == -1

    def test_needs_six_digits(self):
        with pytest.raises(ValueError):
            head_tail_classify(bf("10101"))

    def test_exhaustive_at_length_ten(self):
        for num in range((1 << 9) + 1, 1 << 10, 2):
            y = BinaryFraction(num, 10)
            rep = head_tail_classify(y)
            assert rep.within_bounds(), y.to_bits()
            if rep.branch is not Branch.PREDECESSOR:
                arm = 1 if rep.branch is Branch.LOW else 2
                assert rep.observed_delta == arm - two_adic_valuation(3 * num + 1)

    def test_predecessor_rows_stay_within_their_cell(self):
        for blocks in (3, 10, 40):
            y = bf("1" + "01" * blocks)
            rep = head_tail_classify(y)
            assert (rep.head, rep.tail) == ("h2", "t3")
            assert rep.observed_delta == 1 - y.length
            assert rep.within_bounds()

    def test_tails_pin_the_valuation(self):
        # tail 001 strips two factors of 2, tails 011 and 111 strip one,
        # tail 101 strips at least three
        for num in range((1 << 7) + 1, 1 << 8, 2):
            t = 3 * num + 1
            v = two_adic_valuation(t)
            tail = format(num, "b")[-3:]
            if tail == "001":
                assert v == 2
            elif tail in ("011", "111"):
                assert v == 1
            else:
                assert v >= 3

    def test_no_cell_allows_sustained_growth_without_tail_101(self):
        assert sum(hi for _, hi in DELTA_TABLE.values()) <= 0

    def test_audit_is_clean_and_deterministic(self):
        summary = audit_length_deltas(10**4, 64, seed=1)
        assert summary.ok
        assert sum(summary.cell_counts.values()) == 10**4
        assert len(summary.cell_counts) == 16
        again = audit_length_deltas(10**4, 64, seed=1)
        assert again.cell_counts == summary.cell_counts

    def test_audit_reports_a_wrong_step(self, monkeypatch):
        # the identity on numerators is a self-map of [1/2, 1) but not the
        # interval map; its zero deltas break the arm-minus-valuation decomposition
        from collatzbin import analysis

        monkeypatch.setattr(analysis, "reduced_step", lambda n: n)
        summary = audit_length_deltas(500, 16, seed=2)
        monkeypatch.undo()
        assert any("decomposition" in w for w in summary.violations)
        for witness in summary.violations:
            bits = witness.split(":")[0]
            assert len(bits) == 16
            # the witness reproduces: the true step changes its length
            assert head_tail_classify(bf(bits)).observed_delta != 0

    @pytest.mark.parametrize("ell", [6, 7, 9, 16, 64])
    @pytest.mark.parametrize("seed", [1, 20250815])
    def test_audit_counts_match_the_digit_string_route(self, ell, seed):
        samples = 2000
        expected: dict[tuple[str, str], int] = {}
        for i in range(samples):
            rep = head_tail_classify(sample_fraction(ell, derive_seed(seed, 0, i)))
            assert rep.within_bounds()
            cell = (rep.head, rep.tail)
            expected[cell] = expected.get(cell, 0) + 1
        summary = audit_length_deltas(samples, ell, seed=seed)
        assert list(summary.cell_counts.items()) == list(expected.items())
        assert summary.ok

    @pytest.mark.parametrize("ell", [6, 7, 16, 64, 129, 130, 256])
    @pytest.mark.parametrize("seed", [3, 20250815])
    def test_audit_reports_each_delta_of_the_digit_string_route(self, ell, seed, monkeypatch):
        # no delta fits (1, 0), so every sample is a witness that shows its delta
        from collatzbin import analysis

        for cell in DELTA_TABLE:
            monkeypatch.setitem(analysis.DELTA_TABLE, cell, (1, 0))
        samples = 300
        summary = audit_length_deltas(samples, ell, seed=seed)
        monkeypatch.undo()
        assert summary.violation_count == len(summary.violations) == samples
        for i, witness in enumerate(summary.violations):
            y = sample_fraction(ell, derive_seed(seed, 0, i))
            rep = head_tail_classify(y)
            cell = (rep.head, rep.tail)
            delta = rep.observed_delta
            assert witness == f"{y.to_bits()}: delta {delta} outside {cell} bounds (1, 0)"

    def test_audit_keeps_witnesses_up_to_a_bound_and_counts_them_all(self, monkeypatch):
        from collatzbin import analysis

        monkeypatch.setattr(analysis, "reduced_step", lambda n: n)
        full = audit_length_deltas(500, 16, seed=2)
        assert full.violation_count == len(full.violations) > 3
        bound = sum(map(len, full.violations[:3])) - 1
        monkeypatch.setattr(analysis, "_WITNESS_CHARS", bound)
        cut = audit_length_deltas(500, 16, seed=2)
        assert cut.violation_count == full.violation_count
        assert cut.violations == full.violations[:3]  # the third passes the bound
        assert not cut.ok
        monkeypatch.setattr(analysis, "_WITNESS_CHARS", 1)
        assert audit_length_deltas(500, 16, seed=2).violations == full.violations[:1]

    def test_a_failing_audits_witnesses_take_bounded_memory(self, monkeypatch):
        # each witness holds all 2**18 digits, so only about four fit in the bound
        from collatzbin import analysis

        monkeypatch.setattr(analysis, "reduced_step", lambda n: n)
        tracemalloc.start()
        try:
            summary = audit_length_deltas(200, 2**18, seed=2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert summary.violation_count > 100
        assert 1 < len(summary.violations) < 10
        assert peak < 4 * 2**20

    def test_an_audit_runs_in_bounded_memory(self):
        # the sampler reads each chunk's numerators as the audit takes them;
        # holding all 100000 samples' digits at once would take about 7 MiB
        tracemalloc.start()
        try:
            assert audit_length_deltas(100_000, 256).ok
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 512 * 2**10

    def test_audit_passes_sampled_predecessors(self):
        # "1010101" is drawn about 1 time in 32 at length 7
        samples = 2000
        points = [sample_fraction(7, derive_seed(5, 0, i)) for i in range(samples)]
        predecessors = [y for y in points if is_predecessor(y)]
        assert len(predecessors) > 20
        for y in predecessors:
            rep = head_tail_classify(y)
            assert (rep.head, rep.tail) == ("h2", "t3")
        summary = audit_length_deltas(samples, 7, seed=5)
        assert summary.ok

    def test_audit_reports_a_cell_outside_its_table_bounds(self, monkeypatch):
        # h1/t2 points keep their length, so (1, 1) excludes every one of them;
        # the audit must read the table as it is now, not a copy from import
        from collatzbin import analysis

        monkeypatch.setitem(analysis.DELTA_TABLE, ("h1", "t2"), (1, 1))
        summary = audit_length_deltas(2000, 16, seed=2)
        assert len(summary.violations) == summary.cell_counts[("h1", "t2")] > 0
        for witness in summary.violations:
            bits, message = witness.split(": ", 1)
            assert message.startswith("delta 0 outside ('h1', 't2') bounds (1, 1)")
            assert bits.startswith("100") and bits.endswith("011")

    def test_audit_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            audit_length_deltas(100, 5)
        with pytest.raises(ValueError):
            audit_length_deltas(0, 16)


def epsilon_recurrence(k: int, ell: int) -> Fraction:
    """Independent route: propagate one last-place bump along the worst-case
    arm pattern (alternating halve/quarter, ending on a halve)."""
    e = Fraction(0)
    unit = Fraction(1, 1 << ell)
    for j in range(1, k + 1):
        arm = 1 if (k - j) % 2 == 0 else 2
        e = (3 * e + unit) / (1 << arm)
    return e


def epsilon_recurrences(k_max: int, ell: int) -> list[Fraction]:
    """epsilon_recurrence(k, ell) at k = 0..k_max, two arms at a time.

    The arm pattern of k + 2 is that of k followed by a quarter and a halve,
    so each value follows from the one two places before it.
    """
    unit = Fraction(1, 1 << ell)
    values = [Fraction(0), unit / 2]
    for k in range(2, k_max + 1):
        values.append((3 * ((3 * values[k - 2] + unit) / 4) + unit) / 2)
    return values


class TestIntegerForms:
    @pytest.mark.parametrize("ell", [1, 6, 60, 500])
    def test_the_pairs_equal_their_fractions(self, ell):
        recurrence = epsilon_recurrences(2000, ell)
        assert recurrence[:201] == [Fraction(0)] + [epsilon_recurrence(k, ell)
                                                    for k in range(1, 201)]
        for k in range(1, 2001):
            p3 = 3**k
            cn, cd = _critical_pair(p3)
            # 2**mu is the one power of 2 in (3**k / 2, 3**k)
            assert cd == p3 and cn & (cn - 1) == 0 and cn < cd < 2 * cn, k
            assert Fraction(cn, cd) == critical_point(k), k
            assert Fraction(*_epsilon_pair(k, ell, p3)) == recurrence[k], (ell, k)


def epsilon_growth(k: int, ell: int) -> Fraction:
    """The closed form in Fraction algebra: 7g or (15/2)g + 1/2, over 2**ell, g = (9/8)**(k//2) - 1."""
    n, odd = divmod(k, 2)
    growth = Fraction(9, 8) ** n - 1
    coefficient = Fraction(15, 2) * growth + Fraction(1, 2) if odd else 7 * growth
    return coefficient / (1 << ell)


class TestEpsilonBound:
    def test_base_cases(self):
        assert epsilon_bound(1, 6) == Fraction(1, 2**7)
        assert epsilon_bound(2, 10) == Fraction(7, 2**13)
        assert epsilon_bound(3, 4) == Fraction(23, 16) / 16
        assert epsilon_bound(4, 4) == Fraction(119, 64) / 16

    def test_matches_recurrence(self):
        for ell in (6, 60):
            for k in range(1, 201):
                assert epsilon_bound(k, ell) == epsilon_recurrence(k, ell)

    def test_matches_the_growth_expression(self):
        for ell in (1, 6, 60, 500):
            for k in range(1, 1001):
                assert epsilon_bound(k, ell) == epsilon_growth(k, ell), (ell, k)

    def test_increasing_in_k(self):
        prev = epsilon_bound(1, 60)
        for k in range(2, 1001):
            cur = epsilon_bound(k, 60)
            assert cur > prev
            prev = cur

    @given(st.integers(min_value=1, max_value=300), st.integers(min_value=1, max_value=80))
    def test_scales_as_the_last_place_unit(self, k, ell):
        assert epsilon_bound(k, ell) == epsilon_bound(k, ell + 7) * 128

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            epsilon_bound(0, 6)
        with pytest.raises(ValueError):
            epsilon_bound(3, 0)


class TestKStarScan:
    def test_length_sixty(self):
        report = kstar_scan(60, 1000, collect_margins=True)
        assert report.k_star == 600
        assert report.critical == critical_point(600)
        assert report.epsilon == epsilon_bound(600, 60)
        assert to_decimal(report.critical, 6) == "0.507858"
        assert to_decimal(report.epsilon, 6) == "0.013460"
        # every horizon before k* is excluded, and k* strictly reverses
        assert all(m >= 0 for m in report.margins[:-1])
        assert report.margins[-1] < 0
        assert Fraction(1, 2) + report.epsilon > report.critical

    def test_short_scan_finds_nothing(self):
        report = kstar_scan(60, 100)
        assert report.k_star is None
        assert report.excluded_all

    def test_small_length(self):
        assert kstar_scan(4).k_star == 5

    def test_margins_follow_the_definition(self):
        for ell, k_max in ((10, 50), (1, 5), (4, 20), (7, 100), (33, 400), (60, 1000)):
            report = kstar_scan(ell, k_max, collect_margins=True)
            assert len(report.margins) == (report.k_star or k_max)
            for k, margin in enumerate(report.margins, start=1):
                assert margin == fraction_margin(k, ell), (ell, k)

    @pytest.mark.parametrize("ell", [*range(1, 41), 60])
    def test_integer_scan_matches_the_fraction_loop(self, ell):
        k_star = next(k for k in range(1, 1001) if fraction_margin(k, ell) < 0)
        if k_star > 1:
            assert kstar_scan(ell, k_star - 1).k_star is None
        for k_max in (k_star, k_star + 1, 2 * k_star + 10):
            report = kstar_scan(ell, k_max)
            assert report.k_star == k_star
            assert report.critical == critical_point(k_star)
            assert report.epsilon == epsilon_bound(k_star, ell)

    @pytest.mark.parametrize("ell", [*range(1, 65), 100, 500, 1000])
    def test_window_scan_matches_the_running_products(self, ell):
        # the scan keeps only 3**k and skips a k by 64 bits of it; the
        # reference forms the gap and all three products at every k
        k_star = running_products_kstar(ell, 12 * ell + 100)
        assert k_star is not None
        if k_star > 1:
            assert kstar_scan(ell, k_star - 1).k_star is None
        for k_max in (k_star, k_star + 1, 2 * k_star + 10):
            report = kstar_scan(ell, k_max)
            assert report.k_star == k_star
            assert report.critical == critical_point(k_star)
            assert report.epsilon == epsilon_bound(k_star, ell)

    @pytest.mark.parametrize("ell", [*range(1, 70), *range(100, 1001, 50)])
    def test_interval_scan_matches_the_window_loop(self, ell):
        # the reference walks every k on one running 3**k; the scan walks
        # only the Stern-Brocot windows it cannot clear
        k_star = window_loop_kstar(ell, 20000)
        assert k_star is not None
        report = kstar_scan(ell, 20000)
        assert report.k_star == k_star
        assert report.critical == critical_point(k_star)
        assert report.epsilon == epsilon_bound(k_star, ell)

    def test_windows_tile_the_horizons_in_stern_brocot_order(self):
        intervals = list(_intervals(3000))
        assert intervals[0][:4] == (1, 2, 2, 1)
        assert [k0 for k0, *_ in intervals[1:]] == [k1 for _, k1, *_ in intervals[:-1]]
        assert intervals[-1][1] > 3000 >= intervals[-2][1]
        # every convergent denominator up to 665 closes a window
        ends = {k1 for _, k1, *_ in intervals}
        assert {2, 5, 12, 41, 53, 306, 665} <= ends

    def test_no_horizon_before_a_window_end_comes_closer_than_d(self):
        # the interval lemma, exact: every k < b + d has t_k >= t_d
        intervals = [w for w in _intervals(3000) if w[1] <= 3000]
        assert len(intervals) >= 20
        for _, k1, c, d, _ in intervals:
            for k in range(1, k1):
                assert t_at_least(k, c, d), (k, c, d)

    def test_a_cleared_window_clears_each_of_its_horizons(self):
        # the two-k test must imply the test at every k of the window, with
        # the exact top; the t/2 bound then makes each margin positive
        tops = [(3**k).bit_length() for k in range(3001)]
        outcomes = set()
        for ell in range(1, 121):
            for k0, k1, c, d, bits in _intervals(3000):
                cleared = all(_clears(ell, k, c, d, bits) for k in (k1 - 1, k1 - 2) if k)
                outcomes.add(cleared)
                if not cleared:
                    continue
                room = (c << bits) - d * log2_3_bounds(bits)[1]
                assert room > 0
                for k in range(k0, min(k1, 3001)):
                    need = tops[k] - (3 * (k >> 1) + ell) + 5
                    assert need <= room.bit_length() - 1 - bits, (ell, k0, k1, k)
        assert outcomes == {False, True}

    @pytest.mark.parametrize("bits", [12, 64])
    def test_the_per_k_rule_clears_only_horizons_with_room(self, bits):
        # the single-k rule, c = floor(k lo / 2**bits) + 1 and d = k, must imply
        # the test with the exact top; at 12 bits the rounding of lo and hi shows
        lo, hi = log2_3_bounds(bits)
        hi256 = log2_3_bounds(256)[1]
        horizons = []
        for k in range(1, 3001):
            top = (3**k).bit_length()
            c = ((k * lo) >> bits) + 1
            room = (c << bits) - k * hi
            # t_k >= t256 / 2**256, and room / 2**bits never passes that bound
            t256 = (top << 256) - k * hi256
            assert room << 256 <= t256 << bits, k
            horizons.append((k, top, c, room, t256))
        outcomes = set()
        for ell in range(1, 121):
            for k, top, c, room, t256 in horizons:
                outcomes.add(cleared := _clears(ell, k, c, k, bits))
                if not cleared:
                    continue
                assert room > 0, (ell, k)
                need = top - (3 * (k >> 1) + ell) + 5
                assert need <= room.bit_length() - 1 - bits, (ell, k)
                assert t256 >> (256 + need) > 0, (ell, k)
        assert outcomes == {False, True}

    def test_the_walk_forms_a_power_of_3_only_where_the_rule_fails(self, monkeypatch):
        formed = []
        margin = analysis._margin
        monkeypatch.setattr(analysis, "_margin", lambda ell, k: formed.append(k) or margin(ell, k))
        assert kstar_scan(500, 10000).k_star == 5773
        assert formed == [5761, 5773]
        formed.clear()
        assert kstar_scan(5000, 100000).k_star == 58720
        assert formed == [58720]

    @given(st.one_of(
        st.integers(min_value=1, max_value=2**64),
        st.integers(min_value=1, max_value=2**3000),
        # an all-ones top window over any tail, and windows just below it
        st.integers(0, 300).flatmap(lambda r: st.builds(
            lambda below, tail: (2**64 - 1 - below) << r | tail,
            st.integers(0, 3), st.integers(0, (1 << r) - 1))),
    ))
    @example(2**64 - 1)
    @example(2**64)
    @example(2**80 - 1)
    @example((2**64 - 1) << 10 | 1)
    def test_the_window_bound_never_passes_the_gap(self, p):
        top = p.bit_length()
        exact = ((1 << top) - p).bit_length()
        # a lower bound, and at most one bit short of the gap
        assert exact - 1 <= gap_bits_floor(p, top) <= exact

    def test_a_huge_length_skips_every_horizon_in_bounded_memory(self):
        # a gap shifted by s >= 10**12 bits would take over 100 GiB
        tracemalloc.start()
        try:
            report = kstar_scan(10**12, 100)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.excluded_all
        assert peak < 2**20

    def test_a_power_past_its_limit_is_refused_before_it_is_formed(self):
        # k* near 1.2 * 10**11 is reached in a few hundred descent steps, and
        # its window would need a 3**k of about 2 * 10**11 bits
        with pytest.raises(ValueError, match=r"3\*\*k up to k = \d+"):
            kstar_scan(10**10, 10**12)
        with pytest.raises(ValueError, match=r"up to k = 134217729"):
            kstar_scan(10, 2**27 + 1, collect_margins=True)

    def test_collected_margins_past_their_bound_are_refused(self):
        # k_max (2 ell + 4 k_max) passes 2**32 first at k_max = 32768 for ell 1
        assert kstar_scan(1, 32767, collect_margins=True).margins == [fraction_margin(1, 1)]
        with pytest.raises(ValueError, match=r"collect margins of about 4295032832 bits"):
            kstar_scan(1, 32768, collect_margins=True)

    def test_collected_margins_of_a_huge_length_are_refused_in_bounded_memory(self):
        # the first margin alone at ell 10**12 would take about 125 GB
        code = (
            "import resource\n"
            "resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))\n"
            "from collatzbin.analysis import kstar_scan\n"
            "try:\n"
            "    kstar_scan(10**12, 100, collect_margins=True)\n"
            "except ValueError as e:\n"
            "    print(e)\n"
        )
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.startswith("kstar_scan would collect margins of about ")

    def test_the_report_forms_its_fractions_only_when_read(self, monkeypatch):
        read = []
        monkeypatch.setattr(analysis, "critical_point", lambda k: read.append(k) or k)
        report = kstar_scan(500, 10000)
        assert (report.k_star, read) == (5773, [])
        assert report.critical == report.critical == 5773
        assert read == [5773]
        assert kstar_scan(60, 100).critical is None

    def test_a_report_of_a_long_scan_has_a_repr(self):
        # Fractions of k* = 58720 pass Python's 4300-digit limit for integer strings
        report = kstar_scan(5000, 100000)
        assert repr(report) == "KStarReport(ell=5000, k_max=100000, k_star=58720)"
        assert repr(kstar_scan(60, 1000, collect_margins=True)) == (
            "KStarReport(ell=60, k_max=1000, k_star=600)")

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            kstar_scan(0)
        with pytest.raises(ValueError):
            kstar_scan(10, 0)


class TestFamilyProbe:
    def test_alpha_and_beta_always_stop_in_two(self):
        for kind in (Family.ALPHA, Family.BETA):
            probe = family_orbit_probe(kind, 100)
            assert probe.ok
            assert set(probe.stopping_times.values()) == {2}

    def test_gamma_reaches_ground_with_growing_stopping_times(self):
        probe = family_orbit_probe(Family.GAMMA, 100)
        assert probe.ok
        assert len(probe.stopping_times) == 100
        assert probe.max_stop == 1776
        # spot check one member against the trajectory record
        record = run_trajectory(bf("111000111"))
        assert probe.stopping_times[1] == record.stopping_time

    def test_step_cap_marks_unresolved(self):
        probe = family_orbit_probe(Family.GAMMA, 10, step_cap=3)
        assert probe.unresolved == list(range(1, 11))
        assert not probe.ok
        assert probe.max_stop is None

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            family_orbit_probe(Family.ALPHA, 0)
        for step_cap in (0, -1):
            with pytest.raises(ValueError):
                family_orbit_probe(Family.ALPHA, 3, step_cap=step_cap)
