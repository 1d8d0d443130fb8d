"""Tests for trajectory records, the head/tail table, error bounds, the
exclusion scan, exhaustive range verification, and the family probes.

Wherever a closed form or a memoized computation is under test, a plain
brute-force route computes the same quantity independently."""

import subprocess
import sys
import tracemalloc
from array import array
from dataclasses import replace
from fractions import Fraction
from functools import cache
from math import floor

import pytest
from hypothesis import given
from hypothesis import strategies as st

from collatzbin.analysis import (
    DELTA_TABLE,
    Branch,
    DivergenceError,
    MapKind,
    audit_length_deltas,
    epsilon_bound,
    family_orbit_probe,
    head_tail_classify,
    kstar_scan,
    run_trajectory,
    verify_range,
)
from collatzbin.exact import GROUND_STATE, BinaryFraction, to_decimal, two_adic_valuation
from collatzbin.harness import derive_seed, sample_fraction
from collatzbin.maps import Family, binary_step, critical_point, embed, is_predecessor, reduced_step
from test_harness import RecordingPool

odd_integers = st.integers(min_value=0, max_value=2**40).map(lambda m: 2 * m + 1)


def bf(bits: str) -> BinaryFraction:
    return BinaryFraction.from_bits(bits)


def fraction_margin(k: int, ell: int) -> Fraction:
    return critical_point(k) - Fraction(1, 2) - epsilon_bound(k, ell)


def brute_stopping_time(x: int) -> int:
    steps = 0
    while x != 1:
        x = reduced_step(x)
        steps += 1
    return steps


@cache
def brute_stops(ell: int) -> dict[int, int]:
    return {x: brute_stopping_time(x) for x in range(1, 1 << ell, 2)}


def brute_fill_blocks(top: int, rho: Fraction = Fraction(27, 32)):
    """The fill's ranges below ``top``, by the block rule of ``_fill_memo``'s docstring.

    [1, 2**K a0), a0 the smallest a >= 1 with floor(a / rho) > a; then each
    block [lo, hi) as (lo, hi, M): with h = floor(lo / rho), M is the deepest
    depth, at least 1, with 16 * 2**M <= h - lo and 2**(M+1) <= lo, and hi
    is h rounded down to a multiple of 2**M, each cut at ``top``.
    """
    from collatzbin import maps

    a = 1
    while floor(a / rho) <= a:
        a += 1
    lo, hi, depth = 1, a << maps._JUMP_BITS, None
    while True:
        yield lo, min(hi, top), depth
        if hi >= top:
            return
        lo, h = hi, floor(hi / rho)
        depth = 1
        while 16 << (depth + 1) <= h - lo and 4 << depth <= lo:
            depth += 1
        hi = h - h % (1 << depth)


def brute_fill_maximum(top: int) -> tuple[int, range]:
    """The largest stop time below ``top`` and the fill range of its smallest start."""
    stops = {x: s for x, s in brute_stops(15).items() if x < top}
    best = max(stops.values())
    worst = min(x for x, s in stops.items() if s == best)
    lo, hi = next((lo, hi) for lo, hi, _ in brute_fill_blocks(top) if worst < hi)
    return best, range(lo, hi)


@cache
def brute_tree(depth: int, rho: Fraction) -> dict[int, tuple | None]:
    """Each odd residue r mod 2**depth, resolved by the fill tree's rule step by step.

    Its class (b, m, c, 3**c, offset), or None if it is still open at depth:
    r = 5 mod 8 is the class (5, 3, 0, 1, 0); any other r is resolved at the
    first j < depth at which T^j(r) is odd and 3**c <= rho 2**j, c the odd
    values among T^0(r), ..., T^(j-1)(r), and its class is b = r mod 2**(j+1),
    m = j + 1, with the offset T^j(b) >> 1 of b's own orbit.
    """

    def walk(x: int, steps: int) -> tuple[int, int]:
        c = 0
        for _ in range(steps):
            c, x = (c + 1, (3 * x + 1) >> 1) if x & 1 else (c, x >> 1)
        return x, c

    tree = {}
    for r in range(1, 1 << depth, 2):
        tree[r] = None
        if r % 8 == 5 and depth >= 3:
            tree[r] = (5, 3, 0, 1, 0)
            continue
        for j in range(1, depth):
            x, c = walk(r, j)
            if x & 1 and 3**c <= rho * 2**j:
                b = r % 2 ** (j + 1)
                y, _ = walk(b, j)
                tree[r] = (b, j + 1, c, 3**c, y >> 1)
                break
    return tree


def assert_caps_keep_their_witnesses(ell: int, caps: range, worker_counts: tuple) -> None:
    """verify_range at each cap and worker count: the true summary, or the smallest witness."""
    stops = brute_stops(ell)
    best = max(stops.values())
    for step_cap in caps:
        over = [x for x, s in stops.items() if s > step_cap]
        for workers in worker_counts:
            if not over:
                result = verify_range(ell, workers=workers, step_cap=step_cap)
                assert result.max_stopping_time == best
                assert result.worst_start == min(x for x, s in stops.items() if s == best)
                continue
            with pytest.raises(DivergenceError) as exc_info:
                verify_range(ell, workers=workers, step_cap=step_cap)
            assert exc_info.value.start == min(over)
            assert exc_info.value.step_cap == step_cap


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
        assert not replace(rep, observed_delta=0).within_bounds()
        assert not replace(rep, observed_delta=2).within_bounds()

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

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            kstar_scan(0)
        with pytest.raises(ValueError):
            kstar_scan(10, 0)


class TestVerifyRange:
    def test_tiny_ranges(self):
        one = verify_range(1)
        assert (one.verified_count, one.max_stopping_time, one.worst_start) == (1, 0, 1)
        two = verify_range(2)
        assert (two.verified_count, two.max_stopping_time, two.worst_start) == (2, 2, 3)

    def test_matches_brute_force_at_small_lengths(self, monkeypatch):
        # two chunks even on a one-CPU machine; ell 6 ties 27 and 55 across
        # the chunks, ell 8 ties 231 and 235 inside one
        from collatzbin import harness

        monkeypatch.setattr(harness, "ProcessPoolExecutor", RecordingPool)
        monkeypatch.setattr(harness.os, "cpu_count", lambda: 2)
        for ell in (5, 6, 8, 10):
            stops = {x: brute_stopping_time(x) for x in range(1, 1 << ell, 2)}
            best = max(stops.values())
            for workers in (1, 2):
                result = verify_range(ell, workers=workers)
                assert result.verified_count == len(stops)
                assert result.max_stopping_time == best
                assert result.worst_start == min(x for x, s in stops.items() if s == best)

    @pytest.mark.parametrize("memo_bits", [10, 11])
    def test_capped_memo_matches_brute_force(self, monkeypatch, memo_bits):
        # starts at or above 2**memo_bits are walked down to it, not stored;
        # the walk needs memo_bits >= K = 10
        from collatzbin import analysis, harness

        monkeypatch.setattr(analysis, "_MEMO_BITS", memo_bits)
        monkeypatch.setattr(harness, "ProcessPoolExecutor", RecordingPool)
        monkeypatch.setattr(harness.os, "cpu_count", lambda: 2)
        for ell in (8, 10, 12):
            stops = {x: brute_stopping_time(x) for x in range(1, 1 << ell, 2)}
            best = max(stops.values())
            for workers in (1, 2):
                result = verify_range(ell, workers=workers)
                assert result.verified_count == len(stops)
                assert result.max_stopping_time == best
                assert result.worst_start == min(x for x, s in stops.items() if s == best)

    def test_memo_stays_bounded_at_the_largest_length(self, monkeypatch):
        # the fill is stopped at once; the 2**24-entry int16 memo is 32 MiB,
        # where 2**33 entries would be 16 GiB
        from collatzbin import analysis

        class Stop(Exception):
            pass

        sizes = []

        def stop(memo, *args):
            sizes.append(len(memo))
            raise Stop

        monkeypatch.setattr(analysis, "_fill_memo", stop)
        tracemalloc.start()
        try:
            with pytest.raises(Stop):
                verify_range(34)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert sizes == [1 << 24]
        assert peak < 40 * 2**20
        x = 2**33 + 1
        memo = array("h", [-1]) * (1 << 24)
        for v in range(1, 1 << 10, 2):
            memo[v >> 1] = brute_stopping_time(v)
        assert analysis._walk(memo, range(x, x + 2, 2), 1 << 10, 10**6) == (
            1, brute_stopping_time(x), x, 0)

    def test_known_worst_cases(self):
        five = verify_range(5)
        assert (five.max_stopping_time, five.worst_start) == (41, 27)
        ten = verify_range(10)
        assert (ten.max_stopping_time, ten.worst_start) == (65, 871)

    def test_worker_count_never_changes_the_summary(self):
        assert verify_range(12, workers=3) == verify_range(12)
        assert verify_range(9, workers=8) == verify_range(9)

    def test_step_cap_raises_with_witness(self):
        # 9 -> 7 -> 11 -> 17 -> 13 -> 5 -> 1 is the first orbit longer than 5
        with pytest.raises(DivergenceError) as exc_info:
            verify_range(5, step_cap=5)
        assert exc_info.value.start == 9
        assert str(exc_info.value) == "orbit of 9 exceeded the step cap of 5"

    @pytest.mark.parametrize("bits", [10, 4])
    def test_step_cap_bounds_the_stopping_time_at_any_worker_count(self, monkeypatch, jump_bits,
                                                                   bits):
        # the cap applies to each start's stopping time, not to the part of
        # its walk that a block's fill has not seen yet; at ell 14 the memo
        # fill runs, and with K = 4 it runs at every length and its walks
        # stop at caps near the maximum; every block is split among the workers
        from collatzbin import analysis, harness

        jump_bits(bits)
        monkeypatch.setattr(analysis, "_SPLIT_WIDTH", 0)
        monkeypatch.setattr(harness, "ProcessPoolExecutor", RecordingPool)
        monkeypatch.setattr(harness.os, "cpu_count", lambda: 3)
        for ell, first_cap in ((8, 1), (10, 1), (14, 85)):
            caps = range(first_cap, max(brute_stops(ell).values()) + 2)
            assert_caps_keep_their_witnesses(ell, caps, (1, 2, 3))

    @pytest.mark.parametrize("ell", [12, 13])
    def test_a_start_above_the_memo_that_passes_the_cap_keeps_its_witness(self, monkeypatch,
                                                                         ell):
        # with a memo bound of 2**10 the longest orbits start above it, so at
        # caps near the maximum the witness is a capped start of a slice
        from collatzbin import analysis, harness

        monkeypatch.setattr(analysis, "_MEMO_BITS", 10)
        monkeypatch.setattr(harness, "ProcessPoolExecutor", RecordingPool)
        monkeypatch.setattr(harness.os, "cpu_count", lambda: 3)
        best = max(brute_stops(ell).values())
        assert max(brute_stops(10).values()) < best - 8
        assert_caps_keep_their_witnesses(ell, range(best - 8, best + 2), (1, 2, 3))

    @pytest.mark.parametrize("bits", [10, 3, 4, 6])
    def test_memo_fill_matches_brute_force_entry_by_entry(self, jump_bits, bits):
        # K = 10 fills blocks from 6 * 2**10 on; a smaller K crosses many more
        # blocks and classes; the smaller tops end inside a block, where most
        # classes have no start
        from collatzbin import analysis

        jump_bits(bits)
        stops = brute_stops(15)
        for top in (1 << 15, (1 << 15) - 2002, 6146):
            memo = array("h", [-1]) * (1 << 14)
            memo[0] = 0
            count, best, where = analysis._fill_memo(memo, top, 10**6)
            assert (count, best, where) == (top >> 1, *brute_fill_maximum(top))
            assert list(memo[: top >> 1]) == [stops[x] for x in range(1, top, 2)]

    @pytest.mark.parametrize("bits", [10, 4])
    def test_slices_match_the_per_start_loop(self, monkeypatch, jump_bits, bits):
        # the oracle takes every start's stopping time by single reduced
        # steps; with a memo bound of 2**14, the starts above it are walked
        # in one slice per worker, reading the memo the split blocks filled
        from collatzbin import analysis, harness

        jump_bits(bits)
        monkeypatch.setattr(analysis, "_MEMO_BITS", 14)
        monkeypatch.setattr(analysis, "_SPLIT_WIDTH", 0)
        monkeypatch.setattr(harness, "ProcessPoolExecutor", RecordingPool)
        monkeypatch.setattr(harness.os, "cpu_count", lambda: 4)
        for ell in (13, 14, 15, 16):
            stops = brute_stops(ell)
            count, best = len(stops), max(stops.values())
            worst = min(x for x, s in stops.items() if s == best)
            for workers in (1, 2, 3, 4):
                monkeypatch.setattr(RecordingPool, "mapped", [])
                result = verify_range(ell, workers=workers)
                assert (result.verified_count, result.max_stopping_time, result.worst_start) == (
                    count, best, worst)
                if workers > 1 and ell > 14:
                    assert RecordingPool.mapped[-1] == workers  # the slices above 2**14

    @pytest.mark.parametrize("parts", [1, 2, 3, 4])
    @pytest.mark.parametrize("bits", [10, 3, 4, 6])
    def test_split_fill_matches_brute_force_entry_by_entry(self, monkeypatch, jump_bits, bits,
                                                           parts):
        # every block split into parts that share one memo through the
        # pool's initializer; the parts run one after another here, and
        # every class slice is cut into pieces of 5 starts and a shorter tail
        from collatzbin import analysis

        jump_bits(bits)
        monkeypatch.setattr(analysis, "_SPLIT_WIDTH", 0)
        monkeypatch.setattr(analysis, "_PIECE", 5)
        monkeypatch.setattr(analysis, "_shared", None)
        stops = brute_stops(15)
        for top in (1 << 15, (1 << 15) - 2002, 6146):
            arena, memo = analysis._shared_memo(1 << 15)
            pool = RecordingPool(parts, analysis._share_memo, (arena,))
            count, best, where = analysis._fill_memo(memo, top, 10**6, pool, parts)
            assert (count, best, where) == (top >> 1, *brute_fill_maximum(top))
            assert memo[: top >> 1].tolist() == [stops[x] for x in range(1, top, 2)]

    @pytest.mark.parametrize("n", [0, 1, 1000])
    def test_the_packed_add_matches_the_per_entry_add(self, n):
        # each c of the fill and beyond, on the lane edges 0 and 0x7FFF - c
        # and on both sides of the threshold: y + c == below must not raise
        # it, y + c == below + 1 must (one past 0x7FFF at below = 0x7FFF);
        # read from an array and from a strided memoryview as the fill does
        from collatzbin import analysis

        for c in range(1, 11):
            for below in (c, 1000, 0x7FFF - c, 0x7FFF):
                edges = [y for y in (below - c, below - c + 1, 0, 0x7FFF - c) if 0 <= y <= below]
                quiet = [y for y in edges if y + c <= below]
                for lanes in (edges, quiet, [0, 0x7FFF - c, 1000 * c] if below == 0x7FFF else []):
                    if not lanes:
                        continue
                    ys = array("h", [lanes[i % len(lanes)] for i in range(n)])
                    sums = [y + c for y in ys]
                    top = max(sums) if sums and max(sums) > below else -1
                    spread = array("h", [-1]) * (3 * n)
                    spread[1::3] = ys
                    for source in (ys, memoryview(spread)[1::3]):
                        added, found = analysis._add_lanes(source, c, below)
                        assert found == top
                        if top <= 0x7FFF:
                            assert added == array("h", sums)

    @pytest.mark.parametrize("rho", [Fraction(27, 32), Fraction(3, 4)])
    @pytest.mark.parametrize("bits", [10, 3, 4, 6])
    def test_the_tree_partitions_the_odd_residues_by_its_rule(self, monkeypatch, jump_bits,
                                                             bits, rho):
        # at every depth M, the classes of depth at most M (each standing
        # for its residues mod 2**M) and the residues open at M cover every
        # odd residue exactly once, and each is what the rule makes of it;
        # the tree reads its ratio from _FILL_RATIO, as the block schedule does
        from collatzbin import analysis

        monkeypatch.setattr(analysis, "_FILL_RATIO", rho)
        jump_bits(bits)
        tree = brute_tree(16, rho)
        for depth in range(3, 17):
            classes, opens = analysis._fill_plan().level(depth)
            classes, opens = list(classes), list(opens)
            covered = [0] * (1 << depth)
            for b, m, *_ in classes:
                for r in range(b, 1 << depth, 1 << m):
                    covered[r] += 1
            for r in opens:
                covered[r] += 1
            assert covered[1::2] == [1] * (1 << (depth - 1))
            assert sorted(classes) == sorted(
                {k for k in tree.values() if k is not None and k[1] <= depth})
            assert sorted(opens) == sorted(
                {r % (1 << depth) for r, k in tree.items() if k is None or k[1] > depth})
            assert [m for _, m, *_ in classes] == sorted(m for _, m, *_ in classes)

    @pytest.mark.parametrize("bits", [10, 3, 4, 6])
    def test_every_class_takes_its_stop_time_from_its_memo_index(self, jump_bits, bits):
        # stop(x) = c + stop(y), y the odd value at memo index stride A + offset,
        # for every start x = 2**m A + b < 2**15 of every class with A >= 1
        from collatzbin import analysis

        jump_bits(bits)
        stops = brute_stops(15)
        classes, _ = analysis._fill_plan().level(16)
        checked = 0
        for b, m, c, stride, offset in classes:
            for a in range(1, ((1 << 15) - b + (1 << m) - 1) >> m):
                y = 2 * (stride * a + offset) + 1
                assert stops[(a << m) + b] == c + stops.get(y, brute_stopping_time(y))
                checked += 1
        assert checked > 14000

    def test_a_block_takes_the_deepest_depth_its_classes_fill(self):
        # the deepest M at which a class holds 16 of [lo, h), but never
        # 2**(M+1) > lo, and at least 1; far wider blocks than the fill
        # makes, so the lo bound binds too
        from collatzbin import analysis

        for lo in (*range(4, 300), 6 << 10, (1 << 20) + 3):
            for width in {*range(1, 70), *(w << k for w in (15, 16, 17) for k in range(12)),
                          lo // 4, lo, 64 * lo}:
                depth = 1
                while 16 << (depth + 1) <= width and 4 << depth <= lo:
                    depth += 1
                assert analysis._fill_depth(lo, lo + width) == depth

    @pytest.mark.parametrize("rho", [Fraction(27, 32), Fraction(3, 4)])
    @pytest.mark.parametrize("bits", [10, 3, 4, 6])
    def test_every_class_read_of_every_block_lies_below_it(self, monkeypatch, jump_bits, bits,
                                                          rho):
        # the blocks _fill_memo makes up to 2**25, recorded without filling
        # them, follow the documented rule; for each class of a block's depth,
        # its first start has A >= 1 and its last start reads below lo
        from collatzbin import analysis

        monkeypatch.setattr(analysis, "_FILL_RATIO", rho)
        jump_bits(bits)
        blocks = []

        def record(memo, lo, hi, depth, below, part, parts, step_cap):
            blocks.append((lo, hi, depth))
            return len(range(lo | 1, hi, 2)), -1, False

        monkeypatch.setattr(analysis, "_fill_block", record)
        memo = array("h", [-1]) * (1 << 14)
        memo[0] = 0
        analysis._fill_memo(memo, 1 << 25, 10**6)
        assert blocks == list(brute_fill_blocks(1 << 25, rho))[1:]
        for lo, hi, depth in blocks:
            assert 2 << depth <= lo
            assert hi % (1 << depth) == 0
            classes, opens = analysis._fill_plan().level(depth)
            for b, m, c, stride, offset in classes:
                first, last = (lo - b + (1 << m) - 1) >> m, (hi - 1 - b) >> m
                assert first >= 1
                assert 2 * (stride * last + offset) + 1 < lo

    def test_a_class_past_int16_raises_before_it_wraps(self):
        # every entry below a block seeded so that the class with the largest
        # c of the block's tree depth reaches 0x7FFF, then one past it; a
        # walk past the cap of 0x7FFE writes nothing, so only a class add can
        # overflow, and only that class can reach the block's largest stop time
        from collatzbin import analysis

        lo = 1 << 15
        h = lo * 32 // 27
        depth = analysis._fill_depth(lo, h)
        hi = h >> depth << depth
        classes = list(analysis._fill_plan().level(depth)[0])
        top = max(c for _, _, c, _, _ in classes)
        assert depth >= 8 and top >= 4
        for seed in (0x7FFF - top, 0x7FFF - top + 1):
            memo = array("h", [seed]) * (lo >> 1) + array("h", [-1]) * ((hi - lo) >> 1)
            if seed + top > 0x7FFF:
                with pytest.raises(OverflowError):
                    analysis._fill_block(memo, lo, hi, depth, seed, 0, 1, 0x7FFE)
                continue
            _, best, _ = analysis._fill_block(memo, lo, hi, depth, seed, 0, 1, 0x7FFE)
            assert best == 0x7FFF
            for b, m, c, _, _ in classes:
                first = lo + (b - lo) % (1 << m)
                assert set(memo[first >> 1 : hi >> 1 : 1 << (m - 1)]) == {seed + c}

    @pytest.mark.parametrize("workers", [1, 2, 3])
    @pytest.mark.parametrize("ell", [12, 13, 14, 15, 16])
    def test_the_count_is_what_the_fill_wrote(self, monkeypatch, jump_bits, ell, workers):
        # a fill that leaves entries unknown must not pass as a summary: the
        # count is summed from what each part wrote and checked block by
        # block; K = 4 fills blocks at every length, and every block is split
        from collatzbin import analysis, harness

        jump_bits(4)
        monkeypatch.setattr(analysis, "_SPLIT_WIDTH", 0)
        monkeypatch.setattr(harness, "ProcessPoolExecutor", RecordingPool)
        monkeypatch.setattr(harness.os, "cpu_count", lambda: 3)
        stops = brute_stops(ell)
        best = max(stops.values())
        worst = min(x for x, s in stops.items() if s == best)
        result = verify_range(ell, workers=workers)
        assert (result.verified_count, result.max_stopping_time, result.worst_start) == (
            len(stops), best, worst)

    def test_a_block_left_short_is_named(self, monkeypatch):
        # a part that writes one entry too few in its block raises, naming it
        from collatzbin import analysis

        fill_block = analysis._fill_block

        def short(memo, lo, *block):
            count, best, stopped = fill_block(memo, lo, *block)
            return count - (lo == 6144), best, stopped

        monkeypatch.setattr(analysis, "_fill_block", short)
        message = r"^the memo fill of \[6144, 7232\) wrote 543 of its 544 odd values$"
        with pytest.raises(RuntimeError, match=message):
            verify_range(13)

    def test_a_real_pool_shares_one_memo(self, monkeypatch):
        # two worker processes fill the split blocks of one memo; a worker
        # that filled a copy would leave the parent's entries at -1.  Nothing
        # is left running, and no file is left behind, after a return or a raise
        import multiprocessing
        import os

        from collatzbin import analysis, harness

        monkeypatch.setattr(analysis, "_SPLIT_WIDTH", 0)
        monkeypatch.setattr(harness.os, "cpu_count", lambda: 2)
        shm = set(os.listdir("/dev/shm")) if os.path.isdir("/dev/shm") else set()
        stops = brute_stops(16)
        assert verify_range(16, workers=2) == verify_range(16)
        assert multiprocessing.active_children() == []
        step_cap = max(stops.values()) - 3
        over = [x for x, s in stops.items() if s > step_cap]
        with pytest.raises(DivergenceError) as exc_info:
            verify_range(16, workers=2, step_cap=step_cap)
        assert exc_info.value.start == min(over)
        assert multiprocessing.active_children() == []
        if shm:
            assert set(os.listdir("/dev/shm")) <= shm

    def test_the_shared_memo_is_not_imported_with_the_cli(self):
        code = (
            "import sys, collatzbin.cli\n"
            "assert 'multiprocessing.heap' not in sys.modules\n"
            "from collatzbin import analysis, harness\n"
            "harness.os.cpu_count = lambda: 2\n"
            "analysis.verify_range(12, workers=2)\n"
            "assert 'multiprocessing.heap' in sys.modules\n"
        )
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr

    def test_fill_tables_are_built_on_first_use(self):
        code = (
            "import collatzbin, collatzbin.cli\n"
            "from collatzbin import analysis, maps\n"
            "assert analysis._fill_plan.cache_info().currsize == 0\n"
            "assert maps._jump_table.cache_info().currsize == 0\n"
            "analysis.verify_range(14)\n"
            "analysis.verify_range(15)\n"
            "assert analysis._fill_plan.cache_info().misses == 1\n"
            "assert maps._jump_table.cache_info().misses == 1\n"
            "assert maps._end_table.cache_info().misses == 1\n"
        )
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            verify_range(0)
        with pytest.raises(ValueError):
            verify_range(40)
        with pytest.raises(ValueError):
            verify_range(10, step_cap=0)
        for workers in (0, -3):
            with pytest.raises(ValueError):
                verify_range(10, workers=workers)


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
