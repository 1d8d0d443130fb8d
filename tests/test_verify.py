"""Tests for exhaustive range verification: the memo fill, its parity-vector
tree and block schedule, the walks, the shared memo and the parts that fill it
(``harness.Parts``, or the ``thread_parts`` fixture's threads in its place).

Every memoized or class-copied stop time is checked against a plain
brute-force route that takes one reduced step at a time."""

import os
import signal
import subprocess
import sys
import time
import tracemalloc
from array import array
from fractions import Fraction
from functools import cache, partial
from math import floor

import pytest

from collatzbin.maps import reduced_step
from collatzbin.verify import DivergenceError, verify_range


def run_python(code: str, timeout: float = 120) -> subprocess.CompletedProcess:
    """``code`` run by a fresh interpreter, which must exit 0 within ``timeout`` seconds."""
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=timeout)
    assert proc.returncode == 0, proc.stderr
    return proc


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
    """The fill's ranges below ``top``, by the block rule of ``_blocks``'s docstring.

    [1, 2**K), copied from the end table, at depth None; [2**K, 2**K a0) at
    depth 1, a0 the smallest a >= 1 with floor(a / rho) > a; then each
    block [lo, hi) as (lo, hi, M): with h = floor(lo / rho), M is the deepest
    depth, at least 1, with 16 * 2**M <= h - lo and 2**(M+1) <= lo, and hi
    is h rounded down to a multiple of 2**M, each cut at ``top``.
    """
    from collatzbin import maps

    a = 1
    while floor(a / rho) <= a:
        a += 1
    yield 1, min(top, 1 << maps._JUMP_BITS), None
    lo, hi, depth = 1 << maps._JUMP_BITS, a << maps._JUMP_BITS, 1
    while lo < top:
        yield lo, min(hi, top), depth
        lo, h = hi, floor(hi / rho)
        depth = 1
        while 16 << (depth + 1) <= h - lo and 4 << depth <= lo:
            depth += 1
        hi = h - h % (1 << depth)


def brute_fill_maximum(top: int) -> tuple[int, int]:
    """The largest stop time below ``top`` and its smallest start."""
    stops = {x: s for x, s in brute_stops(15).items() if x < top}
    best = max(stops.values())
    return best, min(x for x, s in stops.items() if s == best)


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


class TestVerifyRange:
    def test_tiny_ranges(self):
        one = verify_range(1)
        assert (one.verified_count, one.max_stopping_time, one.worst_start) == (1, 0, 1)
        two = verify_range(2)
        assert (two.verified_count, two.max_stopping_time, two.worst_start) == (2, 2, 3)

    def test_matches_brute_force_at_small_lengths(self, monkeypatch):
        # ell 6 ties 27 and 55, ell 8 ties 231 and 235, all in the end table
        from collatzbin import harness

        monkeypatch.setattr(harness.os, "cpu_count", lambda: 2)
        for ell in (5, 6, 8, 10):
            stops = {x: brute_stopping_time(x) for x in range(1, 1 << ell, 2)}
            best = max(stops.values())
            for workers in (1, 2):
                result = verify_range(ell, workers=workers)
                assert result.verified_count == len(stops)
                assert result.max_stopping_time == best
                assert result.worst_start == min(x for x, s in stops.items() if s == best)

    @pytest.mark.parametrize("bits", [10, 4])
    def test_no_block_starts_no_process_and_shares_no_memo(self, monkeypatch, jump_bits, started,
                                                           bits):
        # up to ell = K the end table holds every start, so two workers have
        # no block to split; one length more starts one child on a shared memo
        from collatzbin import harness, verify

        jump_bits(bits)
        monkeypatch.setattr(harness.os, "cpu_count", lambda: 2)
        shared, share = [], verify._shared_memo
        monkeypatch.setattr(verify, "_shared_memo", lambda bound: shared.append(bound) or
                            share(bound))
        for ell in range(1, bits + 1):
            assert verify_range(ell, workers=2) == verify_range(ell)
        assert (started, shared) == ([], [])
        assert verify_range(bits + 1, workers=2) == verify_range(bits + 1)
        assert len(started) == 1 and shared == [2 << bits]

    @pytest.mark.parametrize("memo_bits", [10, 11])
    def test_capped_memo_matches_brute_force(self, monkeypatch, thread_parts, memo_bits):
        # starts at or above 2**memo_bits are walked down to it, not stored;
        # the walk needs memo_bits >= K = 10
        from collatzbin import verify

        monkeypatch.setattr(verify, "_MEMO_BITS", memo_bits)
        thread_parts(2)
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
        from collatzbin import verify

        class Stop(Exception):
            pass

        sizes = []

        def stop(memo, *args):
            sizes.append(len(memo))
            raise Stop

        monkeypatch.setattr(verify, "_fill_memo", stop)
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
        assert verify._walk(memo, range(x, x + 2, 2), 1 << 10, 10**6) == (
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
    def test_step_cap_bounds_the_stopping_time_at_any_worker_count(self, jump_bits, thread_parts,
                                                                   bits):
        # the cap applies to each start's stopping time, not to the part of
        # its walk that a block's fill has not seen yet; at ell 14 the memo
        # fill runs, and with K = 4 it runs at every length and its walks
        # stop at caps near the maximum; every block is split among the workers
        jump_bits(bits)
        thread_parts(3)
        for ell, first_cap in ((8, 1), (10, 1), (14, 85)):
            caps = range(first_cap, max(brute_stops(ell).values()) + 2)
            assert_caps_keep_their_witnesses(ell, caps, (1, 2, 3))

    @pytest.mark.parametrize("ell", [12, 13])
    def test_a_start_above_the_memo_that_passes_the_cap_keeps_its_witness(self, monkeypatch,
                                                                         thread_parts, ell):
        # with a memo bound of 2**10 the longest orbits start above it, so at
        # caps near the maximum the witness is a capped start of a slice
        from collatzbin import verify

        monkeypatch.setattr(verify, "_MEMO_BITS", 10)
        thread_parts(3)
        best = max(brute_stops(ell).values())
        assert max(brute_stops(10).values()) < best - 8
        assert_caps_keep_their_witnesses(ell, range(best - 8, best + 2), (1, 2, 3))

    @pytest.mark.parametrize("bits", [10, 3, 4, 6])
    def test_memo_fill_matches_brute_force_entry_by_entry(self, jump_bits, bits):
        # K = 10 fills blocks from 6 * 2**10 on; a smaller K crosses many more
        # blocks and classes; the smaller tops end inside a block, where most
        # classes have no start
        from collatzbin import verify
        from collatzbin.harness import Parts

        jump_bits(bits)
        stops = brute_stops(15)
        tree = verify._FillTree(Fraction(27, 32), 16)
        for top in (1 << 15, (1 << 15) - 2002, 6146):
            memo = array("h", [-1]) * (1 << 14)
            parts = Parts(partial(verify._fill_block, memo, tree), 1)
            assert verify._fill_memo(memo, top, 10**6, tree, parts) == (
                top >> 1, *brute_fill_maximum(top))
            assert list(memo[: top >> 1]) == [stops[x] for x in range(1, top, 2)]

    @pytest.mark.parametrize("bits", [10, 4])
    def test_slices_match_the_per_start_loop(self, monkeypatch, jump_bits, thread_parts, bits):
        # the oracle takes every start's stopping time by single reduced
        # steps; with a memo bound of 2**14, the starts above it are walked
        # in one slice per worker, reading the memo the split blocks filled
        from collatzbin import verify

        jump_bits(bits)
        monkeypatch.setattr(verify, "_MEMO_BITS", 14)
        threads = thread_parts(4)
        for ell in (13, 14, 15, 16):
            stops = brute_stops(ell)
            count, best = len(stops), max(stops.values())
            worst = min(x for x, s in stops.items() if s == best)
            for workers in (1, 2, 3, 4):
                monkeypatch.setattr(threads, "mapped", [])
                result = verify_range(ell, workers=workers)
                assert (result.verified_count, result.max_stopping_time, result.worst_start) == (
                    count, best, worst)
                assert set(threads.mapped) == {workers}
                if workers > 1 and ell > 14:
                    assert len(threads.mapped) > 1  # the slices above 2**14 come last

    @pytest.mark.parametrize("parts", [1, 2, 3, 4])
    @pytest.mark.parametrize("bits", [10, 3, 4, 6])
    def test_split_fill_matches_brute_force_entry_by_entry(self, monkeypatch, jump_bits,
                                                           thread_parts, bits, parts):
        # every block split into parts, each a thread of its own on one
        # shared memo, switching every microsecond, so a part that read an
        # entry of its own block or lost a write would show; every class
        # slice is cut into pieces of 5 starts and a shorter tail
        from collatzbin import verify

        jump_bits(bits)
        monkeypatch.setattr(verify, "_PIECE", 5)
        threads = thread_parts(parts)
        stops = brute_stops(15)
        tree = verify._FillTree(Fraction(27, 32), 16)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for top in (1 << 15, (1 << 15) - 2002, 6146):
                arena, memo = verify._shared_memo(1 << 15)
                fill = threads(partial(verify._fill_arena, arena, tree), parts)
                assert verify._fill_memo(memo, top, 10**6, tree, fill) == (
                    top >> 1, *brute_fill_maximum(top))
                assert memo[: top >> 1].tolist() == [stops[x] for x in range(1, top, 2)]
        finally:
            sys.setswitchinterval(interval)

    @pytest.mark.parametrize("n", [0, 1, 1000])
    def test_the_packed_add_matches_the_per_entry_add(self, n):
        # each c of the fill and beyond, on the lane edges 0 and 0x7FFF - c
        # and on both sides of the threshold: y + c == below must not raise
        # it, y + c == below + 1 must (one past 0x7FFF at below = 0x7FFF);
        # read from an array and from a strided memoryview as the fill does
        from collatzbin import verify

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
                        added, found = verify._add_lanes(source, c, below)
                        assert found == top
                        if top <= 0x7FFF:
                            assert added == array("h", sums)

    @pytest.mark.parametrize("rho", [Fraction(27, 32), Fraction(3, 4)])
    @pytest.mark.parametrize("bits", [10, 3, 4, 6])
    def test_the_tree_partitions_the_odd_residues_by_its_rule(self, jump_bits, bits, rho):
        # at every depth M, the classes of depth at most M (each standing
        # for its residues mod 2**M) and the residues open at M cover every
        # odd residue exactly once, and each is what the rule makes of it
        # at the tree's own ratio; the tree never reads K, so it is the
        # same tree at every K
        from collatzbin import verify

        jump_bits(bits)
        tree = brute_tree(16, rho)
        fill_tree = verify._FillTree(rho, 16)
        for depth in range(3, 17):
            classes, opens = fill_tree.level(depth)
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
        # for every start x = 2**m A + b < 2**15 of every class with A >= 1,
        # at every K
        from collatzbin import verify

        jump_bits(bits)
        stops = brute_stops(15)
        classes, _ = verify._FillTree(Fraction(27, 32), 16).level(16)
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
        from collatzbin import verify

        for lo in (*range(4, 300), 6 << 10, (1 << 20) + 3):
            for width in {*range(1, 70), *(w << k for w in (15, 16, 17) for k in range(12)),
                          lo // 4, lo, 64 * lo}:
                depth = 1
                while 16 << (depth + 1) <= width and 4 << depth <= lo:
                    depth += 1
                assert verify._fill_depth(lo, lo + width) == depth

    @pytest.mark.parametrize("rho", [Fraction(27, 32), Fraction(3, 4)])
    @pytest.mark.parametrize("bits", [10, 3, 4, 6])
    def test_every_class_read_of_every_block_lies_below_it(self, jump_bits, bits, rho):
        # the blocks up to 2**25 follow the documented rule; for each class
        # of a block's depth, its first start has A >= 1 and its last start
        # reads below lo
        from collatzbin import verify

        jump_bits(bits)
        blocks = list(verify._blocks(1 << 25, rho))
        assert blocks == list(brute_fill_blocks(1 << 25, rho))[1:]
        tree = verify._FillTree(rho, max(depth for _, _, depth in blocks))
        for lo, hi, depth in blocks:
            assert 2 << depth <= lo
            assert hi % (1 << depth) == 0
            classes, opens = tree.level(depth)
            for b, m, c, stride, offset in classes:
                first, last = (lo - b + (1 << m) - 1) >> m, (hi - 1 - b) >> m
                assert first >= 1
                assert 2 * (stride * last + offset) + 1 < lo

    def test_a_class_past_int16_raises_before_it_wraps(self):
        # every entry below a block seeded so that the class with the largest
        # c of the block's tree depth reaches 0x7FFF, then one past it; a
        # walk past the cap of 0x7FFE writes nothing, so only a class add can
        # overflow, and only that class can reach the block's largest stop time
        from collatzbin import verify

        lo = 1 << 15
        h = lo * 32 // 27
        depth = verify._fill_depth(lo, h)
        hi = h >> depth << depth
        tree = verify._FillTree(verify._FILL_RATIO, depth)
        classes = list(tree.level(depth)[0])
        top = max(c for _, _, c, _, _ in classes)
        assert depth >= 8 and top >= 4
        for seed in (0x7FFF - top, 0x7FFF - top + 1):
            memo = array("h", [seed]) * (lo >> 1) + array("h", [-1]) * ((hi - lo) >> 1)
            if seed + top > 0x7FFF:
                with pytest.raises(OverflowError):
                    verify._fill_block(memo, tree, lo, hi, depth, seed, 0, 1, 0x7FFE)
                continue
            _, best, _, _ = verify._fill_block(memo, tree, lo, hi, depth, seed, 0, 1, 0x7FFE)
            assert best == 0x7FFF
            for b, m, c, _, _ in classes:
                first = lo + (b - lo) % (1 << m)
                assert set(memo[first >> 1 : hi >> 1 : 1 << (m - 1)]) == {seed + c}

    @pytest.mark.parametrize("workers", [1, 2, 3])
    @pytest.mark.parametrize("ell", [12, 13, 14, 15, 16])
    def test_the_count_is_what_the_fill_wrote(self, jump_bits, thread_parts, ell, workers):
        # a fill that leaves entries unknown must not pass as a summary: the
        # count is summed from what each part wrote and checked block by
        # block; K = 4 fills blocks at every length, and every block is split
        jump_bits(4)
        thread_parts(3)
        stops = brute_stops(ell)
        best = max(stops.values())
        worst = min(x for x, s in stops.items() if s == best)
        result = verify_range(ell, workers=workers)
        assert (result.verified_count, result.max_stopping_time, result.worst_start) == (
            len(stops), best, worst)

    @pytest.mark.parametrize("parts", [2, 3])
    def test_parts_share_the_starts_of_an_open_residue(self, parts):
        # the first block has no class and one open residue, 1 mod 2: each
        # part walks every n-th of its starts, so no part is left idle, and
        # together the parts write every entry of the block once
        from collatzbin import verify

        lo, hi, depth = next(verify._blocks(1 << 16, verify._FILL_RATIO))
        assert depth == 1
        stops = brute_stops(hi.bit_length())
        tree = verify._FillTree(verify._FILL_RATIO, depth)
        memo = array("h", [stops.get(v, 0) for v in range(1, lo, 2)]) + array("h", [-1]) * (
            (hi - lo) >> 1)
        below = max(memo)
        counts = [verify._fill_block(memo, tree, lo, hi, depth, below, part, parts, 10**6)[0]
                  for part in range(parts)]
        assert sum(counts) == (hi - lo) >> 1
        assert max(counts) - min(counts) <= 1
        assert memo[lo >> 1 :].tolist() == [stops[x] for x in range(lo | 1, hi, 2)]

    def test_a_block_left_short_is_named(self, monkeypatch):
        # a part that writes one entry too few in its block raises, naming it
        from collatzbin import verify

        fill_block = verify._fill_block

        def short(memo, tree, lo, *block):
            count, *found = fill_block(memo, tree, lo, *block)
            return count - (lo == 6144), *found

        monkeypatch.setattr(verify, "_fill_block", short)
        message = r"^the memo fill of \[6144, 7232\) wrote 543 of its 544 odd values$"
        with pytest.raises(RuntimeError, match=message):
            verify_range(13)

    def test_a_walk_keeps_its_smallest_start_in_any_order(self):
        # two starts with one stop time, the larger first: the peak's start
        # is the smaller, and so is the capped start at a cap just below it
        from collatzbin import verify

        stops = brute_stops(12)
        x, y = next((x, y) for x in range(1025, 1 << 12, 2) for y in range(x + 2, 1 << 12, 2)
                    if stops[x] == stops[y])
        memo = array("h", [-1]) * (1 << 11)
        for v in range(1, 1 << 10, 2):
            memo[v >> 1] = stops[v]
        assert verify._walk(memo, [y, x], 1 << 10, 10**6) == (2, stops[x], x, 0)
        assert verify._walk(memo, [y, x], 1 << 10, stops[x] - 1) == (0, -1, 0, x)

    def test_a_block_keeps_its_smallest_start_whichever_part_of_it_holds_it(self, monkeypatch):
        # the block [4096, 4832) at depth 5 with every entry below it 0,
        # except those that raise two starts to one stop time above every
        # other: the first start of one source and the last of another, for
        # every ordered pair of sources among the classes 1 mod 8 (c = 1) and
        # 19 mod 32 (c = 2), in pieces of 5 starts, and the walked residues
        # 3 and 27 mod 32.  So in every pairing of a class piece, another
        # piece or a walk with another, the smaller start comes first in one
        # run and last in another; it is the block's start at the peak, and
        # its smallest capped start at a cap just below the peak
        from collections import defaultdict

        from collatzbin import verify

        monkeypatch.setattr(verify, "_PIECE", 5)
        lo, hi, depth, top = 4096, 4832, 5, 200
        h = lo * 32 // 27  # the block _blocks would make at lo
        assert verify._fill_depth(lo, h) == depth and h >> depth << depth == hi
        tree = verify._FillTree(verify._FILL_RATIO, depth)
        classes, opens = tree.level(depth)
        # each start's memo index and what it adds to the entry there; a
        # walk's index is read off two walks, over memos of 0 and of each index
        reads, sources = {}, {}
        for b, m, c, stride, offset in classes:
            sources[b, m, c] = range(lo + (b - lo) % (1 << m), hi, 1 << m)
            reads.update({x: (stride * ((x - b) >> m) + offset, c) for x in sources[b, m, c]})
        zero, index = array("h", [0]) * (lo >> 1), array("h", range(lo >> 1))
        for r in opens:
            sources[r] = range(lo + (r - lo) % (1 << depth), hi, 1 << depth)
            for x in sources[r]:
                s = verify._walk(zero, [x], lo, 10**6)[1]
                reads[x] = verify._walk(index, [x], lo, 10**6)[1] - s, s
        assert max(add for _, add in reads.values()) < top
        adds = defaultdict(list)
        for at, add in reads.values():
            adds[at].append(add)

        def raised_alone(x: int) -> bool:
            """Whether every other start that reads x's entry adds less, so x rises alone."""
            at, add = reads[x]
            return max(adds[at]) == add and adds[at].count(add) == 1

        alone = [list(filter(raised_alone, sources[key])) for key in ((1, 3, 1), (19, 5, 2), 3, 27)]
        assert all(len(starts) > 1 for starts in alone)
        for first in alone:
            for last in alone:
                if first is last:
                    continue
                pair = (first[0], last[-1])
                for step_cap in (10**4, top - 1):
                    memo = array("h", [0]) * (lo >> 1) + array("h", [-1]) * ((hi - lo) >> 1)
                    for x in pair:
                        at, add = reads[x]
                        memo[at] = top - add
                    found = verify._fill_block(memo, tree, lo, hi, depth, max(memo[: lo >> 1]), 0,
                                               1, step_cap)
                    entries = {x: memo[x >> 1] for x in range(lo | 1, hi, 2)}
                    if step_cap > top:
                        assert max(entries.values()) == top
                        assert [x for x, s in entries.items() if s == top] == sorted(pair)
                        assert found == (len(entries), top, min(pair), 0)
                    else:
                        over = [x for x, s in entries.items() if not 0 <= s <= step_cap]
                        assert over == sorted(pair)
                        assert found[3] == min(pair)

    @pytest.mark.parametrize("order", [1, -1])
    def test_parts_that_tie_at_the_peak_keep_the_smallest_start(self, monkeypatch, jump_bits,
                                                                thread_parts, order):
        # 17647 and 17673 share the largest stop time below the end of their
        # block, 102; split in 3, the class 17673 falls to part 0, and 17647,
        # the start of index 7 of its open residue in the block, to part 1.
        # With a memo of 2**4 and K = 4, 27 and 55
        # share the largest below 2**6, in the two slices above the memo.
        # The parts come back in order and reversed, so the smaller start
        # comes back first in one run and last in the other
        from collatzbin import verify

        threads = thread_parts(2)
        monkeypatch.setattr(threads, "order", order)
        stops = brute_stops(15)
        lo, hi, depth = next(b for b in verify._blocks(1 << 15, verify._FILL_RATIO)
                             if b[0] < 17647 < b[1])
        tree = verify._FillTree(verify._FILL_RATIO, depth)
        classes, opens = tree.level(depth, 0, 3)
        assert any(17673 % (1 << m) == b for b, m, *_ in classes)
        assert 17647 % (1 << depth) in opens
        assert ((17647 - lo) >> depth) % 3 == 1
        assert [x for x in range(1, hi, 2) if stops[x] == 102] == [17647, 17673]
        assert max(stops[x] for x in range(1, hi, 2)) == 102
        arena, memo = verify._shared_memo(1 << 15)
        parts = threads(partial(verify._fill_arena, arena, tree), 3)
        assert verify._fill_memo(memo, hi, 10**6, tree, parts) == (hi >> 1, 102, 17647)
        jump_bits(4)
        monkeypatch.setattr(verify, "_MEMO_BITS", 4)
        assert [x for x, s in brute_stops(6).items() if s == 41] == [27, 55]
        result = verify_range(6, workers=2)
        assert (result.verified_count, result.max_stopping_time, result.worst_start) == (32, 41, 27)

    def test_a_real_child_shares_one_memo(self, monkeypatch, started):
        # this process and one child fill the split blocks of one memo; a
        # child that filled a copy would leave the parent's entries at -1.
        # Nothing is left running, and no file is left behind, after a return
        # or a raise
        import multiprocessing
        import os

        from collatzbin import harness

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
        assert len(started) == 2  # one child per run
        if shm:
            assert set(os.listdir("/dev/shm")) <= shm

    def test_one_tree_per_run_reaches_the_workers(self, monkeypatch, started, thread_parts):
        # verify_range builds one tree, as deep as the run's deepest block,
        # before the parts, and hands it to them; every split part fills
        # from it, and none builds its own.  A real child gets it as an
        # argument of its process
        from collatzbin import verify

        fill_tree, fill_block, real_parts = verify._FillTree, verify._fill_block, verify.Parts
        threads = thread_parts(2)
        built, given, used = [], [], []

        class CountedTree(fill_tree):
            def __init__(self, ratio, depth):
                super().__init__(ratio, depth)
                built.append(self)

        class GivenParts(threads):
            def __init__(self, fn, n):
                given.append(fn.args[1])
                super().__init__(fn, n)

        def fill(memo, tree, *block):
            used.append(tree)
            return fill_block(memo, tree, *block)

        monkeypatch.setattr(verify, "_FillTree", CountedTree)
        monkeypatch.setattr(verify, "Parts", GivenParts)
        monkeypatch.setattr(verify, "_fill_block", fill)
        stops = brute_stops(16)
        best = max(stops.values())
        result = verify_range(16, workers=2)
        assert (result.max_stopping_time, result.worst_start) == (
            best, min(x for x, s in stops.items() if s == best))
        deepest = max(depth for _, _, depth in list(brute_fill_blocks(1 << 16))[1:])
        [tree] = built
        assert (tree.ratio, len(tree.opens) - 1) == (Fraction(27, 32), deepest)
        assert given == [tree]
        assert len(used) > 2 and all(t is tree for t in used)
        tree.level(deepest)
        with pytest.raises(IndexError):
            tree.level(deepest + 1)
        built.clear()
        monkeypatch.setattr(verify, "Parts", real_parts)
        monkeypatch.setattr(verify, "_fill_block", fill_block)
        assert verify_range(16, workers=2) == verify_range(16)
        [tree, _] = built
        [child] = started
        assert tree in child.given[0].args

    @pytest.mark.parametrize("method", ["spawn", "forkserver"])
    def test_workers_from_a_fresh_import_keep_the_summary_and_the_witness(self, method):
        # such children inherit nothing: the memo and the tree reach them by
        # pickle, as arguments of their process; every block is split, and
        # with a memo of 2**14 the starts above it are walked by both parts
        stops = brute_stops(16)
        step_cap = max(stops.values()) - 3
        code = (
            "import multiprocessing\n"
            "from collatzbin import harness, verify\n"
            f"multiprocessing.set_start_method({method!r})\n"
            "harness.os.cpu_count = lambda: 2\n"
            "verify._MEMO_BITS = 14\n"
            "assert verify.verify_range(16, workers=2) == verify.verify_range(16)\n"
            "try:\n"
            f"    verify.verify_range(16, workers=2, step_cap={step_cap})\n"
            "except verify.DivergenceError as exc:\n"
            "    print(exc.start)\n"
        )
        proc = run_python(code)
        assert proc.stdout == f"{min(x for x, s in stops.items() if s > step_cap)}\n"

    # each run below patches _fill_block, which a forked child inherits, to
    # fail in part 1 (the child) or part 0 (this process) of a block above
    # 2**16 at ell 20; the run must raise, not wait for ever, and leave no
    # child and no /dev/shm entry behind
    FAILING_RUN = (
        "import multiprocessing, os, signal, time\n"
        "from collatzbin import harness, verify\n"
        "harness.os.cpu_count = lambda: 2\n"
        "shm = set(os.listdir('/dev/shm')) if os.path.isdir('/dev/shm') else None\n"
        "fill_block = verify._fill_block\n"
        "def fill(memo, tree, lo, hi, depth, below, part, *rest):\n"
        "    if lo > 1 << 16:\n"
        "        {fail}\n"
        "    return fill_block(memo, tree, lo, hi, depth, below, part, *rest)\n"
        "verify._fill_block = fill\n"
        "try:\n"
        "    verify.verify_range(20, workers=2)\n"
        "except RuntimeError as exc:\n"
        "    print(exc)\n"
        "assert multiprocessing.active_children() == []\n"
        "assert shm is None or set(os.listdir('/dev/shm')) <= shm\n"
    )

    def test_a_child_that_raises_makes_the_run_raise(self):
        fail = "if part == 1: raise ZeroDivisionError('part 1 fails')"
        proc = run_python(self.FAILING_RUN.format(fail=fail), timeout=30)
        assert proc.stdout == "part 1 of 2 ended with exit code 1\n"
        assert "ZeroDivisionError: part 1 fails" in proc.stderr

    @pytest.mark.parametrize("fail", [
        # the child, in the middle of a block
        "if part == 1: os.kill(os.getpid(), signal.SIGKILL)",
        # the child, once it has sent its part and waits for the next block
        "if part == 0 and multiprocessing.active_children(): "
        "[child] = multiprocessing.active_children(); time.sleep(0.5); "
        "os.kill(child.pid, signal.SIGKILL); child.join()",
    ], ids=["in-a-block", "between-blocks"])
    def test_a_killed_child_makes_the_run_raise(self, fail):
        proc = run_python(self.FAILING_RUN.format(fail=fail), timeout=30)
        assert proc.stdout == "part 1 of 2 ended with exit code -9\n"

    @pytest.mark.skipif(not os.path.isdir("/proc/self"), reason="reads /proc")
    def test_a_child_ends_when_its_parent_is_killed(self):
        # this process is killed in its part 0 of a block, with its child at work
        fail = ("if part == 0: print(multiprocessing.active_children()[0].pid, flush=True); "
                "os.kill(os.getpid(), signal.SIGKILL)")
        proc = subprocess.run([sys.executable, "-c", self.FAILING_RUN.format(fail=fail)],
                              capture_output=True, text=True, timeout=30)
        assert proc.returncode == -signal.SIGKILL
        pid = int(proc.stdout)
        deadline = time.monotonic() + 30
        while True:
            try:
                with open(f"/proc/{pid}/stat") as stat:
                    if stat.read().rsplit(")", 1)[1].split()[0] == "Z":
                        break  # ended, and not yet reaped by its new parent
            except FileNotFoundError:
                break
            assert time.monotonic() < deadline
            time.sleep(0.05)

    def test_the_shared_memo_is_not_imported_with_the_cli(self):
        code = (
            "import sys, collatzbin.cli\n"
            "assert 'multiprocessing.heap' not in sys.modules\n"
            "assert 'concurrent.futures' not in sys.modules and 'logging' not in sys.modules\n"
            "assert 'json' not in sys.modules\n"
            "from collatzbin import harness, verify\n"
            "harness.os.cpu_count = lambda: 2\n"
            "verify.verify_range(12, workers=2)\n"
            "assert 'multiprocessing.heap' in sys.modules\n"
        )
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr

    def test_fill_tables_are_built_on_first_use(self):
        code = (
            "import collatzbin, collatzbin.cli\n"
            "from collatzbin import maps, verify\n"
            "assert maps._jump_table.cache_info().currsize == 0\n"
            "verify.verify_range(14)\n"
            "verify.verify_range(15)\n"
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
