"""Tests for the experiment harness: seeding, sampling, cells, CSV, and the
process fan-out that a table and range verification share."""

import hashlib
import multiprocessing
import subprocess
import sys
import tracemalloc
from itertools import islice

import pytest
from hypothesis import given
from hypothesis import strategies as st

from collatzbin.exact import BinaryFraction
from collatzbin.harness import (
    CSV_HEADER,
    MAX_SAMPLE_LENGTH,
    ExperimentConfig,
    RNG_ID,
    derive_seed,
    run_cell,
    run_table,
    sample_fraction,
    sample_numerators,
    write_csv,
)
from collatzbin.harness import _GOLDEN, _MASK64, _mix64
from collatzbin.maps import Branch, binary_step, classify_branch


def scalar_numerator(ell, seed):
    """The sampler's oracle: one splitmix64 word at a time, shifted onto the digits."""
    out = got = 0
    state = seed & _MASK64
    while got < ell - 2:
        state = (state + _GOLDEN) & _MASK64
        out = (out << 64) | _mix64(state)
        got += 64
    return (1 << (ell - 1)) | (out >> (got - (ell - 2))) << 1 | 1


def scalar_numerators(ell, master, run, count):
    return [scalar_numerator(ell, derive_seed(master, run, i)) for i in range(count)]


MASTERS = (0, 2**64 + 5, -3)


class TestSeeding:
    def test_golden_values(self):
        # frozen on first run; guards cross-platform reproducibility
        assert derive_seed(12345, 0, 0) == 291995243589385535
        assert sample_fraction(5, derive_seed(12345, 0, 0)).to_bits() == "11011"

    def test_seeds_are_coordinate_sensitive(self):
        base = derive_seed(1, 0, 0)
        assert derive_seed(1, 0, 1) != base
        assert derive_seed(1, 1, 0) != base
        assert derive_seed(2, 0, 0) != base

    def test_many_distinct_seeds(self):
        seeds = {derive_seed(9, run, idx) for run in range(50) for idx in range(50)}
        assert len(seeds) == 2500


class TestSampleFraction:
    @given(st.integers(min_value=3, max_value=300), st.integers(min_value=0, max_value=2**64 - 1))
    def test_normal_form_at_requested_length(self, ell, seed):
        y = sample_fraction(ell, seed)
        assert y.length == ell
        bits = y.to_bits()
        assert bits[0] == "1" and bits[-1] == "1"

    def test_three_digit_support(self):
        seen = {sample_fraction(3, derive_seed(7, 0, i)).to_bits() for i in range(200)}
        assert seen == {"101", "111"}

    def test_middle_digits_look_fair(self):
        ones = [0] * 8
        trials = 2000
        for i in range(trials):
            bits = sample_fraction(10, derive_seed(3, 0, i)).to_bits()
            for pos in range(8):
                ones[pos] += bits[1 + pos] == "1"
        for count in ones:
            assert 800 < count < 1200

    def test_rejects_short_lengths(self):
        with pytest.raises(ValueError):
            sample_fraction(2, 0)
        with pytest.raises(ValueError):
            list(sample_numerators(2, 0, 0, 1))

    def test_lengths_are_bounded(self):
        # a length in the billions asked for gigabytes before any check
        too_long = MAX_SAMPLE_LENGTH + 1
        with pytest.raises(ValueError, match="MAX_SAMPLE_LENGTH"):
            sample_fraction(too_long, 0)
        with pytest.raises(ValueError, match="MAX_SAMPLE_LENGTH"):
            list(sample_numerators(too_long, 0, 0, 1))
        with pytest.raises(ValueError, match="MAX_SAMPLE_LENGTH"):
            ExperimentConfig(lengths=(50, too_long))
        assert ExperimentConfig(lengths=(MAX_SAMPLE_LENGTH,)).lengths == (MAX_SAMPLE_LENGTH,)
        assert sample_fraction(MAX_SAMPLE_LENGTH, 0).length == MAX_SAMPLE_LENGTH


class TestSampleNumerators:
    # 65..67 and 130 put the digits drawn past a 64-bit draw on both sides
    # of a draw boundary
    @pytest.mark.parametrize("ell", [3, 6, 65, 66, 67, 130])
    def test_match_the_per_sample_route(self, ell):
        for master, run in ((0, 0), (12345, 3), (2**64 + 9, 7)):
            expected = [
                sample_fraction(ell, derive_seed(master, run, i)).numerator for i in range(60)
            ]
            assert list(sample_numerators(ell, master, run, 60)) == expected

    def test_zero_count_yields_nothing(self):
        assert list(sample_numerators(16, 1, 0, 0)) == []

    def test_rejects_a_negative_count(self):
        with pytest.raises(ValueError, match="count >= 0"):
            list(sample_numerators(16, 0, 0, -5))

    # sha256 of each numerator's (ell + 7) // 8 little-endian bytes, first 16
    # hex digits; frozen from the sampler, so they check its output apart from
    # both the packed route and the scalar oracle.  129 and 257 have
    # ell - 1 == 128h, where a sample's top pin lies one bit past its lanes.
    @pytest.mark.parametrize(
        "ell, digest",
        [
            (3, "851af8a191a9a2d9"),
            (16, "c0ca779542b8abf3"),
            (64, "f9b53a63de2e5abd"),
            (65, "4cfd82870b32d2b4"),
            (128, "13e781a6b7a84817"),
            (129, "dfe61d14900cf6da"),
            (256, "3f70e80dc123bb47"),
            (257, "ab4d12b83bba3778"),
        ],
    )
    def test_golden_digests(self, ell, digest):
        h = hashlib.sha256()
        for n in sample_numerators(ell, 20250815, 3, 2500):
            h.update(n.to_bytes((ell + 7) // 8, "little"))
        assert h.hexdigest()[:16] == digest

    @pytest.mark.parametrize("master", MASTERS)
    def test_match_the_scalar_route_at_every_length(self, master):
        for ell in [*range(3, 201), 1024]:
            for count in (0, 1, 5):
                got = list(sample_numerators(ell, master, 2, count))
                assert got == scalar_numerators(ell, master, 2, count), (ell, count)
            y = sample_fraction(ell, derive_seed(master, 4, 9))
            assert y.numerator == scalar_numerator(ell, derive_seed(master, 4, 9)), ell

    @pytest.mark.parametrize("master", MASTERS)
    def test_match_the_scalar_route_at_the_longest_length(self, master):
        want = scalar_numerators(MAX_SAMPLE_LENGTH, master, 1, 1)
        assert list(sample_numerators(MAX_SAMPLE_LENGTH, master, 1, 1)) == want
        assert sample_fraction(MAX_SAMPLE_LENGTH, derive_seed(master, 1, 0)).numerator == want[0]

    @given(st.integers(min_value=3, max_value=700), st.integers(-(2**70), 2**70))
    def test_a_single_sample_matches_the_scalar_route(self, ell, seed):
        assert sample_fraction(ell, seed).numerator == scalar_numerator(ell, seed)

    # 1 to 5 lanes a sample; a sample of 5 lanes alone outgrows the cap of 4
    @pytest.mark.parametrize("ell", [3, 66, 67, 129, 130, 200, 257, 258, 386, 600])
    @pytest.mark.parametrize("master", MASTERS)
    def test_every_chunk_boundary_matches_the_scalar_route(self, monkeypatch, ell, master):
        from collatzbin import harness

        monkeypatch.setattr(harness, "_LANES", 4)
        cap = max(1, 4 // ((ell + 126) // 128))  # samples a chunk holds
        for count in sorted({0, 1, cap - 1, cap, cap + 1, 2 * cap + 1}):
            got = list(sample_numerators(ell, master, 3, count))
            assert got == scalar_numerators(ell, master, 3, count), count


def _peak_bytes(fn):
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_the_sampler_runs_in_bounded_memory():
    # a billion samples are drawn a chunk at a time, not all at once
    assert _peak_bytes(lambda: list(islice(sample_numerators(16, 0, 0, 10**9), 5000))) < 2**20
    # the longest sample, 128 KiB of digits
    assert _peak_bytes(lambda: list(sample_numerators(MAX_SAMPLE_LENGTH, 0, 0, 1))) < 4 * 2**20


class TestRunCell:
    def test_three_digit_cell_is_effectively_exhaustive(self):
        # with both candidates certainly sampled, the cell maxima must
        # equal the worst case over {0.101, 0.111}, computed directly
        cell = run_cell(3, 64, 2, master_seed=7)
        worst_delta = 0
        worst_stop = 0
        for bits in ("101", "111"):
            y = BinaryFraction.from_bits(bits)
            steps = 0
            max_len = y.length
            while y.length != 1 or y.numerator != 1:
                y = binary_step(y)
                steps += 1
                max_len = max(max_len, y.length)
            worst_delta = max(worst_delta, max_len - 3)
            worst_stop = max(worst_stop, steps)
        assert cell.max_length_delta == worst_delta == 2
        assert cell.max_stop_time == worst_stop == 5
        assert cell.capped_count == 0

    def test_deterministic_and_worker_invariant(self):
        a = run_cell(12, 30, 2, master_seed=99)
        b = run_cell(12, 30, 2, master_seed=99)
        c = run_cell(12, 30, 2, master_seed=99, workers=2)
        assert a == b == c

    def test_rejects_worker_counts_below_one(self):
        for workers in (0, -3):
            with pytest.raises(ValueError):
                run_cell(12, 30, 2, master_seed=99, workers=workers)

    def test_capped_orbits_are_counted_not_folded_in(self):
        capped = run_cell(40, 10, 1, master_seed=5, step_cap=10)
        assert capped.capped_count > 0
        full = run_cell(40, 10, 1, master_seed=5)
        assert full.capped_count == 0
        assert full.max_stop_time > capped.max_stop_time

    def test_per_step_growth_is_bounded_and_attributed(self):
        for i in range(100):
            y = sample_fraction(20, derive_seed(11, 0, i))
            while y.length != 1 or y.numerator != 1:
                branch = classify_branch(y)
                stepped = binary_step(y)
                delta = stepped.length - y.length
                assert delta <= 2
                if delta == 2:
                    assert branch is Branch.HIGH
                y = stepped

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            run_cell(2, 5, 1, 0)
        with pytest.raises(ValueError):
            run_cell(8, 0, 1, 0)


class TestTable:
    def test_config_defaults_and_validation(self):
        cfg = ExperimentConfig()
        assert cfg.lengths == (50, 100)
        assert (cfg.samples, cfg.runs, cfg.master_seed) == (500, 10, 20250815)
        with pytest.raises(ValueError):
            ExperimentConfig(lengths=())
        with pytest.raises(ValueError):
            ExperimentConfig(lengths=(2,))
        with pytest.raises(ValueError):
            ExperimentConfig(runs=0)

    def test_small_table_csv_golden(self):
        cfg = ExperimentConfig(lengths=(8, 12), samples=50, runs=2)
        csv_text = run_table(cfg).to_csv()
        assert csv_text.splitlines()[0] == CSV_HEADER
        assert csv_text == (
            "length,samples,runs,max_length_delta,max_stop_time,seed,rng_id,capped_count\n"
            "8,50,2,4,46,20250815,splitmix64,0\n"
            "12,50,2,5,65,20250815,splitmix64,0\n"
        )

    def test_csv_file_uses_lf_and_reruns_identically(self, tmp_path):
        cfg = ExperimentConfig(lengths=(6, 9), samples=20, runs=2, master_seed=4)
        first = tmp_path / "a.csv"
        second = tmp_path / "b.csv"
        write_csv(run_table(cfg), str(first))
        write_csv(run_table(cfg), str(second))
        data = first.read_bytes()
        assert data == second.read_bytes()
        assert b"\r" not in data
        assert data.decode("utf-8").startswith(CSV_HEADER)
        assert str(4) in data.decode("utf-8")
        assert RNG_ID in data.decode("utf-8")


def counted_parts(monkeypatch):
    """``harness.Parts``, counted: each one's part count, and each map's job count, in order."""
    from collatzbin import harness, verify

    parts, mapped = [], []

    class CountedParts(harness.Parts):
        def __init__(self, fn, n):
            super().__init__(fn, n)
            parts.append(n)

        def map(self, jobs):
            mapped.append(len(jobs))
            return super().map(jobs)

    monkeypatch.setattr(harness, "Parts", CountedParts)
    monkeypatch.setattr(verify, "Parts", CountedParts)
    return parts, mapped


def test_worker_counts_are_clamped_to_the_cpu_count(monkeypatch, started):
    # a table and verify each run in n = min(workers, cpus) parts: this
    # process and n - 1 children; a table's n is clamped to its pairs too
    from collatzbin import harness, verify

    serial_cell = run_cell(12, 30, 5, master_seed=99)
    serial_range = verify.verify_range(12)
    parts, _ = counted_parts(monkeypatch)
    monkeypatch.setattr(harness.os, "cpu_count", lambda: 3)
    assert run_cell(12, 30, 5, master_seed=99, workers=1000) == serial_cell
    assert run_cell(12, 30, 2, master_seed=99, workers=1000).runs == 2
    assert (parts, len(started)) == ([3, 2], 3)
    assert verify.verify_range(12, workers=10**6) == serial_range
    assert (parts, len(started)) == ([3, 2, 3], 5)
    monkeypatch.setattr(harness.os, "cpu_count", lambda: None)
    assert verify.verify_range(12, workers=64) == serial_range
    assert (parts, len(started)) == ([3, 2, 3, 1], 5)


def test_a_table_starts_one_pool_for_all_its_lengths(monkeypatch, started):
    from collatzbin import harness, verify

    parts, mapped = counted_parts(monkeypatch)
    monkeypatch.setattr(harness.os, "cpu_count", lambda: 2)
    # one job per worker, however many (length, run) pairs there are
    for cfg in (
        ExperimentConfig(lengths=(8, 12), samples=50, runs=2),
        ExperimentConfig(lengths=(8, 12), samples=1, runs=1000),
    ):
        serial = run_table(cfg)
        for record in (parts, mapped, started):
            record.clear()
        assert run_table(cfg, workers=2) == serial
        assert (parts, mapped, len(started)) == ([2], [2], 1)
        assert multiprocessing.active_children() == []
    # and verify starts one child for all its blocks, and fills each block in two parts
    serial_range = verify.verify_range(16)
    for record in (parts, mapped, started):
        record.clear()
    assert verify.verify_range(16, workers=2) == serial_range
    assert (parts, len(started)) == ([2], 1)
    assert len(mapped) > 1
    assert set(mapped) == {2}


@pytest.mark.parametrize("cpus", [2, 3])
@pytest.mark.parametrize(
    "cfg",
    [
        # 9 pairs: two workers split the second run
        ExperimentConfig(lengths=(8, 12, 16), samples=20, runs=3),
        # one run: each slice holds a single length
        ExperimentConfig(lengths=(8, 12), samples=20, runs=1),
        # capped counts sum across slices
        ExperimentConfig(lengths=(40,), samples=10, runs=2, step_cap=10),
    ],
    ids=["mid-run", "one-length-a-slice", "capped"],
)
def test_uneven_slices_merge_to_the_serial_table(thread_parts, cfg, cpus):
    serial = run_table(cfg)
    threads = thread_parts(cpus)
    assert run_table(cfg, workers=cpus) == serial
    assert threads.mapped == [min(cpus, cfg.runs * len(cfg.lengths))]
    if cfg.step_cap == 10:
        assert serial.cells[0].capped_count > 0


# patches _run_slice, which a forked child inherits, to fail in the child's
# slice of a two-worker table; what runs next must end at once, not wait for
# ever, and leave no child behind
FAILING_SLICE = (
    "import multiprocessing, os, signal\n"
    "from collatzbin import cli, harness\n"
    "harness.os.cpu_count = lambda: 2\n"
    "run_slice = harness._run_slice\n"
    "def run(pairs, config):\n"
    "    if pairs.start:\n"
    "        {fail}\n"
    "    return run_slice(pairs, config)\n"
    "harness._run_slice = run\n"
)
TABLE_RUN = (
    "try:\n"
    "    harness.run_table(harness.ExperimentConfig(), workers=2)\n"
    "except RuntimeError as exc:\n"
    "    print(exc)\n"
    "assert multiprocessing.active_children() == []\n"
)
RAISE = "raise ZeroDivisionError('part 1 fails')"
KILL = "os.kill(os.getpid(), signal.SIGKILL)"


def run_code(code: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=30)


def test_a_child_that_raises_makes_the_table_raise():
    proc = run_code(FAILING_SLICE.format(fail=RAISE) + TABLE_RUN)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "part 1 of 2 ended with exit code 1\n"
    assert "ZeroDivisionError: part 1 fails" in proc.stderr


def test_a_killed_child_makes_the_table_raise():
    proc = run_code(FAILING_SLICE.format(fail=KILL) + TABLE_RUN)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "part 1 of 2 ended with exit code -9\n"


def test_a_killed_child_ends_table1_with_exit_code_4():
    # one stderr line, and the code for a run that failed, not for a counterexample
    proc = run_code(FAILING_SLICE.format(fail=KILL) + (
        "code = cli.main(['table1', '--workers', '2'])\n"
        "assert multiprocessing.active_children() == []\n"
        "raise SystemExit(code)\n"
    ))
    assert (proc.returncode, proc.stdout) == (4, "")
    assert proc.stderr == "error: part 1 of 2 ended with exit code -9\n"


def test_a_serial_tables_memory_does_not_grow_with_its_runs():
    cfg = ExperimentConfig(lengths=(3,), samples=1, runs=10_000)
    tracemalloc.start()
    try:
        cell = run_table(cfg).cells[0]
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert (cell.max_length_delta, cell.max_stop_time, cell.capped_count) == (2, 5, 0)
    # a job and a result per run would take about 2.1 MiB here
    assert peak < 2**20
