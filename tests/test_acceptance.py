"""Acceptance gate: one test per release criterion, at stated tolerances.

Each test prints a single criterion line on success; a failed assert leaves
the criterion marked FAILED by the runner instead.  Stochastic criteria use
the fixed default seed and band acceptance; everything else is exact.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines inline.
"""

import random
import time
from fractions import Fraction

from collatzbin.analysis import (
    MapKind,
    audit_length_deltas,
    epsilon_bound,
    family_orbit_probe,
    kstar_scan,
    run_trajectory,
)
from collatzbin.cli import main
from collatzbin.exact import GROUND_STATE, to_decimal
from collatzbin.harness import ExperimentConfig, run_table
from collatzbin.maps import (
    Branch,
    Family,
    binary_step,
    circle_iterate,
    circle_step,
    classify_branch,
    critical_point,
    embed,
    family_member,
    is_predecessor,
    reduced_step,
)
from collatzbin.raster import parse_pbm
from collatzbin.verify import verify_range

PI_DIGITS_START = 31415926535897932384626433832795028800


def _report(num: int, detail: str) -> None:
    print(f"[criterion {num:02d}] PASS {detail}")


def test_criterion_01_exclusion_horizon(capsys):
    t0 = time.perf_counter()
    code = main(["kstar", "--ell", "60"])
    out = capsys.readouterr().out
    assert code == 0
    assert "k* = 600" in out
    assert "c = 0.507858" in out
    assert "eps = 0.013460" in out

    report = kstar_scan(60, 1000, collect_margins=True)
    assert report.k_star == 600
    half = Fraction(1, 2)
    for k, margin in enumerate(report.margins[:-1], start=1):
        assert margin >= 0, f"horizon {k} not excluded"
    assert half + report.epsilon > report.critical
    assert to_decimal(report.epsilon, 4) == "0.0134"
    elapsed = time.perf_counter() - t0
    assert elapsed < 10
    with capsys.disabled():
        _report(1, f"k* = 600, c = 0.507858, eps = 0.013460, {elapsed:.2f}s")


def test_criterion_02_critical_point_spot_checks(capsys):
    assert critical_point(1) == Fraction(2, 3)
    assert to_decimal(critical_point(42), 6) == "0.674352"
    with capsys.disabled():
        _report(2, "c_1 = 2/3 exactly, c_42 = 0.674352")


def test_criterion_03_orbit_of_31(capsys):
    record = run_trajectory(31)
    assert record.stopping_time == 39
    assert record.max_length == 12
    assert record.lengths.count(12) == 3
    with capsys.disabled():
        _report(3, "orbit of 31: 39 steps, max length 12 attained 3 times")


def test_criterion_04_showcase_orbits(capsys):
    t0 = time.perf_counter()
    record = run_trajectory(63728127)
    assert record.iterates[0].length == 26
    assert record.hailstone.numerator == 322205345153
    assert record.hailstone.length == 39
    assert record.stopping_time == 357

    big = run_trajectory(PI_DIGITS_START)
    assert big.iterates[0].length == 119
    assert big.stopping_time == 255

    classic = run_trajectory(PI_DIGITS_START, MapKind.COLLATZ)
    halvings = sum(1 for v in classic.iterates[:-1] if v % 2 == 0)
    odd_steps = classic.stopping_time - halvings
    assert halvings == 529
    assert odd_steps == 255
    # the headline hailstone: an odd classic-map iterate of 116 bits whose
    # decimal expansion has 35 digits
    witness = classic.iterates[12]
    assert witness % 2 == 1
    assert witness.bit_length() == 116
    assert len(str(witness)) == 35
    elapsed = time.perf_counter() - t0
    assert elapsed < 1
    with capsys.disabled():
        _report(4, f"63728127 -> 322205345153 (39 bits); 38-digit start: length 119, "
                   f"255 binary steps, 529 halvings, 116-bit/35-digit hailstone, {elapsed:.2f}s")


def test_criterion_05_oracle_equivalence(capsys):
    t0 = time.perf_counter()
    for x in range(1, 1 << 20, 2):
        assert binary_step(embed(x)) == embed(reduced_step(x))
    for x in range(1, 1 << 16, 2):
        y = embed(x)
        b_steps = 0
        while y != GROUND_STATE:
            y = binary_step(y)
            b_steps += 1
        v = x
        r_steps = 0
        while v != 1:
            v = reduced_step(v)
            r_steps += 1
        assert b_steps == r_steps
    elapsed = time.perf_counter() - t0
    assert elapsed < 60
    with capsys.disabled():
        _report(5, f"conjugacy on all odd x < 2^20, stopping equality below 2^16, {elapsed:.1f}s")


def test_criterion_06_head_tail_audit(capsys):
    t0 = time.perf_counter()
    for ell in (16, 64, 256):
        summary = audit_length_deltas(10**5, ell, seed=0)
        assert summary.ok, summary.violations[:3]
        assert sum(summary.cell_counts.values()) == 10**5
    elapsed = time.perf_counter() - t0
    assert elapsed < 60
    with capsys.disabled():
        _report(6, f"3 x 10^5 samples at ell in {{16, 64, 256}}: zero violations, {elapsed:.1f}s")


def test_criterion_07_error_bound_base_case(capsys):
    assert epsilon_bound(1, 6) == Fraction(1, 2**7)
    rng = random.Random(20250815)
    checked = 0
    while checked < 10**4:
        ell = rng.randint(6, 64)
        num = (1 << (ell - 1)) | (rng.getrandbits(ell - 2) << 1) | 1
        y = embed(num)
        if is_predecessor(y):
            continue
        diff = binary_step(y).value - circle_step(y.value)
        assert 0 <= diff <= epsilon_bound(1, ell)
        arm = 1 if classify_branch(y) is Branch.LOW else 2
        assert diff == Fraction(1, 1 << (ell + arm))
        checked += 1
    with capsys.disabled():
        _report(7, "eps_1(6) = 2^-7; one-step gap in [0, eps_1] on 10^4 samples")


def test_criterion_08_family_identities(capsys):
    t0 = time.perf_counter()
    for k in range(1, 101):
        alpha_image = binary_step(family_member(Family.ALPHA, k))
        beta_image = binary_step(family_member(Family.BETA, k))
        assert alpha_image.to_bits() == "1" + "01" * (3 * k)
        assert beta_image.to_bits() == "1" + "01" * (3 * k + 1)
        assert binary_step(alpha_image) == GROUND_STATE
        assert binary_step(beta_image) == GROUND_STATE
    probe = family_orbit_probe(Family.GAMMA, 50)
    assert probe.ok
    assert len(probe.stopping_times) == 50
    elapsed = time.perf_counter() - t0
    assert elapsed < 10
    with capsys.disabled():
        _report(8, f"alpha/beta land on ground predecessors for k <= 100, "
                   f"gamma grounds for k <= 50, {elapsed:.2f}s")


def test_criterion_09_experiment_table_bands(capsys):
    t0 = time.perf_counter()
    summary = run_table(ExperimentConfig())
    bands = {50: (200, 500), 100: (300, 650)}
    for cell in summary.cells:
        assert cell.capped_count == 0
        assert 9 <= cell.max_length_delta <= 16
        lo, hi = bands[cell.length]
        assert lo <= cell.max_stop_time <= hi
    elapsed = time.perf_counter() - t0
    assert elapsed < 120
    cells = ", ".join(
        f"ell={c.length}: +{c.max_length_delta}/{c.max_stop_time}" for c in summary.cells
    )
    with capsys.disabled():
        _report(9, f"table bands hold ({cells}), {elapsed:.1f}s")


def test_criterion_10_range_verification(capsys):
    t0 = time.perf_counter()
    serial = verify_range(20, workers=1)
    parallel = verify_range(20, workers=4)
    assert serial == parallel
    assert serial.verified_count == 1 << 19
    assert serial.max_stopping_time == 195
    assert serial.worst_start == 837799
    elapsed = time.perf_counter() - t0
    assert elapsed < 60
    with capsys.disabled():
        _report(10, f"all odd x < 2^20 converge; 1 and 4 workers agree "
                    f"(max 195 at 837799), {elapsed:.1f}s")


def test_criterion_11_circle_map_properties(capsys):
    assert circle_step(Fraction(2, 3)) == Fraction(1, 2)
    rng = random.Random(600)
    for _ in range(10**3):
        q = rng.randint(2, 10**6)
        p = rng.randint((q + 1) // 2, q - 1) if q > 2 else 1
        y = Fraction(p, q)
        z = y
        for k in range(1, 65):
            z = circle_step(z)
            assert circle_iterate(y, k) == z
            assert z != y
    with capsys.disabled():
        _report(11, "closed-form iterates match composition, no periodic point in sweep")


def test_criterion_12_determinism(capsys, tmp_path):
    first = tmp_path / "a.csv"
    second = tmp_path / "b.csv"
    argv = ["table1", "--lengths", "10,14", "--samples", "40", "--runs", "3"]
    assert main(argv + ["--out", str(first)]) == 0
    assert main(argv + ["--out", str(second)]) == 0
    capsys.readouterr()
    assert first.read_bytes() == second.read_bytes()

    pbm = tmp_path / "orbit.pbm"
    assert main(["raster", "--start", str(PI_DIGITS_START), "--out", str(pbm)]) == 0
    capsys.readouterr()
    rows = parse_pbm(pbm.read_text())
    record = run_trajectory(PI_DIGITS_START)
    assert rows == [y.to_bits() for y in record.iterates]
    assert len(rows) == 256
    assert max(len(r) for r in rows) == 119
    with capsys.disabled():
        _report(12, "byte-identical CSV on rerun; 119x256 raster round-trips")


def test_all_criteria_present():
    names = [name for name in globals() if name.startswith("test_criterion_")]
    assert len(names) == 12
