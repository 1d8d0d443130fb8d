"""Tests for the exact-arithmetic layer: normal form, comparison, decimals,
and the plain record class that the package's results derive from."""

import copy
import pickle
import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from collatzbin import (
    AuditSummary,
    Branch,
    CellSummary,
    ExperimentConfig,
    ExperimentSummary,
    Family,
    FamilyProbe,
    HeadTailReport,
    KStarReport,
    MapKind,
    RangeVerification,
    TrajectoryRecord,
    audit_length_deltas,
    family_orbit_probe,
    head_tail_classify,
    kstar_scan,
    run_table,
    run_trajectory,
    verify_range,
)
from collatzbin.exact import (
    GROUND_STATE,
    BinaryFraction,
    compare,
    to_decimal,
    two_adic_valuation,
)

# odd numerators of up to ~60 bits, i.e. arbitrary normal-form digit strings
odd_numerators = st.integers(min_value=0, max_value=2**59).map(lambda m: 2 * m + 1)


def bf(bits: str) -> BinaryFraction:
    return BinaryFraction.from_bits(bits)


class TestBinaryFraction:
    def test_from_bits_examples(self):
        assert bf("1") == BinaryFraction(1, 1)
        y = bf("10111")
        assert (y.numerator, y.length) == (23, 5)
        assert y.value == Fraction(23, 32)
        assert bf("11111").value == Fraction(31, 32)

    def test_ground_state(self):
        assert GROUND_STATE == BinaryFraction(1, 1)
        assert GROUND_STATE.value == Fraction(1, 2)
        assert GROUND_STATE.to_bits() == "1"

    @pytest.mark.parametrize(
        "bits",
        ["", "0", "0110", "0000", "10", "1010", "1x1", "12", " 101", "2"],
    )
    def test_from_bits_rejects_malformed(self, bits):
        with pytest.raises(ValueError):
            bf(bits)

    @pytest.mark.parametrize(
        "num,ell",
        [(0, 0), (4, 3), (6, 3), (5, 4), (5, 2), (-3, 2)],
    )
    def test_constructor_rejects_denormalized(self, num, ell):
        with pytest.raises(ValueError):
            BinaryFraction(num, ell)

    @given(odd_numerators)
    def test_bits_round_trip(self, num):
        y = BinaryFraction(num, num.bit_length())
        assert BinaryFraction.from_bits(y.to_bits()) == y
        assert y.to_bits() == format(num, "b")

    @given(odd_numerators)
    def test_value_lies_in_half_open_unit_interval(self, num):
        v = BinaryFraction(num, num.bit_length()).value
        assert Fraction(1, 2) <= v < 1

    def test_equality_and_hash(self):
        assert bf("101") == BinaryFraction(5, 3)
        assert hash(bf("101")) == hash(BinaryFraction(5, 3))
        assert bf("101") != bf("1011")
        assert bf("101") != 5

    def test_str_and_repr(self):
        assert str(bf("1011")) == "0.1011"
        assert repr(bf("1011")) == "BinaryFraction(11, 4)"


class TestCompare:
    def test_examples_against_two_thirds(self):
        assert compare(bf("1"), Fraction(2, 3)) == -1
        assert compare(bf("11"), Fraction(2, 3)) == 1
        assert compare(bf("10101"), Fraction(2, 3)) == -1
        assert compare(bf("11"), Fraction(3, 4)) == 0

    def test_agrees_with_rational_subtraction_on_random_pairs(self):
        rng = random.Random(20250815)
        for _ in range(10**4):
            num = 2 * rng.randrange(2**62) + 1
            y = BinaryFraction(num, num.bit_length())
            r = Fraction(rng.randrange(0, 2 * 10**6), rng.randrange(1, 10**6))
            diff = y.value - r
            expected = (diff > 0) - (diff < 0)
            assert compare(y, r) == expected

    @given(odd_numerators)
    def test_dyadic_never_equals_a_third_multiple(self, num):
        y = BinaryFraction(num, num.bit_length())
        assert compare(y, Fraction(2, 3)) != 0
        assert compare(y, Fraction(5, 6)) != 0


class TestToDecimal:
    def test_examples(self):
        assert to_decimal(Fraction(17, 32), 6) == "0.531250"
        assert to_decimal(Fraction(2, 3), 4) == "0.6666"
        assert to_decimal(Fraction(1, 3), 3) == "0.333"
        assert to_decimal(Fraction(5, 2), 2) == "2.50"
        assert to_decimal(Fraction(0), 1) == "0.0"

    def test_truncates_instead_of_rounding(self):
        assert to_decimal(Fraction(9999, 10000), 3) == "0.999"
        assert to_decimal(Fraction(1, 7), 6) == "0.142857"

    @given(
        st.fractions(min_value=0, max_value=9, max_denominator=10**9),
        st.integers(min_value=1, max_value=30),
        st.integers(min_value=1, max_value=30),
    )
    def test_longer_renderings_extend_shorter_ones(self, r, d1, d2):
        lo, hi = sorted((d1, d2))
        assert to_decimal(r, hi).startswith(to_decimal(r, lo))

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            to_decimal(Fraction(1, 2), 0)
        with pytest.raises(ValueError):
            to_decimal(Fraction(-1, 2), 3)
        with pytest.raises(ValueError):
            to_decimal(Fraction(10), 3)


class TestTwoAdicValuation:
    def test_examples(self):
        assert two_adic_valuation(1) == 0
        assert two_adic_valuation(40) == 3
        assert two_adic_valuation(64) == 6
        assert two_adic_valuation(34) == 1

    @given(odd_numerators, st.integers(min_value=0, max_value=80))
    def test_reads_off_the_power_of_two(self, odd, k):
        assert two_adic_valuation(odd << k) == k

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            two_adic_valuation(0)
        with pytest.raises(ValueError):
            two_adic_valuation(-8)


# each record built by its constructor and by the library, with the repr the
# dataclass version of the record gave; KStarReport's leaves out its margins
RECORD_REPRS = [
    (lambda: RangeVerification(22, 2097152, 222, 3732423),
     'RangeVerification(ell=22, verified_count=2097152, max_stopping_time=222, worst_start=3732423)'),
    (lambda: verify_range(12),
     'RangeVerification(ell=12, verified_count=2048, max_stopping_time=87, worst_start=3711)'),
    (lambda: CellSummary(50, 500, 10, 13, 463, 20250815, 'splitmix64', 0),
     "CellSummary(length=50, samples=500, runs=10, max_length_delta=13, max_stop_time=463, seed=20250815, rng_id='splitmix64', capped_count=0)"),
    (lambda: ExperimentConfig(),
     'ExperimentConfig(lengths=(50, 100), samples=500, runs=10, master_seed=20250815, step_cap=1000000)'),
    (lambda: ExperimentConfig(lengths=(3,), samples=1, runs=2, master_seed=7, step_cap=150),
     'ExperimentConfig(lengths=(3,), samples=1, runs=2, master_seed=7, step_cap=150)'),
    (lambda: ExperimentSummary(ExperimentConfig((30,), 2, 1)),
     'ExperimentSummary(config=ExperimentConfig(lengths=(30,), samples=2, runs=1, master_seed=20250815, step_cap=1000000), cells=[])'),
    (lambda: run_table(ExperimentConfig((30, 64), 20, 2, step_cap=150)),
     "ExperimentSummary(config=ExperimentConfig(lengths=(30, 64), samples=20, runs=2, master_seed=20250815, step_cap=150), cells=[CellSummary(length=30, samples=20, runs=2, max_length_delta=6, max_stop_time=127, seed=20250815, rng_id='splitmix64', capped_count=0), CellSummary(length=64, samples=20, runs=2, max_length_delta=6, max_stop_time=150, seed=20250815, rng_id='splitmix64', capped_count=15)])"),
    (lambda: HeadTailReport(BinaryFraction(89, 7), 'h3', 't3', Branch.LOW, None, -1, -3),
     "HeadTailReport(y=BinaryFraction(89, 7), head='h3', tail='t3', branch=<Branch.LOW: 'low'>, predicted_min=None, predicted_max=-1, observed_delta=-3)"),
    (lambda: head_tail_classify(BinaryFraction.from_bits('1110011')),
     "HeadTailReport(y=BinaryFraction(115, 7), head='h4', tail='t2', branch=<Branch.HIGH: 'high'>, predicted_min=1, predicted_max=1, observed_delta=1)"),
    (lambda: AuditSummary(16, 1000, 0),
     'AuditSummary(ell=16, samples=1000, seed=0, cell_counts={}, violations=[], violation_count=0)'),
    (lambda: audit_length_deltas(20, 8, seed=3),
     "AuditSummary(ell=8, samples=20, seed=3, cell_counts={('h2', 't2'): 1, ('h3', 't4'): 1, ('h4', 't1'): 2, ('h4', 't3'): 3, ('h2', 't3'): 1, ('h4', 't2'): 4, ('h3', 't1'): 2, ('h2', 't4'): 2, ('h2', 't1'): 1, ('h1', 't4'): 1, ('h1', 't2'): 2}, violations=[], violation_count=0)"),
    (lambda: AuditSummary(6, 2, 1, {('h1', 't1'): 2}, ['100001: delta 9'], 1),
     "AuditSummary(ell=6, samples=2, seed=1, cell_counts={('h1', 't1'): 2}, violations=['100001: delta 9'], violation_count=1)"),
    (lambda: KStarReport(60, 1000, 600),
     'KStarReport(ell=60, k_max=1000, k_star=600)'),
    (lambda: kstar_scan(60, 50, collect_margins=True),
     'KStarReport(ell=60, k_max=50, k_star=None)'),
    (lambda: KStarReport(7, 9, None, [Fraction(1, 3)]),
     'KStarReport(ell=7, k_max=9, k_star=None)'),
    (lambda: FamilyProbe(Family.BETA, 4, 100),
     "FamilyProbe(kind=<Family.BETA: '11'>, k_max=4, step_cap=100, stopping_times={}, unresolved=[])"),
    (lambda: family_orbit_probe(Family.GAMMA, 3),
     "FamilyProbe(kind=<Family.GAMMA: '111'>, k_max=3, step_cap=1000000, stopping_times={1: 12, 2: 34, 3: 58}, unresolved=[])"),
    (lambda: FamilyProbe(Family.ALPHA, 2, 5, {1: 2}, [2]),
     "FamilyProbe(kind=<Family.ALPHA: '1'>, k_max=2, step_cap=5, stopping_times={1: 2}, unresolved=[2])"),
    (lambda: TrajectoryRecord(MapKind.REDUCED, [7, 11, 17], None),
     "TrajectoryRecord(map_kind=<MapKind.REDUCED: 'r'>, states=[7, 11, 17], stopping_time=None)"),
    (lambda: run_trajectory(5, MapKind.COLLATZ),
     "TrajectoryRecord(map_kind=<MapKind.COLLATZ: 'c'>, states=[5, 16, 8, 4, 2, 1], stopping_time=5)"),
    (lambda: run_trajectory(BinaryFraction(11, 4)),
     "TrajectoryRecord(map_kind=<MapKind.BINARY: 'b'>, states=[11, 17, 13, 5, 1], stopping_time=4)"),
]


class TestRecords:
    @pytest.mark.parametrize("build, expected", RECORD_REPRS, ids=[
        f"{i}-{r[: r.index('(')]}" for i, (_, r) in enumerate(RECORD_REPRS)])
    def test_a_record_keeps_its_repr_and_compares_by_its_fields(self, build, expected):
        record = build()
        assert repr(record) == expected
        assert record == build() and not record != build()
        assert pickle.loads(pickle.dumps(record)) == record
        for name in record._fields:
            changed = copy.copy(record)
            setattr(changed, name, "changed")
            assert changed != record and record != changed
        assert record != tuple(getattr(record, name) for name in record._fields)
        with pytest.raises(TypeError):
            hash(record)

    def test_fields_come_in_their_declared_order(self):
        # the CSV columns are CellSummary's fields, in order
        assert CellSummary._fields == ("length", "samples", "runs", "max_length_delta",
                                       "max_stop_time", "seed", "rng_id", "capped_count")
        cell = CellSummary(50, 500, 10, 13, 463, 20250815, "splitmix64", 0)
        assert cell.csv_row() == "50,500,10,13,463,20250815,splitmix64,0"
        assert KStarReport._fields == ("ell", "k_max", "k_star", "margins")
        report = kstar_scan(60, 30, collect_margins=True)
        assert len(report.margins) == 30
        assert "margins" not in repr(report)

    def test_an_empty_container_default_is_built_for_each_record(self):
        first, second = AuditSummary(16, 10, 0), AuditSummary(16, 10, 0)
        first.violations.append("w")
        first.cell_counts[("h1", "t1")] = 1
        assert (second.violations, second.cell_counts) == ([], {})
        assert (AuditSummary.violations, AuditSummary.cell_counts) == ([], {})
        probe = FamilyProbe(Family.ALPHA, 2, 5)
        probe.unresolved.append(2)
        probe.stopping_times[1] = 2
        assert FamilyProbe(Family.ALPHA, 2, 5) == FamilyProbe(Family.ALPHA, 2, 5, {}, [])
        summary = ExperimentSummary(ExperimentConfig())
        summary.cells.append(None)
        assert ExperimentSummary(ExperimentConfig()).cells == []

    def test_a_record_refuses_arguments_its_fields_do_not_take(self):
        for build in (
            lambda: RangeVerification(22, 1, 2),  # one field missing
            lambda: RangeVerification(22, 1, 2, 3, 4),  # one too many
            lambda: RangeVerification(22, 1, 2, 3, ell=22),  # ell twice
            lambda: RangeVerification(22, 1, 2, worst=3),  # no such field
            lambda: KStarReport(60, 1000, critical=None),
        ):
            with pytest.raises(TypeError):
                build()
        assert RangeVerification(worst_start=3, ell=22, max_stopping_time=2,
                                 verified_count=1) == RangeVerification(22, 1, 2, 3)
