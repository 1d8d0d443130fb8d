"""End-to-end tests of the command-line interface and its exit codes."""

import argparse
import json
import subprocess
import sys
from pathlib import Path

import pytest

from collatzbin.cli import main
from collatzbin.raster import parse_pbm


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def summary_value(out: str, key: str) -> str:
    for line in out.splitlines():
        if line.startswith(f"# {key}="):
            return line.split("=", 1)[1]
    raise AssertionError(f"summary key {key} not found")


class TestTrajectory:
    def test_binary_csv(self, capsys):
        code, out, _ = run_cli(capsys, "trajectory", "--start", "31", "--map", "b")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "step,value,bits,length"
        assert lines[1] == "0,31,11111,5"
        assert summary_value(out, "stopping_time") == "39"
        assert summary_value(out, "max_length") == "12"
        assert summary_value(out, "hailstone_index") == "26"

    def test_ground_start_shows_the_classic_cycle(self, capsys):
        code, out, _ = run_cli(
            capsys, "trajectory", "--start", "1", "--map", "c", "--max-steps", "4"
        )
        assert code == 0
        rows = [line for line in out.splitlines()[1:] if not line.startswith("#")]
        assert [row.split(",")[1] for row in rows] == ["1", "4", "2", "1"]
        assert summary_value(out, "stopping_time") == "0"

    def test_collatz_step_accounting(self, capsys):
        code, out, _ = run_cli(capsys, "trajectory", "--start", "27", "--map", "c")
        assert code == 0
        total = int(summary_value(out, "stopping_time"))
        odd = int(summary_value(out, "odd_steps"))
        halving = int(summary_value(out, "halving_steps"))
        assert (total, odd, halving) == (111, 41, 70)
        assert odd + halving == total

    def test_reduced_json(self, capsys):
        code, out, _ = run_cli(
            capsys, "trajectory", "--start", "11", "--map", "r", "--format", "json"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["map"] == "r"
        assert payload["stopping_time"] == 4
        assert [s["value"] for s in payload["steps"]] == [11, 17, 13, 5, 1]
        assert payload["steps"][1]["bits"] == "10001"

    def test_binary_and_reduced_maps_print_the_same_rows(self, capsys):
        # the interval map is the reduced map on numerators, and an odd start
        # embeds with itself as numerator
        for start in range(1, 200, 2):
            code_b, out_b, _ = run_cli(capsys, "trajectory", "--start", str(start))
            code_r, out_r, _ = run_cli(capsys, "trajectory", "--start", str(start),
                                       "--map", "r")
            assert code_b == code_r == 0
            assert out_b == out_r

    def test_digit_string_start(self, capsys):
        code, out, _ = run_cli(capsys, "trajectory", "--start", "bits:1011")
        assert code == 0
        assert summary_value(out, "stopping_time") == "4"

    def test_capped_orbit_reports_missing_stopping_time(self, capsys):
        code, out, _ = run_cli(
            capsys, "trajectory", "--start", "27", "--max-steps", "5"
        )
        assert code == 0
        assert summary_value(out, "stopping_time") == "none"

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_no_partial_listing(self, capsys, tmp_path, fmt):
        # a 14301-bit ground-state predecessor: its first value has 4305
        # decimal digits, past Python's integer string conversion limit
        start = "bits:1" + "01" * 7150
        code, out, err = run_cli(capsys, "trajectory", "--start", start, "--format", fmt)
        assert code == 2
        assert out == ""
        assert "usage error" in err
        code, out, _ = run_cli(capsys, "raster", "--start", start,
                               "--out", str(tmp_path / "pred.pbm"))
        assert code == 0
        assert out.startswith("wrote 14301x2 raster")

    def test_a_start_past_the_digit_limit_gets_a_short_message(self, capsys):
        start = "7" * 5000
        code, out, err = run_cli(capsys, "trajectory", "--start", start)
        assert code == 2
        assert out == ""
        assert "limit of 4300 digits" in err and "bits:" in err
        assert len(err) < 200

    @pytest.mark.parametrize(
        "argv",
        [
            ("trajectory", "--start", "xyz"),
            ("trajectory", "--start", "10", "--map", "r"),
            ("trajectory", "--start", "bits:1011", "--map", "c"),
            ("trajectory", "--start", "bits:0101"),
            ("trajectory", "--start", "0", "--map", "c"),
        ],
    )
    def test_usage_errors(self, capsys, argv):
        code, _, err = run_cli(capsys, *argv)
        assert code == 2
        assert "usage error" in err


class TestRaster:
    def test_writes_a_parsable_image(self, capsys, tmp_path):
        out_path = tmp_path / "orbit.pbm"
        code, out, _ = run_cli(
            capsys, "raster", "--start", "63728127", "--out", str(out_path)
        )
        assert code == 0
        assert "wrote 39x358 raster" in out
        rows = parse_pbm(out_path.read_text())
        assert len(rows) == 358
        assert rows[0] == format(63728127, "b")
        assert rows[-1] == "1"
        code, out, _ = run_cli(
            capsys, "raster", "--start", "27", "--max-steps", "5", "--out", str(out_path)
        )
        assert code == 0
        assert out == (f"wrote 7x6 raster to {out_path}\n"
                       "note: orbit capped after 5 steps\n")

    def test_huge_start_is_refused_before_any_output(self, capsys, tmp_path):
        # 2**2000 - 1 would store about 31M cells, past the 2**24 bound
        start = "bits:" + "1" * 2000
        out_path = tmp_path / "huge.pbm"
        code, out, err = run_cli(capsys, "raster", "--start", start, "--out", str(out_path))
        assert (code, out) == (2, "")
        assert "16777216 cells" in err
        assert not out_path.exists()
        code, out, err = run_cli(capsys, "trajectory", "--start", start)
        assert (code, out) == (2, "")
        assert "16777216 cells" in err

    def test_unwritable_path_is_an_io_error(self, capsys, tmp_path):
        code, _, err = run_cli(
            capsys, "raster", "--start", "5", "--out", str(tmp_path / "no" / "x.pbm")
        )
        assert code == 3
        assert "i/o error" in err


class TestScansAndAudits:
    def test_kstar_small_length(self, capsys):
        code, out, _ = run_cli(capsys, "kstar", "--ell", "4")
        assert code == 0
        assert "k* = 5" in out
        assert "exact margin check for k < 5: pass" in out

    def test_kstar_margin_check_fails_on_a_wrong_k_star(self, capsys, monkeypatch):
        from collatzbin import cli

        true_scan = cli.kstar_scan
        for ell, k_star in ((4, 5), (500, 5773)):
            for shift, witness in ((1, f"k = {k_star} already has a negative margin"),
                                   (-1, f"k = {k_star - 1} has a nonnegative margin")):
                def shifted_scan(ell, k_max, shift=shift):
                    report = true_scan(ell, k_max)
                    report.k_star += shift
                    return report

                monkeypatch.setattr(cli, "kstar_scan", shifted_scan)
                code, out, err = run_cli(capsys, "kstar", "--ell", str(ell), "--k-max", "10000")
                assert code == 1
                assert f"exact margin check for k < {k_star + shift}: FAIL" in out
                assert witness in err

    @pytest.mark.parametrize("ell", [1, 6, 60, 500])
    def test_kstar_check_signs_match_the_fraction_margins(self, ell):
        from test_analysis import fraction_margin

        from collatzbin.cli import _margin_numerator

        for k in range(1, 2001):
            numerator, margin = _margin_numerator(k, ell, 3**k), fraction_margin(k, ell)
            assert (numerator > 0) - (numerator < 0) == (margin > 0) - (margin < 0), (ell, k)

    def test_kstar_refuses_a_huge_power_in_bounded_memory(self):
        # the descent reaches k* near 1.2 * 10**11 at once; its window's
        # 3**k would take about 25 GiB, so the scan refuses it first
        code = (
            "import resource, sys\n"
            "resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))\n"
            "from collatzbin.cli import main\n"
            "sys.exit(main(['kstar', '--ell', str(10**10), '--k-max', str(10**12)]))\n"
        )
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              timeout=120)
        assert proc.returncode == 2, proc.stderr
        assert proc.stdout == ""
        assert proc.stderr.startswith("usage error: kstar_scan would form 3**k up to k = ")

    def test_kstar_at_k_one_checks_only_k_one(self, capsys):
        code, out, _ = run_cli(capsys, "kstar", "--ell", "1")
        assert code == 0
        assert "k* = 1" in out
        assert "exact margin check for k < 1: pass" in out

    def test_kstar_without_reversal(self, capsys):
        code, out, _ = run_cli(capsys, "kstar", "--ell", "60", "--k-max", "50")
        assert code == 0
        assert "every horizon excluded" in out

    @pytest.mark.parametrize("argv, expected", [
        (("--ell", "60"),
         "ell = 60\nk* = 600\nc = 0.507858\neps = 0.013460\n"
         "exact margin check for k < 600: pass\n"),
        (("--ell", "60", "--k-max", "50"),
         "ell = 60\nno reversal up to k = 50: every horizon excluded\n"),
        (("--ell", "500", "--k-max", "10000"),
         "ell = 500\nk* = 5773\nc = 0.503995\neps = 0.009688\n"
         "exact margin check for k < 5773: pass\n"),
        (("--ell", "5000", "--k-max", "100000"),
         "ell = 5000\nk* = 58720\nc = 0.500678\neps = 0.003413\n"
         "exact margin check for k < 58720: pass\n"),
    ])
    def test_kstar_keeps_its_exact_output(self, capsys, argv, expected):
        assert run_cli(capsys, "kstar", *argv) == (0, expected, "")

    def test_verify(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--ell", "10")
        assert code == 0
        assert "verified 512 odd starts below 2^10" in out
        assert "max stopping time 65 at start 871" in out

    @pytest.mark.parametrize("workers", ["0", "-3"])
    def test_worker_counts_below_one_are_usage_errors(self, capsys, workers):
        code, _, err = run_cli(capsys, "verify", "--ell", "10", "--workers", workers)
        assert code == 2
        assert "workers must be >= 1" in err
        code, _, err = run_cli(capsys, "table1", "--lengths", "8", "--samples", "5",
                               "--runs", "1", "--workers", workers)
        assert code == 2
        assert "workers must be >= 1" in err

    def test_verify_counterexample_exits_one(self, capsys):
        code, _, err = run_cli(capsys, "verify", "--ell", "5", "--step-cap", "5")
        assert code == 1
        assert "counterexample: orbit of 9 exceeded the step cap of 5" in err

    def test_audit(self, capsys):
        code, out, _ = run_cli(
            capsys, "audit", "--ell", "16,20", "--samples", "2000", "--seed", "5"
        )
        assert code == 0
        assert "ell=16: 2000 samples, 0 violations" in out
        assert "ell=20: 2000 samples, 0 violations" in out

    @pytest.mark.parametrize("lengths", ["16,5", "5,16"])
    def test_audit_checks_every_length_before_any_work(self, capsys, lengths):
        code, out, err = run_cli(capsys, "audit", "--ell", lengths, "--samples", "2000")
        assert code == 2
        assert out == ""
        assert "audit needs ell >= 6" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ("audit", "--ell", "16,1000000000000", "--samples", "1"),
            ("table1", "--lengths", "50,1000000000000", "--samples", "1", "--runs", "1"),
        ],
    )
    def test_a_huge_length_is_refused_before_any_output(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert out == ""
        assert "MAX_SAMPLE_LENGTH" in err

    def test_families_alpha(self, capsys):
        code, out, _ = run_cli(capsys, "families", "--kind", "alpha", "--k-max", "50")
        assert code == 0
        assert "all 50 members stop in exactly 2 steps" in out

    def test_families_alpha_violations_exit_one(self, capsys, monkeypatch):
        from collatzbin import cli

        code, out, err = run_cli(capsys, "families", "--kind", "alpha", "--k-max", "3",
                                 "--step-cap", "1")
        assert (code, out) == (1, "")
        assert err.splitlines() == [
            f"violation: alpha k={k} unresolved at step cap" for k in (1, 2, 3)
        ]
        true_probe = cli.family_orbit_probe

        def slow_probe(kind, k_max, step_cap):
            probe = true_probe(kind, k_max, step_cap)
            probe.stopping_times[2] = 3
            return probe

        monkeypatch.setattr(cli, "family_orbit_probe", slow_probe)
        code, out, err = run_cli(capsys, "families", "--kind", "beta", "--k-max", "3")
        assert (code, out) == (1, "")
        assert err == "violation: beta k=2 stopped in 3 steps, expected 2\n"

    def test_families_gamma_with_cap(self, capsys):
        code, out, _ = run_cli(
            capsys, "families", "--kind", "gamma", "--k-max", "5", "--step-cap", "3"
        )
        assert code == 0
        assert "unresolved at step cap 3" in out

    def test_audit_with_a_wrong_step_exits_one(self, capsys, monkeypatch):
        from collatzbin import analysis

        monkeypatch.setattr(analysis, "reduced_step", lambda n: n)
        code, out, err = run_cli(capsys, "audit", "--ell", "16", "--samples", "200")
        assert code == 1
        assert "ell=16: 200 samples, 0 violations" not in out
        assert "violation: 1" in err

    def test_audit_prints_the_exact_count_and_the_witnesses_it_kept(self, capsys, monkeypatch):
        from collatzbin import analysis

        monkeypatch.setattr(analysis, "reduced_step", lambda n: n)
        monkeypatch.setattr(analysis, "_WITNESS_CHARS", 1)
        summary = analysis.audit_length_deltas(200, 16, seed=0)
        code, out, err = run_cli(capsys, "audit", "--ell", "16", "--samples", "200")
        assert code == 1
        assert out == f"ell=16: 200 samples, {summary.violation_count} violations\n"
        assert err.splitlines() == [
            f"  violation: {summary.violations[0]}",
            f"  {summary.violation_count - 1} more violations, witnesses not kept",
        ]

    @pytest.mark.parametrize("kind,step_cap", [("alpha", "-1"), ("gamma", "0")])
    def test_families_step_cap_below_one_is_a_usage_error(self, capsys, kind, step_cap):
        code, out, err = run_cli(capsys, "families", "--kind", kind, "--k-max", "3",
                                 "--step-cap", step_cap)
        assert code == 2
        assert out == ""
        assert "step_cap must be >= 1" in err

    def test_families_gamma(self, capsys):
        code, out, _ = run_cli(capsys, "families", "--kind", "gamma", "--k-max", "20")
        assert code == 0
        assert "20 of 20 members reached the ground state" in out


class TestTable:
    def test_writes_csv_and_prints_cells(self, capsys, tmp_path):
        out_path = tmp_path / "table.csv"
        args = (
            "table1", "--lengths", "8,12", "--samples", "50", "--runs", "2",
            "--out", str(out_path),
        )
        code, out, _ = run_cli(capsys, *args)
        assert code == 0
        assert "length=8 samples=50 runs=2 max_length_delta=+4" in out
        first = out_path.read_bytes()
        assert first.startswith(b"length,samples,runs,")
        code, _, _ = run_cli(capsys, *args)
        assert code == 0
        assert out_path.read_bytes() == first

    def test_bad_lengths_are_usage_errors(self, capsys):
        code, _, err = run_cli(capsys, "table1", "--lengths", "8,x")
        assert code == 2
        assert "usage error" in err

    def test_missing_directory_is_an_io_error(self, capsys, tmp_path):
        code, _, err = run_cli(
            capsys, "table1", "--lengths", "6", "--samples", "5", "--runs", "1",
            "--out", str(tmp_path / "no" / "t.csv"),
        )
        assert code == 3
        assert "i/o error" in err


def test_no_subcommand_is_a_usage_error(capsys):
    assert main([]) == 2


# ways an argument is refused, by argparse, by a reader or by the library
USAGE_ROUTES = {
    "huge --ell": ("kstar", "--ell", "7" * 5000),
    "bad --workers": ("verify", "--ell", "10", "--workers", "x" * 5000),
    "bad --map": ("trajectory", "--start", "5", "--map", "z" * 3000),
    "extra argument": ("kstar", "--ell", "5", "y" * 3000),
    "missing --ell": ("kstar",),
    "no subcommand": (),
    "bad --lengths": ("table1", "--lengths", "x" * 5000),
    "huge audit --ell": ("audit", "--ell", "7" * 4400),
    "bad digit string": ("trajectory", "--start", "bits:" + "2" * 5000),
    "negative classic start": ("trajectory", "--start", "-" + "7" * 4000, "--map", "c"),
    "even reduced start": ("trajectory", "--start", "2" * 3999 + "4", "--map", "r"),
    "negative binary start": ("trajectory", "--start", "-" + "7" * 4000),
    "digit string on the classic map": ("trajectory", "--start", "bits:" + "1" * 20000,
                                        "--map", "c"),
    "huge --start": ("trajectory", "--start", "7" * 5000),
    "huge negative --workers": ("verify", "--ell", "10", "--workers", "-" + "7" * 4000),
    "two signs on --ell": ("kstar", "--ell", "+-" + "7" * 4400),
    "huge --ell with separators": ("kstar", "--ell", "_".join(["7777"] * 1100)),
    "value past the digit limit": ("trajectory", "--start", "bits:1" + "01" * 7150),
    "misspelt subcommand": ("kstr",),
    "option before the subcommand": ("--ell", "5", "kstar"),
    "misspelt subcommand with help": ("kstr", "-h"),
}


@pytest.mark.parametrize("argv", USAGE_ROUTES.values(), ids=USAGE_ROUTES.keys())
def test_a_usage_error_is_one_short_line(capsys, argv):
    code, out, err = run_cli(capsys, *argv)  # main() returns; SystemExit would fail here
    assert (code, out) == (2, "")
    assert err.startswith("usage error:")
    assert err.count("\n") == 1 and err.endswith("\n")
    assert len(err.encode()) < 200


@pytest.mark.parametrize(
    "route,phrase",
    [
        ("huge --ell", "4300 digits"),
        ("huge audit --ell", "4300 digits"),
        ("two signs on --ell", "is not an integer"),
        ("huge --ell with separators", "4300 digits"),
        ("huge --start", "4300 digits"),
        ("huge --start", "bits:"),
        ("digit string on the classic map", "positive integer start"),
        ("bad digit string", "only 0 and 1"),
        ("missing --ell", "--ell"),
        ("value past the digit limit", "step 0"),
        ("value past the digit limit", "4300 digits"),
        ("value past the digit limit", "raster"),
    ],
)
def test_a_usage_error_names_its_reason(capsys, route, phrase):
    _, _, err = run_cli(capsys, *USAGE_ROUTES[route])
    assert phrase in err


# [exit code, stdout, stderr] of every usage route and of each -h, as the CLI printed them
# when the parser built all seven subcommands on every run
SURFACE = json.loads(Path(__file__).with_name("cli_surface.json").read_text(encoding="utf-8"))
SURFACE_ROUTES = {
    **{name: (USAGE_ROUTES[name], printed) for name, printed in SURFACE["errors"].items()},
    **{argv: (tuple(argv.split()), printed) for argv, printed in SURFACE["help"].items()},
}


def run_surface(capsys, monkeypatch, argv):
    monkeypatch.setenv("COLUMNS", "80")  # help wraps at the terminal width
    try:
        code = main(list(argv))
    except SystemExit as exc:  # -h exits after printing the help
        code = exc.code
    captured = capsys.readouterr()
    return [code, captured.out, captured.err]


@pytest.mark.skipif(sys.version_info[:2] != (3, 11),
                    reason="recorded with Python 3.11's argparse; other versions word"
                           " some of its messages differently")
@pytest.mark.parametrize("route", SURFACE_ROUTES)
def test_the_cli_surface_is_byte_identical(capsys, monkeypatch, route):
    argv, printed = SURFACE_ROUTES[route]
    assert run_surface(capsys, monkeypatch, argv) == printed


@pytest.mark.parametrize("route", SURFACE_ROUTES)
def test_one_subparser_prints_what_all_seven_print(capsys, monkeypatch, route):
    from collatzbin import cli

    argv = SURFACE_ROUTES[route][0]
    alone = run_surface(capsys, monkeypatch, argv)
    build = cli._build_parser
    monkeypatch.setattr(cli, "_build_parser", lambda _: build([]))  # no command named: all seven
    assert alone == run_surface(capsys, monkeypatch, argv)


def test_a_named_command_builds_only_its_own_parser(capsys, monkeypatch):
    added = []
    add_parser = argparse._SubParsersAction.add_parser

    def counted(self, name, **kwargs):
        added.append(name)
        return add_parser(self, name, **kwargs)

    monkeypatch.setattr(argparse._SubParsersAction, "add_parser", counted)
    assert main(["kstar", "--ell", "60"]) == 0
    assert added == ["kstar"]
    added.clear()
    with pytest.raises(SystemExit) as exc:
        main(["-h"])
    assert exc.value.code == 0
    commands = ["trajectory", "raster", "kstar", "verify", "table1", "audit", "families"]
    assert added == commands
    help_text = capsys.readouterr().out
    assert all(f"\n    {name} " in help_text for name in commands)


def test_help_still_exits_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["kstar", "-h"])
    assert exc.value.code == 0
    assert "--ell" in capsys.readouterr().out


def test_console_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "collatzbin.cli", "kstar", "--ell", "4"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "k* = 5" in proc.stdout
