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

    def test_a_huge_start_is_refused_in_bounded_memory(self, capsys, monkeypatch, tmp_path):
        out_path = tmp_path / "huge.pbm"
        pin = {"argv": ["raster", "--start", "bits:" + "1" * 20000, "--out", str(out_path)],
               "limited": True}
        assert run_pinned(capsys, monkeypatch, pin) == [
            2, "", "usage error: orbit listing passes 16777216 cells (states x largest bit length)"
                   " at step 819, 20480 bits wide\n"]
        assert not out_path.exists()

    def test_unwritable_path_is_an_io_error(self, capsys, tmp_path):
        code, _, err = run_cli(
            capsys, "raster", "--start", "5", "--out", str(tmp_path / "no" / "x.pbm")
        )
        assert code == 3
        assert "i/o error" in err


class TestScansAndAudits:
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

    def test_a_family_member_that_stops_late_exits_one(self, capsys, monkeypatch):
        from collatzbin import cli

        true_probe = cli.family_orbit_probe

        def slow_probe(kind, k_max, step_cap):
            probe = true_probe(kind, k_max, step_cap)
            probe.stopping_times[2] = 3
            return probe

        monkeypatch.setattr(cli, "family_orbit_probe", slow_probe)
        code, out, err = run_cli(capsys, "families", "--kind", "beta", "--k-max", "3")
        assert (code, out) == (1, "")
        assert err == "violation: beta k=2 stopped in 3 steps, expected 2\n"

    def test_audit_with_a_wrong_step_exits_one(self, capsys, monkeypatch):
        from collatzbin import analysis

        monkeypatch.setattr(analysis, "reduced_step", lambda n: n)
        code, out, err = run_cli(capsys, "audit", "--ell", "16", "--samples", "200")
        assert code == 1
        assert "ell=16: 200 samples, 0 violations" not in out
        assert "violation: 1" in err

    @pytest.mark.ci_only
    def test_a_failing_audit_keeps_its_witnesses_in_bounded_memory(self, capsys, monkeypatch):
        pin = {"argv": ["audit", "--ell", "1048576", "--samples", "2000"], "limited": True}
        wrong_step = "from collatzbin import analysis\nanalysis.reduced_step = lambda n: n\n"
        code, out, err = run_pinned(capsys, monkeypatch, pin, setup=wrong_step)
        assert (code, out) == (1, "ell=1048576: 2000 samples, 2502 violations\n")
        assert len(err.encode()) < 4 << 20

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


# [exit code, stdout, stderr] of each pinned run of the CLI. No record holds text that argparse
# words, as that differs between Python versions. Records marked ci_only take seconds, so
# tier-1 leaves them to `python -m pytest -m ci_only`.
PINS = json.loads(Path(__file__).with_name("cli_pins.json").read_text(encoding="utf-8"))["runs"]
PINNED = {" ".join(pin["argv"]): pin for pin in PINS}

# the address space of a limited run, as `ulimit -v 1048576` caps a shell's
LIMIT = 1 << 30

# a child that imports the CLI and then, if limited, caps its own address space
CHILD_RUN = (
    "import resource, sys\n"
    "from collatzbin import cli, harness\n"
    "{limit}"
    "harness.os.cpu_count = lambda: 2\n"
    "{setup}"
    "sys.exit(cli.main({argv!r}))\n"
)


def run_pinned(capsys, monkeypatch, pin, setup=""):
    """[exit code, stdout, stderr] of ``pin``'s argv on two CPUs, so two workers stay two parts.

    A pin that is ``limited`` or has a ``timeout`` runs in a child, after the statements
    ``setup``: under ``LIMIT`` if limited, and killed after ``timeout`` seconds if it has one,
    which puts a note in place of the exit code. Any other runs in this process.
    """
    if pin.get("limited") or "timeout" in pin:
        limit = f"resource.setrlimit(resource.RLIMIT_AS, ({LIMIT}, {LIMIT}))\n"
        code = CHILD_RUN.format(limit=limit if pin.get("limited") else "", setup=setup,
                                argv=pin["argv"])
        timeout = pin.get("timeout")
        try:
            proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                                  timeout=timeout)
        except subprocess.TimeoutExpired as killed:
            return [f"killed after {timeout} s", killed.stdout, killed.stderr]
        return [proc.returncode, proc.stdout, proc.stderr]
    from collatzbin import harness

    monkeypatch.setattr(harness.os, "cpu_count", lambda: 2)
    return list(run_cli(capsys, *pin["argv"]))


@pytest.mark.parametrize("pin", [
    pytest.param(pin, id=argv, marks=[pytest.mark.ci_only] if pin.get("ci_only") else [])
    for argv, pin in PINNED.items()
])
def test_a_pinned_run_prints_its_record(capsys, monkeypatch, pin):
    assert run_pinned(capsys, monkeypatch, pin) == pin["printed"]


def changed(argv, index, value):
    """The record of ``argv`` with entry ``index`` of its printed triple set to ``value``."""
    printed = list(PINNED[argv]["printed"])
    printed[index] = value
    return {**PINNED[argv], "printed": printed}


@pytest.mark.parametrize("pin, limit", [
    (changed("kstar --ell 60", 1, PINNED["kstar --ell 60"]["printed"][1].replace("600", "601", 1)),
     LIMIT),
    (changed("verify --ell 5 --step-cap 5", 0, 2), LIMIT),
    # the imported CLI already holds about 19 MiB, so the audit's first 2^20-bit integer fails
    (PINNED["audit --ell 1048576 --samples 2"], 1 << 20),
    # no interpreter starts, let alone scans, in a hundredth of a second
    ({**PINNED["kstar --ell 5000 --k-max 100000"], "timeout": 0.01}, LIMIT),
], ids=["one stdout byte", "exit code", "memory limit", "time bound"])
def test_a_run_that_differs_from_its_record_fails(capsys, monkeypatch, pin, limit):
    monkeypatch.setattr(sys.modules[__name__], "LIMIT", limit)
    with pytest.raises(AssertionError):
        test_a_pinned_run_prints_its_record(capsys, monkeypatch, pin)


def test_every_end_to_end_command_has_one_record_per_argv():
    assert len(PINNED) == len(PINS)
    commands = {pin["argv"][0] for pin in PINS}
    assert commands >= {"verify", "table1", "audit", "kstar", "families"}


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
