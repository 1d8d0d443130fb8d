"""Command-line front end.

Subcommands cover the package's report surface: orbit listings, PBM
rasters, the exclusion-horizon scan, exhaustive range verification, the
random-orbit experiment table, the head/tail audit, and the structured
family probes.  Output is text and files only (CSV, PBM); everything is
deterministic given the flags.

Exit codes: 0 success, 1 property violation or counterexample, 2 usage
error (one ``usage error:`` line, no argument shown past 30 characters),
3 I/O error, 4 a run that failed to finish (one ``error:`` line: a worker
process that failed or was killed, or a memo fill block left short).
main() returns the code; only -h exits, with 0, after help.
"""

from __future__ import annotations

import argparse
import locale  # noqa: F401 - argparse's gettext imports it in a command's run unless it is here
import re
import shutil  # noqa: F401 - likewise for argparse's HelpFormatter, where site has not loaded it
import sys

from .analysis import (
    AuditSummary,
    MapKind,
    _epsilon_pair,
    audit_length_deltas,
    family_orbit_probe,
    kstar_scan,
    run_trajectory,
)
from .exact import BinaryFraction, _truncated
from .harness import ExperimentConfig, run_table, write_csv
from .maps import STEP_CAP, Family, _critical_pair
from .raster import orbit_rows, render_pbm
from .verify import DivergenceError, verify_range

__all__ = ["main"]

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_USAGE = 2
EXIT_IO = 3
EXIT_FAILED = 4


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # raised, for main() to print as one line
        raise ValueError(message)


# Python's decimal integer syntax: one optional sign, single underscores between digits
_INTEGER = re.compile(r"[+-]?\d+(?:_\d+)*")


def _int(text: str) -> int:
    """The one reader of integer arguments."""
    try:
        return int(text, 10)
    except ValueError:  # int() refuses a string of its own syntax only past its digit limit
        reason = (f"passes Python's limit of {sys.get_int_max_str_digits()} digits for integer"
                  " strings" if _INTEGER.fullmatch(text.strip()) else "is not an integer")
        raise argparse.ArgumentTypeError(f"{text!r} {reason}") from None


def _ints(text: str) -> tuple[int, ...]:
    return tuple(map(_int, text.split(",")))


def _start(text: str) -> int | BinaryFraction:
    """An integer start, or a digit-string start given as bits:10110."""
    try:
        if text.startswith("bits:"):
            return BinaryFraction.from_bits(text[len("bits:") :])
        return _int(text)
    except (ValueError, argparse.ArgumentTypeError) as exc:
        raise argparse.ArgumentTypeError(f"{exc}; give an integer or bits:<digits>") from None


def _cut(message: str, argv: list[str] | None) -> str:
    """Cut each argument in message, and each part of one between = and commas, to 30 chars."""
    for arg in sys.argv[1:] if argv is None else argv:
        for text in (arg, *arg.replace("=", ",").split(",")):
            if len(text) > 30:
                shown = f"{text[:30]!r}... ({len(text)} characters)"
                message = message.replace(repr(text), shown).replace(text, shown)
    return message


_COLUMNS = ("step", "value", "bits", "length")


def cmd_trajectory(args: argparse.Namespace) -> int:
    kind = MapKind(args.map)
    record = run_trajectory(args.start, kind, args.max_steps)
    limit = sys.get_int_max_str_digits()
    if limit:  # str() refuses an int of more than limit digits
        bound = 10**limit
        step = next((i for i, v in enumerate(record.states) if v >= bound), None)
        if step is not None:
            raise ValueError(f"the value at step {step} passes Python's limit of {limit} digits"
                             " for integer strings; `collatzbin raster` draws the orbit")
    summary: dict[str, object] = {
        "stopping_time": record.stopping_time,
        "hailstone_index": record.hailstone_index,
        "max_length": record.max_length,
    }
    if kind is MapKind.COLLATZ:  # each classic step either triples (odd) or halves
        summary["odd_steps"] = odd = sum(v & 1 for v in record.states[:-1])
        summary["halving_steps"] = len(record.states) - 1 - odd
    rows = [(i, v, f"{v:b}", v.bit_length()) for i, v in enumerate(record.states)]
    # rendered whole before printing, so a row that cannot be formatted prints nothing
    if args.format == "json":
        import json  # only this branch prints JSON, so the other commands skip the import

        steps = [dict(zip(_COLUMNS, row)) for row in rows]
        text = json.dumps({"map": kind.value, **summary, "steps": steps})
    else:
        text = "\n".join([
            ",".join(_COLUMNS),
            *(",".join(map(str, row)) for row in rows),
            *(f"# {key}={'none' if val is None else val}" for key, val in summary.items()),
        ])
    print(text)
    return EXIT_OK


def cmd_raster(args: argparse.Namespace) -> int:
    record = run_trajectory(args.start, MapKind.BINARY, args.max_steps)
    text = render_pbm(orbit_rows(record.iterates))
    with open(args.out, "w", encoding="ascii", newline="\n") as fh:
        fh.write(text)
    print(f"wrote {record.max_length}x{len(record.states)} raster to {args.out}")
    if record.capped:
        print(f"note: orbit capped after {args.max_steps} steps")
    return EXIT_OK


def _margin_numerator(k: int, ell: int, p3: int) -> int:
    """c - 1/2 - e times 2 c.den e.den: the margin's sign from c and e, not the scan's numerator.

    c = critical_point(k) and e = epsilon_bound(k, ell), as the unreduced
    pairs of p3 = 3**k; cross-multiplied, so no gcd is taken.
    """
    (cn, cd), (en, ed) = _critical_pair(p3), _epsilon_pair(k, ell, p3)
    return 2 * cn * ed - cd * ed - 2 * cd * en


def cmd_kstar(args: argparse.Namespace) -> int:
    report = kstar_scan(args.ell, args.k_max)
    print(f"ell = {report.ell}")
    if report.k_star is None:
        print(f"no reversal up to k = {report.k_max}: every horizon excluded")
        return EXIT_OK
    k_star = report.k_star
    p3 = 3**k_star
    print(f"k* = {k_star}")
    print(f"c = {_truncated(*_critical_pair(p3), 6)}")
    print(f"eps = {_truncated(*_epsilon_pair(k_star, args.ell, p3), 6)}")
    # k* must be a reversal and k* - 1 (if any) must not be
    witness = None
    if k_star > 1 and _margin_numerator(k_star - 1, args.ell, p3 // 3) < 0:
        witness = f"k = {k_star - 1} already has a negative margin"
    elif _margin_numerator(k_star, args.ell, p3) >= 0:
        witness = f"k = {k_star} has a nonnegative margin"
    print(f"exact margin check for k < {k_star}: {'pass' if witness is None else 'FAIL'}")
    if witness is not None:
        print(f"margin check failed: {witness}", file=sys.stderr)
        return EXIT_VIOLATION
    return EXIT_OK


def cmd_verify(args: argparse.Namespace) -> int:
    result = verify_range(args.ell, workers=args.workers, step_cap=args.step_cap)
    print(f"verified {result.verified_count} odd starts below 2^{result.ell}")
    print(f"max stopping time {result.max_stopping_time} at start {result.worst_start}")
    return EXIT_OK


def cmd_table1(args: argparse.Namespace) -> int:
    config = ExperimentConfig(
        lengths=args.lengths,
        samples=args.samples,
        runs=args.runs,
        master_seed=args.seed,
        step_cap=args.step_cap,
    )
    summary = run_table(config, workers=args.workers)
    for cell in summary.cells:
        print(
            f"length={cell.length} samples={cell.samples} runs={cell.runs} "
            f"max_length_delta=+{cell.max_length_delta} "
            f"max_stop_time={cell.max_stop_time} capped={cell.capped_count}"
        )
    if args.out:
        write_csv(summary, args.out)
        print(f"wrote {args.out}")
    return EXIT_OK


def cmd_audit(args: argparse.Namespace) -> int:
    for ell in args.ell:
        AuditSummary(ell, args.samples, args.seed)  # checks every length before any audit
    failed = False
    for ell in args.ell:
        summary = audit_length_deltas(args.samples, ell, seed=args.seed)
        print(f"ell={ell}: {summary.samples} samples, {summary.violation_count} violations")
        for witness in summary.violations:
            print(f"  violation: {witness}", file=sys.stderr)
        dropped = summary.violation_count - len(summary.violations)
        if dropped:
            print(f"  {dropped} more violations, witnesses not kept", file=sys.stderr)
        failed = failed or not summary.ok
    return EXIT_VIOLATION if failed else EXIT_OK


def cmd_families(args: argparse.Namespace) -> int:
    kind = Family[args.kind.upper()]
    probe = family_orbit_probe(kind, args.k_max, step_cap=args.step_cap)
    if kind in (Family.ALPHA, Family.BETA):
        bad = {k: s for k, s in probe.stopping_times.items() if s != 2}
        if bad or probe.unresolved:
            for k, s in sorted(bad.items()):
                print(f"violation: {args.kind} k={k} stopped in {s} steps, expected 2",
                      file=sys.stderr)
            for k in probe.unresolved:
                print(f"violation: {args.kind} k={k} unresolved at step cap", file=sys.stderr)
            return EXIT_VIOLATION
        print(f"{args.kind}: all {probe.k_max} members stop in exactly 2 steps")
        return EXIT_OK
    resolved = len(probe.stopping_times)
    print(f"{args.kind}: {resolved} of {probe.k_max} members reached the ground state"
          f" (max stopping time {probe.max_stop})")
    if probe.unresolved:
        print(f"unresolved at step cap {probe.step_cap}: k = "
              + ",".join(str(k) for k in probe.unresolved))
    return EXIT_OK


def _trajectory_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("--start", type=_start, required=True,
                   help="integer, or bits:<digits> for the binary map")
    p.add_argument("--map", choices=[m.value for m in MapKind], default=MapKind.BINARY.value,
                   help="binary interval map, reduced integer map, or classic map")
    p.add_argument("--max-steps", type=_int, default=STEP_CAP)
    p.add_argument("--format", choices=["csv", "json"], default="csv")


def _raster_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("--start", type=_start, required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--max-steps", type=_int, default=STEP_CAP)


def _kstar_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("--ell", type=_int, required=True)
    p.add_argument("--k-max", type=_int, default=1000)


def _verify_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("--ell", type=_int, required=True)
    p.add_argument("--workers", type=_int, default=1)
    p.add_argument("--step-cap", type=_int, default=STEP_CAP)


def _table1_arguments(p: argparse.ArgumentParser) -> None:
    table = ExperimentConfig()
    p.add_argument("--lengths", type=_ints, default=table.lengths)
    p.add_argument("--samples", type=_int, default=table.samples)
    p.add_argument("--runs", type=_int, default=table.runs)
    p.add_argument("--seed", type=_int, default=table.master_seed)
    p.add_argument("--step-cap", type=_int, default=table.step_cap)
    p.add_argument("--workers", type=_int, default=1)
    p.add_argument("--out", default=None)


def _audit_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("--ell", type=_ints, required=True, help="comma-separated digit lengths")
    p.add_argument("--samples", type=_int, default=100000)
    p.add_argument("--seed", type=_int, default=0)


def _families_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("--kind", choices=[f.name.lower() for f in Family], required=True)
    p.add_argument("--k-max", type=_int, default=100)
    p.add_argument("--step-cap", type=_int, default=STEP_CAP)


# each subcommand, in help order: its help text, its handler and the adder of its arguments
_COMMANDS = {
    "trajectory": ("list one orbit with its length profile", cmd_trajectory,
                   _trajectory_arguments),
    "raster": ("render a binary-map orbit as a PBM bit image", cmd_raster, _raster_arguments),
    "kstar": ("scan for the first non-excluded period horizon", cmd_kstar, _kstar_arguments),
    "verify": ("exhaustively verify all odd starts below 2^ell", cmd_verify, _verify_arguments),
    "table1": ("random-orbit worst-case table, CSV output", cmd_table1, _table1_arguments),
    "audit": ("randomized audit of the head/tail length table", cmd_audit, _audit_arguments),
    "families": ("probe the 111000-block start families", cmd_families, _families_arguments),
}


def _build_parser(argv: list[str]) -> argparse.ArgumentParser:
    """The parser with only the subcommand that argv starts with, or with all of them.

    A run needs only its own command's parser; without a command name first
    (none, -h, a misspelt name) the top-level usage and help list every one.
    """
    parser = _Parser(
        prog="collatzbin",
        description="Exact-arithmetic Collatz dynamics on binary fractions in [1/2, 1).",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in argv[:1] if argv[:1] and argv[0] in _COMMANDS else _COMMANDS:
        help_text, handler, add_arguments = _COMMANDS[name]
        p = sub.add_parser(name, help=help_text)
        add_arguments(p)
        p.set_defaults(func=handler)
    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = _build_parser(sys.argv[1:] if argv is None else argv).parse_args(argv)
        return args.func(args)
    except DivergenceError as exc:
        print(f"counterexample: {exc}", file=sys.stderr)
        return EXIT_VIOLATION
    except ValueError as exc:
        print(f"usage error: {_cut(str(exc), argv)}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAILED


if __name__ == "__main__":
    sys.exit(main())
