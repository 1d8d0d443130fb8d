"""Output checks for the benchmark workloads.

Each check reads a workload's result dict (see `workloads.py`) and returns
a list of failure witnesses; an empty list means the output is correct.
The checks recompute what they can by a route other than the one timed:
the worst verify start is walked with `reduced_step`, sampled orbits are
followed on the reduced integer map instead of the interval map, rasters
and trajectory listings are compared with reduced-map digit strings, the
audit's head/tail cells are recounted from raw bits, and k* is confirmed
by integer inequalities instead of the scan's `Fraction`s.

Comparisons against reference outputs that depend on the seed run only at
the CLI default seed (`seed is None`); the seed-free checks always run.
"""

from __future__ import annotations

from collatzbin import (
    CSV_HEADER,
    DELTA_TABLE,
    RNG_ID,
    MapKind,
    audit_length_deltas,
    derive_seed,
    parse_pbm,
    reduced_step,
    run_trajectory,
    sample_fraction,
)

import workloads as wl

VERIFY_REFERENCE = {"ell": 22, "verified": 2097152, "max_stop": 222, "worst": 3732423}

TABLE1_REFERENCE_CSV = (
    CSV_HEADER + "\n"
    "50,500,10,13,311,20250815,splitmix64,0\n"
    "100,500,10,13,463,20250815,splitmix64,0\n"
)
GAMMA_MAX_STOP = 3053
# (rows, width) of each orbit raster, in ORBIT_STARTS order
RASTER_SHAPES = [(358, 39), (256, 119)]

KSTAR_REFERENCE = {"ell": 500, "k_star": 5773, "c": "0.503995", "eps": "0.009688"}

# sampled orbits per table1 length re-followed on the reduced integer map
CONJUGATE_RUNS = 10
CONJUGATE_PER_RUN = 5
# points per audit length recounted cell by cell
AUDIT_PREFIX = 3000

_HEADS = {0b100: "h1", 0b101: "h2", 0b110: "h3", 0b111: "h4"}
_TAILS = {0b001: "t1", 0b011: "t2", 0b101: "t3", 0b111: "t4"}


def _odd_part(x: int) -> int:
    return x >> ((x & -x).bit_length() - 1)


def reduced_orbit(start: int) -> list[int]:
    """Odd values along the reduced-map orbit of start's odd part, down to 1."""
    v = _odd_part(start)
    orbit = [v]
    while v != 1:
        v = reduced_step(v)
        orbit.append(v)
    return orbit


def check_exhaustive(result: dict, seed: int | None) -> list[str]:
    bad = [f"verify exited {rc}" for rc in result["rc"] if rc != 0]
    for key, want in VERIFY_REFERENCE.items():
        if result[key] != want:
            bad.append(f"verify {key} = {result[key]}, expected {want}")
    steps = len(reduced_orbit(result["worst"])) - 1
    if steps != result["max_stop"]:
        bad.append(f"start {result['worst']} takes {steps} reduced steps, "
                   f"reported {result['max_stop']}")
    return bad


def _csv_cells(text: str) -> dict[int, list[str]]:
    lines = text.splitlines()
    if not lines or lines[0] != CSV_HEADER:
        raise ValueError(f"table1 CSV header is {lines[:1]}")
    return {int(row.split(",")[0]): row.split(",") for row in lines[1:]}


def check_orbits(result: dict, seed: int | None) -> list[str]:
    bad = [f"command {i} exited {rc}" for i, rc in enumerate(result["rc"]) if rc != 0]
    master = wl.table1_seed(seed)
    csv = result["csv"]
    if seed is None and csv != TABLE1_REFERENCE_CSV:
        bad.append(f"table1 CSV differs from the reference: {csv!r}")
    try:
        cells = _csv_cells(csv)
    except ValueError as exc:
        return bad + [str(exc)]
    for ell in wl.TABLE1_LENGTHS:
        row = cells.get(ell)
        want = [str(ell), str(wl.TABLE1_SAMPLES), str(wl.TABLE1_RUNS)]
        if row is None or len(row) != 8 or row[:3] != want \
                or row[5:7] != [str(master), RNG_ID]:
            bad.append(f"table1 row for length {ell} is {row}")
            continue
        max_delta, max_stop = int(row[3]), int(row[4])
        for run in range(CONJUGATE_RUNS):
            for idx in range(CONJUGATE_PER_RUN):
                y = sample_fraction(ell, derive_seed(master, run, idx))
                rec = run_trajectory(y.numerator, MapKind.REDUCED)
                if rec.stopping_time is None or rec.stopping_time > max_stop \
                        or rec.max_length - ell > max_delta:
                    bad.append(f"sample {y.to_bits()} (run {run}, index {idx}): stop "
                               f"{rec.stopping_time}, growth {rec.max_length - ell} "
                               f"exceed CSV maxima ({max_stop}, {max_delta})")
    resolved, k_max, max_stop, unresolved = result["families"]
    if (resolved, k_max, max_stop, unresolved) != (wl.GAMMA_K_MAX, wl.GAMMA_K_MAX,
                                                  GAMMA_MAX_STOP, []):
        bad.append(f"gamma probe resolved {resolved} of {k_max}, max stop {max_stop}, "
                   f"unresolved {unresolved}")
    for start, pbm, traj, (height, width) in zip(wl.ORBIT_STARTS, result["rasters"],
                                                 result["trajectories"], RASTER_SHAPES):
        want_bits = [format(v, "b") for v in reduced_orbit(start)]
        header = pbm.split(maxsplit=3)[:3]
        if header != ["P1", str(width), str(height)]:
            bad.append(f"raster of {start} has header {header}, expected {width}x{height}")
        try:
            rows = parse_pbm(pbm)
        except ValueError as exc:
            rows = [str(exc)]
        if rows != want_bits:
            diff = next((i for i, (a, b) in enumerate(zip(rows, want_bits)) if a != b),
                        min(len(rows), len(want_bits)))
            bad.append(f"raster of {start}: {len(rows)} rows, row {diff} differs from "
                       f"the reduced orbit ({len(want_bits)} rows)")
        got = [[v, b, n] for v, b, n in traj["rows"]]
        want = [[int(b, 2), b, len(b)] for b in want_bits]
        if got != want or traj["stopping_time"] != len(want) - 1:
            bad.append(f"trajectory of {start}: {len(got)} rows, stopping time "
                       f"{traj['stopping_time']}, differs from the reduced orbit")
    return bad


def audit_cells(ell: int, seed: int, samples: int) -> tuple[dict, list[str]]:
    """Head/tail cell counts and table violations, recounted from raw bits."""
    counts: dict[tuple[str, str], int] = {}
    bad = []
    for idx in range(samples):
        n = sample_fraction(ell, derive_seed(seed, 0, idx)).numerator
        cell = (_HEADS[n >> (ell - 3)], _TAILS[n & 7])
        counts[cell] = counts.get(cell, 0) + 1
        # the stepped point's numerator is 3n+1 stripped of its factors of 2
        delta = _odd_part(3 * n + 1).bit_length() - ell
        lo, hi = DELTA_TABLE[cell]
        if delta > hi or (lo is not None and delta < lo):
            bad.append(f"{format(n, 'b')}: delta {delta} outside {cell} ({lo}, {hi})")
    return counts, bad


def check_audit(result: dict, seed: int | None) -> list[str]:
    bad = [f"audit exited {rc}" for rc in result["rc"] if rc != 0]
    want = [[ell, wl.AUDIT_SAMPLES, 0] for ell in wl.AUDIT_ELLS]
    if result["ells"] != want:
        bad.append(f"audit cells (ell, samples, violations) {result['ells']}, "
                   f"expected {want}")
    master = wl.audit_seed(seed)
    for ell in wl.AUDIT_ELLS:
        mine, violations = audit_cells(ell, master, AUDIT_PREFIX)
        bad += violations
        theirs = audit_length_deltas(AUDIT_PREFIX, ell, seed=master).cell_counts
        if sum(theirs.values()) != AUDIT_PREFIX or theirs != mine:
            bad.append(f"ell={ell}: audit cell counts {sorted(theirs.items())} differ "
                       f"from the recount {sorted(mine.items())}")
    return bad


def _reversed(k: int, ell: int) -> bool:
    """True when 1/2 + eps(k, ell) > c_k, by integers only.

    Both sides of c_k < 1/2 + eps are multiplied by 3^k * 2^(3n+ell+1),
    n = k // 2, which clears every denominator.
    """
    n = k // 2
    p3, p9, p8 = 3**k, 9**n, 8**n
    mu = p3.bit_length() - 1
    lhs = 1 << (mu + 3 * n + ell + 1)
    if k % 2 == 0:
        return lhs < (p9 << (3 * n + ell)) + 14 * p9 * (p9 - p8)
    return lhs < (p3 << (3 * n + ell)) + p3 * (15 * (p9 - p8) + p8)


def _truncated(num: int, den: int, digits: int = 6) -> str:
    whole, rest = divmod(num, den)
    return f"{whole}.{rest * 10**digits // den:0{digits}d}"


def check_kstar(result: dict, seed: int | None) -> list[str]:
    bad = [f"kstar exited {rc}" for rc in result["rc"] if rc != 0]
    for key, want in KSTAR_REFERENCE.items():
        if result[key] != want:
            bad.append(f"kstar {key} = {result[key]}, expected {want}")
    k, ell = result["k_star"], result["ell"]
    if k < 2 or _reversed(k - 1, ell) or not _reversed(k, ell):
        bad.append(f"the integer inequality does not put the first reversal at "
                   f"k = {k} for ell = {ell} (k - 1 excluded, k reversed)")
        return bad
    n = k // 2
    p3 = 3**k
    c = _truncated(1 << (p3.bit_length() - 1), p3)
    # eps = 7(9^n - 8^n) / (8^n 2^ell) for even k, (15(9^n - 8^n) + 8^n) / (8^n 2^(ell+1)) odd
    eps_num = 7 * (9**n - 8**n) if k % 2 == 0 else 15 * (9**n - 8**n) + 8**n
    eps = _truncated(eps_num, 8**n << (ell + k % 2))
    if (result["c"], result["eps"]) != (c, eps):
        bad.append(f"k = {k}: printed c = {result['c']}, eps = {result['eps']}; "
                   f"integer route gives {c}, {eps}")
    return bad


CHECKS = {"exhaustive": check_exhaustive, "orbits": check_orbits,
          "audit": check_audit, "kstar": check_kstar}
