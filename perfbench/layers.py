"""Per-layer timings and per-pass work counts.

`layer_metrics` times the public functions of each layer (exact, maps,
analysis, harness, raster, cli) on inputs made by the workloads' own input
generators from the benchmark seed.  Every timing is a median over a few
repetitions of a loop over many inputs, divided by the work the loop did.

`pass_counts` gives the work one w1 pass of a workload does, from the pass's
result or from a recomputation made outside every timed region, and the
largest worker count its w2 pass asks for.
"""

from __future__ import annotations

import contextlib
import io
import time
from statistics import median

from collatzbin import (
    GROUND_STATE,
    BinaryFraction,
    Family,
    binary_step,
    classify_branch,
    critical_point,
    derive_seed,
    epsilon_bound,
    family_member,
    family_orbit_probe,
    head_tail_classify,
    orbit_rows,
    parse_pbm,
    reduced_step,
    render_pbm,
    run_cell,
    run_trajectory,
    sample_fraction,
    to_decimal,
    verify_range,
)
from collatzbin.cli import main as cli_main

import workloads as wl

POINTS_PER_ELL = 2000
TABLE1_ORBITS_PER_ELL = 10
GAMMA_MEMBERS = range(20, wl.GAMMA_K_MAX + 1, 20)
VERIFY_STARTS = 100
# k just below k* = 5773 at ell 500
KSTAR_KS = range(5763, 5773)
RUN_CELL_SAMPLES, RUN_CELL_RUNS = 50, 2


def per_item(fn, items, reps: int = 5) -> float:
    """Median over reps of the seconds per item of `fn` applied to every item."""
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        for x in items:
            fn(x)
        times.append(time.perf_counter() - t0)
    return median(times) / len(items)


def per_call(fn, reps: int) -> float:
    return per_item(lambda _: fn(), [None], reps)


def binary_orbit(y: BinaryFraction) -> list[BinaryFraction]:
    orbit = [y]
    while y != GROUND_STATE:
        y = binary_step(y)
        orbit.append(y)
    return orbit


def reduced_steps(n: int) -> int:
    """Reduced-map steps from odd n down to 1, on plain integers."""
    steps = 0
    while n != 1:
        t = 3 * n + 1
        n = t >> ((t & -t).bit_length() - 1)
        steps += 1
    return steps


def audit_points(seed: int | None, ell: int, count: int) -> list[BinaryFraction]:
    master = wl.audit_seed(seed)
    return [sample_fraction(ell, derive_seed(master, 0, i)) for i in range(count)]


def table1_starts(seed: int | None, ell: int, count: int) -> list[BinaryFraction]:
    master = wl.table1_seed(seed)
    return [sample_fraction(ell, derive_seed(master, run, 0)) for run in range(count)]


def layer_metrics(seed: int | None) -> dict[str, tuple[float, str]]:
    m: dict[str, tuple[float, str]] = {}
    points = {ell: audit_points(seed, ell, POINTS_PER_ELL) for ell in wl.AUDIT_ELLS}
    all_points = [y for ys in points.values() for y in ys]
    pairs = [(y.numerator, y.length) for y in all_points]

    # exact
    m["exact.binary_fraction_ns"] = (per_item(lambda p: BinaryFraction(*p), pairs) * 1e9, "ns")
    m["exact.to_bits_ns"] = (per_item(BinaryFraction.to_bits, all_points) * 1e9, "ns")
    c, eps = critical_point(5773), epsilon_bound(5773, wl.KSTAR_ELL)
    m["exact.to_decimal_us"] = (per_item(lambda r: to_decimal(r, 6), [c, eps] * 50) * 1e6, "us")

    # maps
    short = [y for ell in wl.TABLE1_LENGTHS
             for start in table1_starts(seed, ell, TABLE1_ORBITS_PER_ELL)
             for y in binary_orbit(start)[:-1]]
    m["maps.binary_step_ns.short"] = (per_item(binary_step, short) * 1e9, "ns")
    long = [y for k in GAMMA_MEMBERS for y in binary_orbit(family_member(Family.GAMMA, k))[:-1]]
    m["maps.binary_step_ns.long"] = (per_item(binary_step, long, reps=3) * 1e9, "ns")
    odd = []
    for i in range(VERIFY_STARTS):
        n = 2 * (derive_seed(wl.audit_seed(seed), 1, i) % (1 << (wl.VERIFY_ELL - 1))) + 1
        while n != 1:
            odd.append(n)
            n = reduced_step(n)
    m["maps.reduced_step_ns"] = (per_item(reduced_step, odd) * 1e9, "ns")
    m["maps.classify_branch_ns"] = (per_item(classify_branch, all_points) * 1e9, "ns")
    m["maps.critical_point_us"] = (per_item(critical_point, KSTAR_KS) * 1e6, "us")

    # analysis
    m["analysis.epsilon_bound_us"] = (
        per_item(lambda k: epsilon_bound(k, wl.KSTAR_ELL), KSTAR_KS) * 1e6, "us")
    sub = [y for ys in points.values() for y in ys[:500]]
    m["analysis.head_tail_classify_us"] = (per_item(head_tail_classify, sub) * 1e6, "us")
    starts = [y for ell in wl.TABLE1_LENGTHS
              for y in table1_starts(seed, ell, TABLE1_ORBITS_PER_ELL)]
    steps = sum(len(run_trajectory(y).iterates) - 1 for y in starts)
    m["analysis.run_trajectory_ns_per_step"] = (
        per_item(run_trajectory, starts) * len(starts) / steps * 1e9, "ns")
    m["analysis.family_orbit_probe_ms"] = (
        per_call(lambda: family_orbit_probe(Family.GAMMA, wl.GAMMA_K_MAX), 3) * 1e3, "ms")
    m["analysis.verify_range_ns_per_start.ell18"] = (
        per_call(lambda: verify_range(18), 3) / (1 << 17) * 1e9, "ns")
    m["analysis.verify_range_ns_per_start.ell22"] = (
        per_call(lambda: verify_range(22), 1) / (1 << 21) * 1e9, "ns")

    # harness
    for ell in wl.AUDIT_ELLS:
        master = wl.audit_seed(seed)
        m[f"harness.sample_ns.ell{ell}"] = (per_item(
            lambda i: sample_fraction(ell, derive_seed(master, 0, i)),
            range(POINTS_PER_ELL)) * 1e9, "ns")
    master = wl.table1_seed(seed)
    cell_steps = sum(reduced_steps(sample_fraction(100, derive_seed(master, run, i)).numerator)
                     for run in range(RUN_CELL_RUNS) for i in range(RUN_CELL_SAMPLES))
    m["harness.run_cell_ns_per_step"] = (per_call(
        lambda: run_cell(100, RUN_CELL_SAMPLES, RUN_CELL_RUNS, master), 3)
        / cell_steps * 1e9, "ns")

    # raster
    rows = [orbit_rows(run_trajectory(start).iterates) for start in wl.ORBIT_STARTS]
    n_rows = sum(len(r) for r in rows)
    texts = [render_pbm(r) for r in rows]
    m["raster.render_pbm_us_per_row"] = (
        per_item(render_pbm, rows, reps=7) * len(rows) / n_rows * 1e6, "us")
    m["raster.parse_pbm_us_per_row"] = (
        per_item(parse_pbm, texts, reps=7) * len(texts) / n_rows * 1e6, "us")

    # cli
    def trivial():
        with contextlib.redirect_stdout(io.StringIO()):
            cli_main(["trajectory", "--start", "1", "--max-steps", "1"])
    m["cli.main_ms"] = (per_item(lambda _: trivial(), range(20)) * 1e3, "ms")
    return m


def pass_counts(name: str, seed: int | None, result: dict) -> dict[str, int]:
    """Work done by one w1 pass of workload `name` whose output was `result`."""
    counts = dict.fromkeys(("count.odd_starts", "count.orbit_steps", "count.points",
                            "count.horizons", "count.orbits", "count.capped_orbits"), 0)
    w2_argvs = wl.WORKLOADS[name].argv(seed, 2, "")
    counts["count.workers"] = max((int(argv[i + 1]) for argv in w2_argvs
                                   for i, arg in enumerate(argv) if arg == "--workers"), default=1)
    if name == "exhaustive":
        counts["count.odd_starts"] = counts["count.orbits"] = result["verified"]
    elif name == "orbits":
        master = wl.table1_seed(seed)
        steps = sum(reduced_steps(sample_fraction(ell, derive_seed(master, run, i)).numerator)
                    for ell in wl.TABLE1_LENGTHS for run in range(wl.TABLE1_RUNS)
                    for i in range(wl.TABLE1_SAMPLES))
        steps += sum(reduced_steps(family_member(Family.GAMMA, k).numerator)
                     for k in range(1, wl.GAMMA_K_MAX + 1))
        # each raster and trajectory command follows its orbit once
        steps += 2 * sum(len(t["rows"]) - 1 for t in result["trajectories"])
        counts["count.orbit_steps"] = steps
        counts["count.orbits"] = (len(wl.TABLE1_LENGTHS) * wl.TABLE1_RUNS * wl.TABLE1_SAMPLES
                                  + wl.GAMMA_K_MAX + 2 * len(wl.ORBIT_STARTS))
        capped = sum(int(row.split(",")[7]) for row in result["csv"].splitlines()[1:])
        capped += len(result["families"][3])
        capped += 2 * sum(t["stopping_time"] is None for t in result["trajectories"])
        counts["count.capped_orbits"] = capped
    elif name == "audit":
        counts["count.points"] = sum(samples for _, samples, _ in result["ells"])
    elif name == "kstar":
        counts["count.horizons"] = result["k_star"]
    return counts
