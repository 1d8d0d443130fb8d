"""The four benchmark workloads: their CLI commands, traced library calls and results.

Each workload is one user-level job, typed as `collatzbin` commands.  A pass
runs the job once at one worker (part "w1") and once with `--workers 2`
passed to every command that takes it (part "w2").  `audit` and `kstar`
take no such flag, so their two parts run the same commands.

Both ways of running a pass, the CLI (`cli.main` with the flags a user would
type) and the traced one (the same calls into the layers' public functions,
each wrapped in a span), reduce to one plain "result" dict per workload.
The checks in `checks.py` read only that dict, so they are the same for both.

Workload inputs derive from the benchmark seed.  `None` means the CLI
defaults: table1 seed 20250815 and audit seed 0.  The exhaustive range and
the k* scan take no random input; the seed only picks the inputs their
per-layer timings use.
"""

from __future__ import annotations

import os
import re

TABLE1_SEED = 20250815
AUDIT_SEED = 0

VERIFY_ELL = 22
TABLE1_LENGTHS = (50, 100)
TABLE1_SAMPLES = 500
TABLE1_RUNS = 10
GAMMA_K_MAX = 200
ORBIT_STARTS = (63728127, 31415926535897932384626433832795028800)
AUDIT_ELLS = (16, 64, 256)
AUDIT_SAMPLES = 100000
KSTAR_ELL = 500
KSTAR_K_MAX = 10000


def table1_seed(seed: int | None) -> int:
    return TABLE1_SEED if seed is None else seed


def audit_seed(seed: int | None) -> int:
    return AUDIT_SEED if seed is None else seed


class Workload:
    """One CLI job; subclasses say how to run it, trace it and read its output."""

    name = ""

    def argv(self, seed: int | None, workers: int, out_dir: str) -> list[list[str]]:
        raise NotImplementedError

    def parse(self, runs: list[dict], out_dir: str) -> dict:
        """Result dict from the CLI commands' exit codes, stdout and files."""
        raise NotImplementedError

    def traced(self, seed: int | None, workers: int, out_dir: str, span) -> dict:
        """Result dict from direct calls into the layers, each inside `span(name)`."""
        raise NotImplementedError


def _search(pattern: str, text: str) -> tuple[str, ...]:
    m = re.search(pattern, text, re.MULTILINE)
    if m is None:
        raise ValueError(f"output does not match {pattern!r}: {text[:200]!r}")
    return m.groups()


def _read(path: str) -> str:
    with open(path, encoding="ascii") as fh:
        return fh.read()


class Exhaustive(Workload):
    name = "exhaustive"

    def argv(self, seed, workers, out_dir):
        return [["verify", "--ell", str(VERIFY_ELL), "--workers", str(workers)]]

    def parse(self, runs, out_dir):
        (run,) = runs
        count, ell = _search(r"^verified (\d+) odd starts below 2\^(\d+)$", run["stdout"])
        stop, worst = _search(r"^max stopping time (\d+) at start (\d+)$", run["stdout"])
        return {"rc": [run["rc"]], "ell": int(ell), "verified": int(count),
                "max_stop": int(stop), "worst": int(worst)}

    def traced(self, seed, workers, out_dir, span):
        from collatzbin import verify_range

        with span("verify_range"):
            r = verify_range(VERIFY_ELL, workers=workers)
        return {"rc": [0], "ell": r.ell, "verified": r.verified_count,
                "max_stop": r.max_stopping_time, "worst": r.worst_start}


class Orbits(Workload):
    name = "orbits"

    def argv(self, seed, workers, out_dir):
        lengths = ",".join(str(x) for x in TABLE1_LENGTHS)
        cmds = [["table1", "--lengths", lengths, "--samples", str(TABLE1_SAMPLES),
                 "--runs", str(TABLE1_RUNS), "--seed", str(table1_seed(seed)),
                 "--workers", str(workers), "--out", os.path.join(out_dir, "table1.csv")],
                ["families", "--kind", "gamma", "--k-max", str(GAMMA_K_MAX)]]
        for i, start in enumerate(ORBIT_STARTS):
            cmds.append(["raster", "--start", str(start),
                         "--out", os.path.join(out_dir, f"orbit{i}.pbm")])
            cmds.append(["trajectory", "--start", str(start)])
        return cmds

    def parse(self, runs, out_dir):
        fam = runs[1]["stdout"]
        resolved, k_max, max_stop = _search(
            r"^gamma: (\d+) of (\d+) members reached the ground state "
            r"\(max stopping time (\d+)\)$", fam)
        unresolved = _search(r"^unresolved at step cap \d+: k = ([\d,]+)$", fam)[0] \
            if "unresolved" in fam else ""
        result = {
            "rc": [r["rc"] for r in runs],
            "csv": _read(os.path.join(out_dir, "table1.csv")),
            "families": [int(resolved), int(k_max), int(max_stop),
                         [int(k) for k in unresolved.split(",") if k]],
            "rasters": [], "trajectories": [],
        }
        for i in range(len(ORBIT_STARTS)):
            result["rasters"].append(_read(os.path.join(out_dir, f"orbit{i}.pbm")))
            lines = runs[3 + 2 * i]["stdout"].splitlines()
            rows = [line.split(",") for line in lines[1:] if not line.startswith("#")]
            stop = _search(r"^# stopping_time=(\w+)$", runs[3 + 2 * i]["stdout"])[0]
            result["trajectories"].append({
                "rows": [[int(v), b, int(n)] for _, v, b, n in rows],
                "stopping_time": None if stop == "none" else int(stop),
            })
        return result

    def traced(self, seed, workers, out_dir, span):
        from collatzbin import (ExperimentConfig, Family, family_orbit_probe, orbit_rows,
                                parse_pbm, render_pbm, run_table, run_trajectory)

        config = ExperimentConfig(lengths=TABLE1_LENGTHS, samples=TABLE1_SAMPLES,
                                  runs=TABLE1_RUNS, master_seed=table1_seed(seed))
        with span("run_table"):
            summary = run_table(config, workers=workers)
        with span("family_orbit_probe"):
            probe = family_orbit_probe(Family.GAMMA, GAMMA_K_MAX)
        result = {
            "rc": [0] * (2 + 2 * len(ORBIT_STARTS)),
            "csv": summary.to_csv(),
            "families": [len(probe.stopping_times), probe.k_max, probe.max_stop,
                         list(probe.unresolved)],
            "rasters": [], "trajectories": [],
        }
        for start in ORBIT_STARTS:
            with span("run_trajectory"):
                record = run_trajectory(start)
            with span("orbit_rows"):
                rows = orbit_rows(record.iterates)
            with span("render_pbm"):
                text = render_pbm(rows)
            with span("parse_pbm"):
                if parse_pbm(text) != rows:
                    text = "round trip failed\n"
            result["rasters"].append(text)
            with span("run_trajectory"):
                record = run_trajectory(start)
            result["trajectories"].append({
                "rows": [[y.numerator, y.to_bits(), y.length] for y in record.iterates],
                "stopping_time": record.stopping_time,
            })
        return result


class Audit(Workload):
    name = "audit"

    def argv(self, seed, workers, out_dir):
        # one command per length, as `audit --ell 16,64,256` would loop over them, so
        # that no timed command is much longer than a second (see calibrate.py)
        return [["audit", "--ell", str(ell), "--samples", str(AUDIT_SAMPLES),
                 "--seed", str(audit_seed(seed))] for ell in AUDIT_ELLS]

    def parse(self, runs, out_dir):
        stdout = "".join(run["stdout"] for run in runs)
        cells = re.findall(r"^ell=(\d+): (\d+) samples, (\d+) violations$",
                           stdout, re.MULTILINE)
        return {"rc": [run["rc"] for run in runs], "ells": [[int(x) for x in c] for c in cells]}

    def traced(self, seed, workers, out_dir, span):
        from collatzbin import audit_length_deltas

        ells = []
        for ell in AUDIT_ELLS:
            with span("audit_length_deltas"):
                summary = audit_length_deltas(AUDIT_SAMPLES, ell, seed=audit_seed(seed))
            ells.append([ell, summary.samples, len(summary.violations)])
        return {"rc": [0 if v == 0 else 1 for _, _, v in ells], "ells": ells}


class KStar(Workload):
    name = "kstar"

    def argv(self, seed, workers, out_dir):
        return [["kstar", "--ell", str(KSTAR_ELL), "--k-max", str(KSTAR_K_MAX)]]

    def parse(self, runs, out_dir):
        (run,) = runs
        out = run["stdout"]
        return {"rc": [run["rc"]], "ell": int(_search(r"^ell = (\d+)$", out)[0]),
                "k_star": int(_search(r"^k\* = (\d+)$", out)[0]),
                "c": _search(r"^c = ([\d.]+)$", out)[0],
                "eps": _search(r"^eps = ([\d.]+)$", out)[0]}

    def traced(self, seed, workers, out_dir, span):
        from collatzbin import kstar_scan, to_decimal

        with span("kstar_scan"):
            report = kstar_scan(KSTAR_ELL, KSTAR_K_MAX, collect_margins=True)
        with span("to_decimal"):
            c = to_decimal(report.critical, 6)
        with span("to_decimal"):
            eps = to_decimal(report.epsilon, 6)
        return {"rc": [0], "ell": report.ell, "k_star": report.k_star, "c": c, "eps": eps}


WORKLOADS = {w.name: w for w in (Exhaustive(), Orbits(), Audit(), KStar())}
