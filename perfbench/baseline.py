"""Repeat the benchmark over several seeds and summarize each end-to-end metric.

Usage, from the repository root:

    python3 perfbench/baseline.py [--workloads a,b] [--seeds 1,2,...] [--seconds S]
                                  [--trace 0|1] [--write perfbench/BASELINE.json]

For every workload it runs `run.py` once per seed and reports, per metric,
the median of the per-run values and their spread: the distance between the
first and third quartile (statistics.quantiles, n=4) as a share of the
median.  --write stores the summary, with the environment the figures were
taken in, under "end_to_end" or "per_layer" (by --trace) in that JSON file,
keeping the other section.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from statistics import median, quantiles

from calibrate import REFERENCE_S

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("exhaustive", "orbits", "audit", "kstar")


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def commit() -> str:
    try:
        return subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run([sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
                          cwd=ROOT, capture_output=True, text=True, timeout=600)
    *log, last = proc.stdout.splitlines()
    print("\n".join(log), flush=True)
    result = json.loads(last)
    if proc.returncode != 0 or not result["correct"]:
        raise RuntimeError(f"{workload} seed {seed} failed:\n{proc.stderr[-2000:]}")
    return result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=",".join(WORKLOADS))
    parser.add_argument("--seeds", default="1,2,3,4,5,6,7,8,9,10")
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write", default=None, help="JSON file for the summary")
    args = parser.parse_args()
    seeds = [int(s) for s in args.seeds.split(",")]

    summary = {}
    for workload in args.workloads.split(","):
        values: dict[str, list[float]] = {}
        units = {}
        for seed in seeds:
            result = run_once(workload, seed, args.seconds, args.trace)
            for key, m in result["metrics"].items():
                values.setdefault(key, []).append(m["value"])
                units[key] = m["unit"]
            print(workload, seed, {k: round(m["value"], 4)
                                   for k, m in result["metrics"].items()}, flush=True)
        summary[workload] = {}
        for key, vals in values.items():
            q1, _, q3 = quantiles(vals, n=4) if len(vals) > 1 else vals * 3
            med = median(vals)
            share = (q3 - q1) / med if med else None
            summary[workload][key] = {"median": med, "unit": units[key], "q1": q1, "q3": q3,
                                      "spread": share, "runs": len(vals), "values": vals}
            print(f"{workload} {key}: median {med:.4g} {units[key]}, "
                  f"spread {share} over {len(vals)} runs", flush=True)
    if args.write:
        record = {}
        if os.path.exists(args.write):
            with open(args.write, encoding="utf-8") as fh:
                record = json.load(fh)
        section = "per_layer" if args.trace else "end_to_end"
        record[section] = {
            "environment": {
                "nproc": os.cpu_count(), "python": platform.python_version(),
                "cpu_model": cpu_model(), "commit": commit(), "seeds": seeds,
                "run_seconds": args.seconds,
                "machine_tuning": "none: no CPU pinning, no frequency, cache or cgroup "
                                  "control; other tenants may share the machine",
                "time_scale": f"end-to-end seconds are scaled to the machine speed at "
                              f"which calibrate.loop takes {REFERENCE_S} s",
            },
            "workloads": summary,
        }
        with open(args.write, "w", encoding="utf-8") as fh:
            json.dump(record, fh, indent=1)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
