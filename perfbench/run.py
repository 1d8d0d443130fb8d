"""collatzbin benchmark: end-to-end CLI workloads, per-layer timings and a traced run.

Usage, from the repository root:

    python3 perfbench/run.py --workload exhaustive|orbits|audit|kstar|all
                             [--seed N] [--seconds S] [--trace 0|1]

Each workload is a closed loop: one client runs passes back to back, every
pass in a fresh interpreter, with at most two worker processes at a time.
A pass is the workload's commands at one worker (w1), then with --workers 2
where a command takes that flag (w2).
Every output is checked (see `checks.py`); a failure prints its witness on
stderr and makes the exit code 1.

--trace 0 reports the end-to-end metrics: wall_s, wall_w2_s, setup_s and
peak_rss_mib; the times are scaled to a reference machine speed (see
`calibrate.py`) and the raw pass medians are logged beside them.  --trace 1 reports the per-layer metrics: layer timings, the
work counts of one pass, the share of failed passes and the tracing
overhead; it also writes the spans of its traced passes, with the self time
of each boundary, to perfbench/out/.  The last line of stdout is one JSON
object with the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import time
from statistics import median, quantiles

from calibrate import REFERENCE_S, probe

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
ENV = dict(os.environ, PYTHONPATH=SRC)

SETUP_PROBES_PER_PASS = 2
PASS_TIMEOUT_S = 60


def setup_seconds(probes: int) -> list[float]:
    """Seconds from starting a fresh interpreter until collatzbin.cli is imported.

    Each is scaled by the machine's speed around it, as pass seconds are
    (see calibrate.py).
    """
    code = "import collatzbin.cli; print('ready', flush=True)"
    times = []
    for _ in range(probes):
        before = probe()
        t0 = time.perf_counter()
        with subprocess.Popen([sys.executable, "-c", code], stdout=subprocess.PIPE,
                              env=ENV, cwd=ROOT) as proc:
            line = proc.stdout.readline()
            seconds = time.perf_counter() - t0
            proc.wait()
        times.append(seconds * REFERENCE_S * 2 / (before + probe()))
        if line != b"ready\n" or proc.returncode != 0:
            raise RuntimeError(f"import probe exited {proc.returncode}")
    return times


def run_pass(name: str, seed: int | None, workers: int, traced: bool, pass_id: str) -> dict:
    """Run one pass in a fresh process; its report, or {"error": ...}."""
    out_dir = os.path.join(OUT, f"tmp-{os.getpid()}-{pass_id}")
    os.makedirs(out_dir, exist_ok=True)
    spec = {"workload": name, "seed": seed, "workers": workers, "traced": traced,
            "out_dir": out_dir, "pass_id": pass_id}
    proc = subprocess.Popen([sys.executable, os.path.join(HERE, "passrun.py"), json.dumps(spec)],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=ENV, cwd=ROOT,
                            start_new_session=True)
    try:
        out, err = proc.communicate(timeout=PASS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)  # the pass and its pool workers
        out, err = proc.communicate()
    shutil.rmtree(out_dir, ignore_errors=True)
    try:
        return json.loads(out.decode().splitlines()[-1])
    except (IndexError, ValueError):
        return {"error": f"pass process exited {proc.returncode}: {err.decode()[-2000:]}"}


class Verdicts:
    """Checks each distinct result once; every result must equal the first."""

    def __init__(self, name: str, seed: int | None):
        from checks import CHECKS

        self.check = CHECKS[name]
        self.seed = seed
        self.first: str | None = None
        self.cache: dict[str, list[str]] = {}

    def failures(self, report: dict) -> list[str]:
        if "error" in report:
            return [report["error"]]
        key = json.dumps(report["result"], sort_keys=True)
        if key not in self.cache:
            try:
                self.cache[key] = self.check(report["result"], self.seed)
            except (KeyError, TypeError, ValueError) as exc:
                self.cache[key] = [f"malformed result: {exc!r}"]
        if self.first is None:
            self.first = key
        if key != self.first:
            return self.cache[key] + [f"result differs from the first pass: "
                                      f"{key[:300]} vs {self.first[:300]}"]
        return self.cache[key]


def spread(values: list[float]) -> tuple[float, float]:
    """(first, third) quartile; the single value twice for one sample."""
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = quantiles(values, n=4)
    return q1, q3


def measure(name: str, seed: int | None, seconds: float, log) -> tuple[dict, int, int]:
    """Untraced passes for `seconds`; the end-to-end metrics and (attempted, failed)."""
    verdicts = Verdicts(name, seed)
    deadline = time.perf_counter() + seconds
    setup_seconds(1)  # warms the bytecode cache; not a sample
    setup, wall, wall_w2, rss, durations = [], [], [], [], []
    raw, raw_w2 = [], []
    failed = 0
    while True:
        t0 = time.perf_counter()
        pid = str(len(durations))
        setup += setup_seconds(SETUP_PROBES_PER_PASS)
        w1 = run_pass(name, seed, 1, False, pid + "a")
        w2 = run_pass(name, seed, 2, False, pid + "b")
        durations.append(time.perf_counter() - t0)
        bad = verdicts.failures(w1) + verdicts.failures(w2)
        if bad:
            failed += 1
            for witness in bad:
                print(f"CHECK FAILED [{name} pass {pid}]: {witness}", file=sys.stderr)
        else:
            wall.append(w1["scaled_seconds"])
            wall_w2.append(w2["scaled_seconds"])
            raw.append(w1["seconds"])
            raw_w2.append(w2["seconds"])
            rss.append(max(w1["peak_rss_mib"], w2["peak_rss_mib"]))
        if time.perf_counter() + median(durations) / 2 > deadline:
            break
    samples = {"wall_s": (wall, "s"), "wall_w2_s": (wall_w2, "s"),
               "setup_s": (setup, "s"), "peak_rss_mib": (rss, "MiB")}
    metrics = {}
    for key, (values, unit) in samples.items():
        if not values:
            continue
        q1, q3 = spread(values)
        metrics[key] = {"value": median(values), "unit": unit}
        log(f"{name} {key}: median {median(values):.6g} {unit} "
            f"(q1 {q1:.6g}, q3 {q3:.6g}, n={len(values)}) "
            f"[{' '.join(f'{v:.4g}' for v in values)}]")
    for key, values in (("wall_s", raw), ("wall_w2_s", raw_w2)):
        if values:
            log(f"{name} {key} unscaled: median {median(values):.6g} s "
                f"[{' '.join(f'{v:.4g}' for v in values)}]")
    log(f"{name} failed_frac: {failed}/{len(durations)} passes")
    return metrics, len(durations), failed


def self_times(spans: list[dict], passes: int) -> dict[str, float]:
    """Seconds per pass of each span name, minus the time its child spans cover."""
    own = [s["end"] - s["start"] for s in spans]
    for s in spans:
        if s["parent"] is not None:
            own[s["parent"]] -= s["end"] - s["start"]
    totals: dict[str, float] = {}
    for s, t in zip(spans, own):
        totals[s["name"]] = totals.get(s["name"], 0.0) + t / passes
    return totals


def trace(name: str, seed: int | None, seconds: float, log) -> tuple[dict, int, int, dict]:
    """Layer timings, then alternating untraced and traced w1 passes for `seconds`."""
    import layers

    deadline = time.perf_counter() + seconds
    metrics = {k: {"value": v, "unit": u} for k, (v, u) in layers.layer_metrics(seed).items()}
    verdicts = Verdicts(name, seed)
    plain, traced, spans, durations = [], [], [], []
    failed = 0
    result = None
    while True:
        t0 = time.perf_counter()
        pid = str(len(durations))
        untraced = run_pass(name, seed, 1, False, pid + "u")
        with_spans = run_pass(name, seed, 1, True, pid + "t")
        durations.append(time.perf_counter() - t0)
        bad = verdicts.failures(untraced) + verdicts.failures(with_spans)
        if bad:
            failed += 1
            for witness in bad:
                print(f"CHECK FAILED [{name} traced pass {pid}]: {witness}", file=sys.stderr)
        else:
            result = untraced["result"]
            plain.append(untraced["seconds"])
            traced.append(with_spans["seconds"])
            # span ids index each pass's own list; shift them into the merged one
            base = len(spans)
            for s in with_spans["spans"]:
                parent = None if s["parent"] is None else s["parent"] + base
                spans.append({**s, "parent": parent})
        if time.perf_counter() + median(durations) / 2 > deadline:
            break
    attempted = len(durations)
    if result is not None:
        for key, count in layers.pass_counts(name, seed, result).items():
            metrics[key] = {"value": count, "unit": "count"}
        metrics["trace.overhead_s"] = {"value": median(traced) - median(plain), "unit": "s"}
    metrics["failed_frac"] = {"value": failed / attempted, "unit": "ratio"}
    selfs = self_times(spans, len(traced)) if traced else {}
    for span_name, t in sorted(selfs.items()):
        log(f"{name} span {span_name}: self {t:.6g} s per pass")
    for key, entry in metrics.items():
        log(f"{name} {key}: {entry['value']:.6g} {entry['unit']}")
    report = {"workload": name, "seed": seed, "untraced_s": plain, "traced_s": traced,
              "overhead_s": metrics.get("trace.overhead_s", {}).get("value"),
              "self_s_per_pass": selfs, "spans": spans}
    return metrics, attempted, failed, report


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=None,
                        help="workload seed; default: the CLI defaults (20250815, 0)")
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "collatzbin", "cli.py")):
        print(f"error: no collatzbin sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    from workloads import WORKLOADS

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    if any(n not in WORKLOADS for n in names):
        parser.error(f"--workload must be one of {', '.join(WORKLOADS)} or all")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    def log(line: str) -> None:
        print(line, flush=True)

    metrics: dict[str, dict] = {}
    attempted = failed = 0
    span_reports = []
    for name in names:
        if args.trace:
            m, a, f, report = trace(name, args.seed, args.seconds, log)
            span_reports.append(report)
        else:
            m, a, f = measure(name, args.seed, args.seconds, log)
        prefix = f"{name}." if len(names) > 1 else ""
        metrics.update({prefix + k: v for k, v in m.items()})
        attempted += a
        failed += f
    if span_reports:
        os.makedirs(OUT, exist_ok=True)
        path = os.path.join(OUT, f"spans-{args.workload}-seed{args.seed}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(span_reports, fh)
        log(f"wrote {os.path.relpath(path, ROOT)}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
