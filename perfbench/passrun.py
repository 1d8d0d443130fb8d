"""Run one workload pass in a fresh interpreter and print it as one JSON line.

Usage: python3 passrun.py '<json spec>' with keys workload, seed, workers,
out_dir and traced.  The parent (`run.py`) starts one such process per pass,
so peak RSS is this pass's own: the largest of this process and the worker
processes it waited for.

Untraced, the pass calls `collatzbin.cli.main` with each command's argv and
captures what it prints.  Traced, it calls the same layer functions the CLI
would, and records a span (name, start, end, parent, pass id) around each
call, all nested under one span for the pass.  Spans stay in memory and go
out with the result.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import sys
import time

from calibrate import REFERENCE_S, Gauge
from workloads import WORKLOADS


class Spans:
    """In-memory span recorder; span ids index the `records` list."""

    def __init__(self, pass_id: str):
        self.pass_id = pass_id
        self.records: list[dict] = []
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        record = {"name": name, "start": time.perf_counter(), "end": None,
                  "parent": self._stack[-1] if self._stack else None,
                  "pass": self.pass_id}
        self.records.append(record)
        self._stack.append(len(self.records) - 1)
        try:
            yield
        finally:
            self._stack.pop()
            record["end"] = time.perf_counter()


def run_cli(workload, spec: dict, gauge: Gauge) -> tuple[float, float, dict]:
    """Raw and machine-speed-scaled seconds of the pass, and its result.

    Each command's seconds are scaled by REFERENCE_S over the mean of the
    gauge's probes just before and just after it.
    """
    from collatzbin.cli import main

    argvs = workload.argv(spec["seed"], spec["workers"], spec["out_dir"])
    runs, raw, scaled = [], 0.0, 0.0
    before = gauge.probe()
    for argv in argvs:
        out, err = io.StringIO(), io.StringIO()
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = main(argv)
        seconds = time.perf_counter() - t0
        after = gauge.probe()
        raw += seconds
        scaled += seconds * REFERENCE_S * 2 / (before + after)
        before = after
        runs.append({"argv": argv, "rc": rc, "stdout": out.getvalue(),
                     "stderr": err.getvalue()})
    return raw, scaled, workload.parse(runs, spec["out_dir"])


def run_traced(workload, spec: dict, spans: Spans) -> tuple[float, dict]:
    import collatzbin  # noqa: F401  (imported before the pass span opens)

    t0 = time.perf_counter()
    with spans.span(f"pass:{workload.name}"):
        result = workload.traced(spec["seed"], spec["workers"], spec["out_dir"], spans.span)
    return time.perf_counter() - t0, result


def main() -> int:
    spec = json.loads(sys.argv[1])
    workload = WORKLOADS[spec["workload"]]
    spans = Spans(spec.get("pass_id", "0"))
    if spec["traced"]:
        seconds, result = run_traced(workload, spec, spans)
        scaled = None
    else:
        takes_workers = any("--workers" in argv for argv in workload.argv(None, 1, ""))
        gauge = Gauge(spec["workers"] if takes_workers else 1)
        try:
            seconds, scaled, result = run_cli(workload, spec, gauge)
        finally:
            gauge.close()
    rss_kib = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                  resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    print(json.dumps({"seconds": seconds, "scaled_seconds": scaled, "result": result,
                      "spans": spans.records, "peak_rss_mib": rss_kib / 1024}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
