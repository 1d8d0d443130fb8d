"""A fixed pure-Python loop that gauges how fast the machine runs right now.

On a shared host the speed of the same code drifts by tens of percent over
seconds and minutes.  `probe` runs a loop that belongs to the benchmark, not
to collatzbin, so no change to the package can alter its work.  The pass
runner probes before and after every command and scales each command's
seconds by REFERENCE_S over the mean of the two probes around it.  A
command that runs two worker processes is gauged on two processes at once,
since its speed depends on both cores.
"""

from __future__ import annotations

import os
import struct
import time

# probe seconds on the machine the baseline was measured on (median of many)
REFERENCE_S = 0.0047
STARTS = range(3, 14003, 2)
LOOPS_PER_PROBE = 3


def loop() -> int:
    """Stopping times of the odd starts in STARTS, by the plain 3x+1 rule."""
    total = 0
    for n in STARTS:
        x = n
        while x >= n:
            x = (3 * x + 1) >> 1 if x & 1 else x >> 1
            total += 1
    return total


def probe() -> float:
    """Median seconds of LOOPS_PER_PROBE runs of `loop`, taken now.

    The median keeps a single interrupted loop from setting the scale.
    """
    times = []
    for _ in range(LOOPS_PER_PROBE):
        t0 = time.perf_counter()
        loop()
        times.append(time.perf_counter() - t0)
    return sorted(times)[LOOPS_PER_PROBE // 2]


class Gauge:
    """Probes on `width` processes at once: this one and width - 1 forked helpers.

    Fork it before importing collatzbin, so the helpers stay small.  Each
    helper idles on a pipe until asked to probe; `close` ends and reaps them.
    """

    def __init__(self, width: int):
        self.helpers: list[tuple[int, int, int]] = []  # pid, ask fd, answer fd
        for _ in range(width - 1):
            ask_r, ask_w = os.pipe()
            ans_r, ans_w = os.pipe()
            pid = os.fork()
            if pid == 0:
                try:
                    os.close(ask_w)
                    os.close(ans_r)
                    while os.read(ask_r, 1):
                        os.write(ans_w, struct.pack("d", probe()))
                finally:
                    os._exit(0)
            os.close(ask_r)
            os.close(ans_w)
            self.helpers.append((pid, ask_w, ans_r))

    def probe(self) -> float:
        """Mean of the processes' `probe` seconds, all started together."""
        for _, ask, _ in self.helpers:
            os.write(ask, b"p")
        times = [probe()]
        for _, _, answer in self.helpers:
            times.append(struct.unpack("d", os.read(answer, 8))[0])
        return sum(times) / len(times)

    def close(self) -> None:
        for pid, ask, answer in self.helpers:
            os.close(ask)
            os.close(answer)
            os.waitpid(pid, 0)
        self.helpers = []
