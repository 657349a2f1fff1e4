"""Reference speed: a fixed pure-Python loop timed alongside the queries.

The shared two-core machines this benchmark runs on change speed by up to
half over seconds to minutes, and the change hits a whole run alike. Every
timing the benchmark reports is therefore scaled to a fixed reference speed:
multiplied by REFERENCE_MS over the loop's time measured around it. The loop
does integer row operations on Python lists, like the group kernel, and
shares no code with wittkit, so a change to wittkit cannot move it.
"""

import statistics
import time

# the loop's time, in ms, at the reference speed the figures are quoted at
REFERENCE_MS = 1.5
PROBE_EVERY_S = 0.05
_WINDOW = 2               # probes on each side used to scale one query


def reference_loop(n=20):
    rows = [[(i * 7 + j * 3) % 11 + 1 for j in range(n)] for i in range(n)]
    for k in range(n):
        pivot = rows[k]
        for i in range(n):
            if i != k:
                f = rows[i][k]
                rows[i] = [(x * 3 - f * y) % 1000003 for x, y in zip(rows[i], pivot)]
    return rows


def probe() -> float:
    """Seconds of one reference loop: the fastest of three."""
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        reference_loop()
        best = min(best, time.perf_counter() - start)
    return best


class SpeedLog:
    """Probes taken every PROBE_EVERY_S of wall time while a run goes on."""

    def __init__(self):
        self.probes = [probe()]
        self.last = time.perf_counter()

    def tick(self) -> int:
        """Probe if due; return the index of the latest probe."""
        if time.perf_counter() - self.last >= PROBE_EVERY_S:
            self.probes.append(probe())
            self.last = time.perf_counter()
        return len(self.probes) - 1

    def close(self):
        self.probes.append(probe())

    def scale(self, index: int) -> float:
        """Factor that brings a time measured after probe ``index`` to the
        reference speed: the median of the probes around it."""
        near = self.probes[max(0, index - _WINDOW):index + _WINDOW + 1]
        return REFERENCE_MS * 1e-3 / statistics.median(near)

    def run_scale(self) -> float:
        return REFERENCE_MS * 1e-3 / statistics.median(self.probes)
