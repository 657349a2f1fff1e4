"""Time one fresh set-up: import wittkit, then generate and load a workload.

Usage: python3 bench/probe.py <workload> <seed> <scratch-dir>

Prints the seconds from just before ``import wittkit`` until every input of
the workload is generated and loaded, raw and scaled to the reference speed
of ``speed.py`` (timed just before and after). ``run.py`` starts this several
times, each in a fresh interpreter, and reports the median as ``setup_s``.
"""

import json
import os
import shutil
import sys
import time

sys.dont_write_bytecode = True
BENCH = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, BENCH)

# benchmark code is compiled before the clock starts
import speed  # noqa: E402
import workloads  # noqa: E402


def main():
    name, seed, workdir = sys.argv[1], int(sys.argv[2]), sys.argv[3]
    sys.path.insert(0, os.path.join(os.path.dirname(BENCH), "src"))
    before = speed.probe()
    start = time.perf_counter()
    import wittkit

    workloads.build(name, seed, wittkit, workdir)
    elapsed = time.perf_counter() - start
    after = speed.probe()
    shutil.rmtree(workdir, ignore_errors=True)
    scale = speed.REFERENCE_MS * 1e-3 / ((before + after) / 2)
    print(json.dumps({"raw_s": elapsed, "scaled_s": elapsed * scale}))


if __name__ == "__main__":
    main()
