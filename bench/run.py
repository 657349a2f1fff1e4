#!/usr/bin/env python3
"""wittkit benchmark: seeded closed-loop workloads, checked outputs.

Usage:
  python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; wittkit is imported from ``src/``. One
process, one client: each query is sent when the previous one has returned.
With ``--trace 0`` the run prints the end-to-end metrics; with ``--trace 1``
it wraps the public functions of every wittkit module and prints per-layer
metrics instead. The last line of stdout is the result object; the line
before it is a report with provenance, the workload mix and any failures.
See bench/README.md for the metric and workload definitions.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

sys.dont_write_bytecode = True
BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, BENCH)

import workloads  # noqa: E402
from spans import Tracer  # noqa: E402
from speed import SpeedLog  # noqa: E402

SETUP_STARTS = 7          # fresh interpreters timed per run for setup_s
WARMUP_QUERIES = 8        # untimed queries before measuring
TRACE_CAP = 3.0           # a traced run stops after this many --seconds


def _require_source():
    if not os.path.isfile(os.path.join(SRC, "wittkit", "__init__.py")):
        raise SystemExit("error: no wittkit source under %s" % SRC)


def _import_wittkit():
    sys.path.insert(0, SRC)
    import wittkit

    return wittkit


def _workdir():
    return os.path.join(ROOT, ".bench_tmp", str(os.getpid()))


def setup_seconds(name, seed):
    """Median set-up time over fresh interpreters."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    times = []
    for i in range(SETUP_STARTS):
        workdir = os.path.join(_workdir(), "probe%d" % i)
        done = subprocess.run(
            [sys.executable, os.path.join(BENCH, "probe.py"), name, str(seed), workdir],
            env=env, cwd=ROOT, capture_output=True, text=True, timeout=120)
        if done.returncode != 0:
            raise SystemExit("error: set-up probe failed:\n" + done.stderr)
        times.append(json.loads(done.stdout.strip().splitlines()[-1]))
    scaled = [t["scaled_s"] for t in times]
    return statistics.median(scaled), times


# ---------------------------------------------------------------------------
# the closed loop


class Tally:
    """What a run observed: latencies, failures, repeats and the input mix."""

    def __init__(self):
        self.latencies = []        # raw seconds
        self.probe_index = []      # latest speed probe before each query
        self.attempted = 0
        self.failed = 0
        self.failed_wellformed = 0
        self.failures = []
        self.seen = set()
        self.repeats = 0
        self.entries = {}
        self.hist = {"genus": {}, "b2": {}, "summands": {}}
        self.scaling = []          # (b1 / 2, seconds) of witt_table on curves

    def add(self, query, seconds, reason, probe_index):
        self.latencies.append(seconds)
        self.probe_index.append(probe_index)
        self.attempted += 1
        if reason is not None:
            self.failed += 1
            self.failed_wellformed += not query.malformed
            if len(self.failures) < 5:
                self.failures.append({"entry": query.entry, "space": query.space[:120],
                                      "reason": reason[:300]})
        key = (query.entry, query.space)
        self.repeats += key in self.seen
        self.seen.add(key)
        self.entries[query.entry] = self.entries.get(query.entry, 0) + 1
        for prop, width in (("genus", 5), ("b2", 5), ("summands", 10)):
            if prop in query.props:
                lo = query.props[prop] // width * width
                label = "%d-%d" % (lo, lo + width - 1)
                bins = self.hist[prop]
                bins[label] = bins.get(label, 0) + 1
        if query.entry.startswith("witt_table") and query.props.get("curve_b1"):
            self.scaling.append((query.props["curve_b1"] / 2, len(self.latencies) - 1))

    def scaled(self, speed):
        """Latencies in seconds at the reference speed."""
        return [t * speed.scale(i) for t, i in zip(self.latencies, self.probe_index)]


def call(query):
    """Time one query; an exception that escapes it is its result."""
    start = time.perf_counter()
    try:
        result = query.call()
    except Exception as exc:  # the query failed; the run goes on
        result = exc
    return time.perf_counter() - start, result


def verdict(query, result):
    """Check a query's result: None when correct, else the reason."""
    if isinstance(result, Exception):
        return "raised %s: %s" % (type(result).__name__, result)
    try:
        return query.check(result)
    except Exception as exc:  # output the check cannot read
        return "unreadable output: %s: %s" % (type(exc).__name__, exc)


def warm_up(workload):
    for query in workload.rounds[-1][:WARMUP_QUERIES]:
        call(query)


def measure(workload, seconds, speed):
    """Whole rounds until the summed query time reaches ``seconds``."""
    tally, busy, r = Tally(), 0.0, 0
    while busy < seconds:
        for query in workload.rounds[r % len(workload.rounds)]:
            index = speed.tick()
            dt, result = call(query)
            busy += dt
            tally.add(query, dt, verdict(query, result), index)
        r += 1
    speed.close()
    return tally, r


def measure_traced(workload, tracer, seconds, speed):
    """Each query twice, traced and plain, alternating which goes first."""
    traced, plain = Tally(), Tally()
    started = time.perf_counter()
    r = 0
    while r < workload.trace_rounds and time.perf_counter() - started < TRACE_CAP * seconds:
        for k, query in enumerate(workload.rounds[r % len(workload.rounds)]):
            for on in ((True, False) if k % 2 == 0 else (False, True)):
                index = speed.tick()
                if on:
                    tracer.enable()
                dt, result = call(query)
                if on:
                    tracer.disable()
                    tracer.fold()
                (traced if on else plain).add(query, dt, verdict(query, result), index)
        r += 1
    speed.close()
    return traced, plain, r


# ---------------------------------------------------------------------------
# metrics


def percentile(values, pct):
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, math.ceil(pct / 100 * len(ordered)))
    return ordered[rank - 1]


def genus_exponent(tally, latencies):
    """Least-squares slope of log(time) against log(genus), genus >= 8.

    Below genus 8 fixed per-call costs hide the growth of the group kernel.
    """
    points = [(math.log(g), math.log(latencies[i])) for g, i in tally.scaling
              if g >= 8 and latencies[i] > 0]
    if len(points) < 2:
        return 0.0
    mx = statistics.fmean(x for x, _ in points)
    my = statistics.fmean(y for _, y in points)
    sxx = sum((x - mx) ** 2 for x, _ in points)
    if sxx == 0:
        return 0.0
    return sum((x - mx) * (y - my) for x, y in points) / sxx


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(tally, latencies, setup_s, tail_pct):
    return {
        "setup_s": _metric(setup_s, "s"),
        "throughput_qps": _metric(tally.attempted / sum(latencies), "1/s"),
        "latency_p50_ms": _metric(statistics.median(latencies) * 1e3, "ms"),
        "latency_tail_ms": _metric(percentile(latencies, tail_pct) * 1e3, "ms"),
        "ok_frac": _metric((tally.attempted - tally.failed) / tally.attempted, "frac"),
        "peak_rss_mb": _metric(peak_rss_mb(), "MB"),
    }


PER_LAYER_UNITS = {"calls": "count", "errors": "count", "cells": "count",
                   "max_dim": "count", "self_ms": "ms", "total_ms": "ms",
                   "pages_turned": "count", "unknown_arrows": "count"}


def per_layer(tracer, traced, plain, speed):
    scale = speed.run_scale()
    out = {}
    for name, value in tracer.metrics().items():
        unit = PER_LAYER_UNITS[name.rpartition(".")[2]]
        out[name] = _metric(value * scale if unit == "ms" else value, unit)
    plain_s = plain.scaled(speed)
    overhead = sum(traced.scaled(speed)) / sum(plain_s) - 1.0
    out["trace_overhead_frac"] = _metric(overhead, "frac")
    out["witt.genus_exponent"] = _metric(genus_exponent(plain, plain_s), "1")
    out["repeat_share"] = _metric(traced.repeats / traced.attempted, "frac")
    return out


# ---------------------------------------------------------------------------
# provenance


def _git_commit():
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head, encoding="utf-8") as fh:
            ref = fh.read().strip()
        if not ref.startswith("ref: "):
            return ref
        with open(os.path.join(ROOT, ".git", ref[5:]), encoding="utf-8") as fh:
            return fh.read().strip()
    except OSError:
        return None


def _source_digest():
    digest = hashlib.sha256()
    pkg = os.path.join(SRC, "wittkit")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    return digest.hexdigest()[:16]


def provenance(args, workload):
    return {
        "commit": _git_commit(),
        "source_sha256": _source_digest(),
        "python": "%s %s" % (platform.python_implementation(), platform.python_version()),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "PYTHONDONTWRITEBYTECODE": os.environ.get("PYTHONDONTWRITEBYTECODE"),
        "tail_percentile": workload.tail_pct,
    }


def describe(tally, latencies, rounds, tail_pct, speed):
    n = len(latencies)
    beyond = n - max(1, math.ceil(tail_pct / 100 * n))
    raw = tally.latencies
    return {
        "rounds": rounds,
        "queries": n,
        "tail_samples_beyond": beyond,
        "reference_loop_ms": statistics.median(speed.probes) * 1e3,
        "raw_unscaled": {
            "throughput_qps": n / sum(raw),
            "latency_p50_ms": statistics.median(raw) * 1e3,
            "latency_tail_ms": percentile(raw, tail_pct) * 1e3,
        },
        "failed_frac": tally.failed / tally.attempted,
        "failed_wellformed": tally.failed_wellformed,
        "repeat_share": tally.repeats / tally.attempted,
        "entries": dict(sorted(tally.entries.items())),
        "histograms": {k: dict(sorted(v.items(), key=lambda kv: int(kv[0].split("-")[0])))
                       for k, v in tally.hist.items() if v},
        "witt_genus_exponent": genus_exponent(tally, latencies),
        "failures": tally.failures,
    }


# ---------------------------------------------------------------------------


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    _require_source()

    setup_s = setup_times = None
    if not args.trace:
        setup_s, setup_times = setup_seconds(args.workload, args.seed)
    wk = _import_wittkit()
    tracer = None
    if args.trace:
        # import every module the workload calls before wrapping, then trace
        # the set-up too: descriptor loading is part of the spaces layer
        import wittkit.cli  # noqa: F401

        tracer = Tracer()
        tracer.install()
    try:
        workload = workloads.build(args.workload, args.seed, wk, _workdir())
        if tracer is not None:
            tracer.disable()
            tracer.fold()
        warm_up(workload)
        speed = SpeedLog()
        if tracer is not None:
            tally, plain, rounds = measure_traced(workload, tracer, args.seconds, speed)
            metrics = per_layer(tracer, tally, plain, speed)
            report = describe(tally, tally.scaled(speed), rounds, workload.tail_pct, speed)
            report["trace_overhead_frac"] = metrics["trace_overhead_frac"]["value"]
        else:
            tally, rounds = measure(workload, args.seconds, speed)
            latencies = tally.scaled(speed)
            metrics = end_to_end(tally, latencies, setup_s, workload.tail_pct)
            report = describe(tally, latencies, rounds, workload.tail_pct, speed)
            report["setup_starts_s"] = setup_times
    finally:
        shutil.rmtree(_workdir(), ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(os.path.dirname(_workdir()))
    report["workload"] = args.workload
    report["provenance"] = provenance(args, workload)
    print(json.dumps(report, sort_keys=True))
    print(json.dumps({
        "correct": tally.failed_wellformed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
