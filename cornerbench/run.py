#!/usr/bin/env python3
"""Time to a checked corner solution: the cornerwave benchmark.

    python3 cornerbench/run.py --workload type3 [--seed 0] [--seconds 40] [--trace 0]

Run from anywhere inside a checkout; the benchmark imports cornerwave
from the checkout's ``src`` and reads its ``configs``.  Workloads are
defined in ``workloads.py``.  Each workload is set up once (its config
generated from the seed), then driven through ``pipeline.run`` pass after
pass, on one core in this one process, for ``--seconds`` seconds and at
least two passes.  Every pass is checked:
it fails when it raises, writes a verdict other than corner, misses an
expected artifact, reports a non-finite number, or writes artifacts
whose bytes differ from the first pass.

``--trace 0`` reports the end-to-end metrics: medians over the passes,
plus the median of five set-ups (this process and four fresh ones).
``--trace 1`` alternates untraced and traced passes (``tracing.py``) and
reports the per-layer metrics as medians over the traced passes, with
the tracing overhead (traced minus untraced run time) in the report.

A human-readable report comes first; the last line of standard output
is one JSON object with the keys correct, attempted, failed and metrics.
All files go to ``.cornerbench_work/`` in the checkout and are removed
at the end.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKROOT = ROOT / ".cornerbench_work"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS")
MIN_PASSES = 2
SETUP_REPEATS = 5
WORKLOAD_NAMES = ("type3", "beta2-capped")  # workloads.WORKLOADS

END_TO_END = {
    "run_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "final_energy": "J/c",
    "opening_err_deg": "deg",
    "density_rel_err": "ratio",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="set up, print the set-up time and exit")
    return parser.parse_args(argv)


class Passes:
    """Runs and checks passes of one workload's job."""

    def __init__(self, workloads, job, c: float):
        self.workloads = workloads
        self.job = job
        self.c = c
        self.attempted = 0
        self.failures: list[str] = []
        self.digests: dict[str, str] = {}

    def run(self) -> dict | None:
        """One checked pass; its values, or None when it failed."""
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            cfg, manifest = self.workloads.run_job(self.job)
            seconds = time.perf_counter() - t0
            check = self.workloads.check_job(self.job, cfg, manifest, self.c)
        except Exception:
            self.failures.append(traceback.format_exc(limit=-2))
            return None
        problems = list(check.problems)
        if self.digests.setdefault(self.job.name, check.digest) != check.digest:
            problems.append(f"{self.job.name}: artifacts differ from the first pass")
        if problems:
            self.failures.append("; ".join(problems))
            return None
        return {"run_s": seconds, **check.values}

    def loop(self, seconds: float, tracer=None):
        """Passes until ``seconds`` have gone and ``MIN_PASSES`` were made,
        every second one traced when a tracer is given; returns the values
        of the good passes, each with its spans (None when untraced)."""
        out = []
        start = time.perf_counter()
        made = 0
        while made < MIN_PASSES or time.perf_counter() - start < seconds:
            traced = tracer is not None and made % 2 == 1
            with tracer if traced else contextlib.nullcontext():
                sample = self.run()
            spans = tracer.take() if traced else None
            made += 1
            if sample is not None:
                out.append((sample, spans))
        return out


def setup_repeats(args) -> list[float]:
    """Set-up times of fresh processes doing this run's set-up."""
    times = []
    for _ in range(SETUP_REPEATS - 1):
        done = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
             "--seed", str(args.seed), "--setup-only"],
            cwd=ROOT, capture_output=True, text=True, timeout=150, check=True)
        times.append(json.loads(done.stdout.splitlines()[-1])["setup_s"])
    return times


def describe(name: str, values: list[float], unit: str) -> str:
    line = f"  {name:36s} {statistics.median(values):14.6g} {unit:6s} n={len(values)}"
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
        line += f"  p25 {q1:.6g}  p75 {q3:.6g}  max {max(values):.6g}"
    return line


def end_to_end(args, samples, setup_s) -> dict:
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    series = defaultdict(list)
    for sample, _ in samples:
        for key, value in sample.items():
            series[key].append(value)
    series["setup_s"] = [setup_s] + setup_repeats(args)
    series["peak_rss_mb"] = [peak_rss_mb]
    for key in sorted(series):
        print(describe(key, series[key], END_TO_END.get(key, "")))
    return {k: statistics.median(series[k]) for k in END_TO_END if series[k]}


def per_layer(args, passes, tracing) -> dict:
    tracer = tracing.Tracer()
    samples = passes.loop(args.seconds, tracer)
    untraced = [(s, spans) for s, spans in samples if spans is None]
    traced = [(s, spans) for s, spans in samples if spans is not None]
    series = defaultdict(list)
    for sample, spans in traced:
        for key, value in tracing.layer_metrics(spans).items():
            series[key].append(value)
    for key in tracing.LAYER_METRICS:
        if series[key]:
            print(describe(key, series[key], tracing.LAYER_METRICS[key]))
    for name, reason in sorted(tracer.absent.items()):
        print(f"  absent: {name}: {reason}")
    if untraced and traced:
        overhead = (statistics.median(s["run_s"] for s, _ in traced)
                    - statistics.median(s["run_s"] for s, _ in untraced))
        print(f"  tracing overhead (traced - untraced run_s): {overhead:+.4f} s "
              f"over {len(traced)} traced / {len(untraced)} untraced passes")
        solves = [s.info["grid"] for s in traced[-1][1]
                  if s.name == "energy.minimize_energy" and s.info]
        for grid in solves[:1]:
            print(f"  solver state u: {grid.nx}x{grid.ny} float64 = "
                  f"{grid.nx * grid.ny * 8 / 1e6:.2f} MB; host: "
                  f"{os.cpu_count()} CPUs, {platform.machine()} "
                  "(CPU model and L2 size: cornerbench/BASELINE.md)")
    return {k: statistics.median(series[k]) for k in tracing.LAYER_METRICS if series[k]}


def main(argv=None) -> int:
    t0 = time.perf_counter()
    args = parse_args(argv)
    if not ((ROOT / "src" / "cornerwave" / "__init__.py").is_file()
            and (ROOT / "configs").is_dir()):
        print(f"cornerbench: no cornerwave sources (src/cornerwave, configs) in {ROOT}",
              file=sys.stderr)
        return 2
    for var in THREAD_VARS:
        os.environ[var] = "1"   # one core: set before NumPy loads its BLAS
    sys.path.insert(0, str(ROOT / "src"))
    import workloads  # noqa: E402  (its import time is part of set-up)

    c = workloads.weight_scale(args.seed)
    workdir = WORKROOT / f"{args.workload}-{os.getpid()}"
    try:
        job = workloads.setup(args.workload, workdir, c)
        setup_s = time.perf_counter() - t0
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        print(f"cornerbench {args.workload}: seed {args.seed}, weight scale c = {c!r}, "
              f"trace {args.trace}, config {job.name}")
        passes = Passes(workloads, job, c)
        if args.trace:
            import tracing
            metrics, units = per_layer(args, passes, tracing), tracing.LAYER_METRICS
        else:
            samples = passes.loop(args.seconds)
            metrics, units = end_to_end(args, samples, setup_s), END_TO_END
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORKROOT.rmdir()
        except OSError:
            pass   # another run still uses it
    for failure in passes.failures:
        print(f"  FAILED pass: {failure}")
    failed = len(passes.failures)
    print(f"  passes: {passes.attempted} attempted, {failed} failed")
    print(json.dumps({
        "correct": failed == 0 and set(metrics) == set(units),
        "attempted": passes.attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
