#!/usr/bin/env python3
"""Verdict benchmark for planar-monoid.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload catalog --seed 1 --seconds 15 --trace 0

A single-threaded closed loop: each unit of work starts when the previous
one has returned, until --seconds of wall time have been spent.  The
package is imported from ./src in the same process.  Every time reported is
taken to a reference processor speed by sampling the host's speed while the
units run (calibrate.py).  With --trace 0 the run reports the
end-to-end metrics; with --trace 1 it alternates untraced and traced units
and reports per-layer metrics from the traced ones, plus the tracing
overhead.  The last line of standard output is the result object; the line
before it records the environment and the run's samples.  Traced spans are
written to .perfbench/trace-<workload>.json.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import calibrate
import spans
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench"

# set-up is measured this many times per run (this process plus fresh
# child processes that only set up), and the median reported
SETUP_SAMPLES = 7


def parse_args(argv=None) -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def git_revision() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() or None


def environment(args) -> dict:
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "git_revision": git_revision(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        # verify_all's process pool is never used, so the variable that
        # sizes it has no effect on any workload
        "PLANAR_MONOID_JOBS": os.environ.get("PLANAR_MONOID_JOBS"),
        "PLANAR_MONOID_JOBS_ignored": True,
    }


def child_setup_s(args) -> float:
    """Set-up time measured in a fresh interpreter that only sets up."""
    cmd = [
        sys.executable, str(Path(__file__).resolve()), "--setup-only",
        "--workload", args.workload, "--seed", str(args.seed), "--seconds", "0",
    ]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
    return float(out.stdout.strip().splitlines()[-1])


def quantile(values: list[float], q: int) -> float:
    """The q-th percentile (q in 10..90 by tens), interpolated."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[q // 10 - 1]


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def sampled(fn):
    """Run fn(clock) under a SpeedSampler.

    Returns fn's result, the wall seconds, the mean speed and the
    reference-speed factor: the share of the wall time that was not spent
    sampling, times the mean speed.  Multiplied by it, a wall time becomes
    the time at reference speed without sampling; times measured on `clock`
    already exclude the sampling and are multiplied by the mean speed alone.
    """
    with calibrate.SpeedSampler() as sampler:
        t0 = time.perf_counter()
        out = fn(sampler.work_clock)
        wall = time.perf_counter() - t0
        spent = sampler.spent
    return out, wall, sampler.speed(), (wall - spent) / wall * sampler.speed()


def timed_run(wl, args, setup_s: float):
    """Untraced units until --seconds of wall time are spent; end-to-end
    numbers, every time at reference speed.

    The other set-up samples are taken after the timed units, when the
    processor has left idle: the first second of a run on an idle machine
    runs measurably slower.
    """
    walls, units, speeds, results, verdicts = [], [], [], [], []
    while not walls or sum(walls) < args.seconds:
        res, wall, speed, factor = sampled(wl.run_unit)
        results.append(res)
        walls.append(wall)
        units.append(wall * factor)
        speeds.append(speed)
        verdicts.extend(v * speed for v in res.verdict_s)
    setups = [setup_s] + [child_setup_s(args) for _ in range(SETUP_SAMPLES - 1)]
    attempted = sum(r.attempted for r in results)
    failed = sum(r.failed for r in results)
    metrics = {
        "setup_s": metric(statistics.median(setups), "s"),
        "wall_s": metric(statistics.median(units), "s"),
        "verdicts_per_s": metric(len(verdicts) / sum(units), "1/s"),
        "verdict_p50_ms": metric(quantile(verdicts, 50) * 1e3, "ms"),
        "verdict_p90_ms": metric(quantile(verdicts, 90) * 1e3, "ms"),
        "peak_rss_mb": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "pass_ratio": metric((attempted - failed) / attempted, "ratio"),
    }
    samples = {
        "units": len(walls),
        "unit_wall_s": walls,
        "unit_reference_s": units,
        "unit_speed": speeds,
        "verdicts": len(verdicts),
        "setup_s": setups,
    }
    return metrics, results, samples


def rescale(layer: dict, factor: float) -> dict:
    """Per-layer metrics of one traced unit, times taken to reference speed."""
    out = {}
    for name, (value, unit) in layer.items():
        if unit in ("s", "us"):
            value *= factor
        elif unit == "1/s":
            value /= factor
        out[name] = (value, unit)
    return out


def traced_run(wl, seconds: float, out_path: Path):
    """Alternate untraced and traced units until `seconds` of wall time are
    spent.

    Counts come from the first traced unit and must repeat exactly in every
    later one; times are medians over the traced units, at reference speed.
    """
    tracer = spans.Tracer()
    walls, plain, traced, results, per_unit = [], [], [], [], []
    while not traced or sum(walls) < seconds:
        res, wall, _, factor = sampled(wl.run_unit)
        results.append(res)
        walls.append(wall)
        plain.append(wall * factor)
        lo = len(tracer)
        tracer.install(wl.mods)
        try:
            res, wall, _, factor = sampled(wl.run_unit)
        finally:
            tracer.uninstall()
        results.append(res)
        walls.append(wall)
        traced.append(wall * factor)
        layer = spans.layer_metrics(spans.aggregate(tracer, lo, len(tracer)))
        per_unit.append(rescale(layer, factor))
        per_unit[-1]["trace.spans"] = (len(tracer) - lo, "count")

    first = per_unit[0]
    counts_repeat = all(
        u[name][0] == value for u in per_unit for name, (value, unit) in first.items() if unit == "count"
    )
    metrics = {}
    for name, (value, unit) in first.items():
        if unit != "count":
            value = statistics.median(u[name][0] for u in per_unit)
        metrics[name] = metric(value, unit)
    overhead = statistics.median(traced) - statistics.median(plain)
    metrics["trace.overhead_s"] = metric(overhead, "s")
    metrics["trace.overhead_ratio"] = metric(overhead / statistics.median(plain), "ratio")

    OUT_DIR.mkdir(exist_ok=True)
    with open(out_path, "w", encoding="utf-8") as fh:
        tracer.dump(fh)
    samples = {
        "units": len(walls),
        "unit_wall_s": walls,
        "untraced_unit_reference_s": plain,
        "traced_unit_reference_s": traced,
        "counts_repeat": counts_repeat,
        "spans_file": str(out_path.relative_to(ROOT)),
    }
    return metrics, results, samples


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "planar_monoid" / "__init__.py").is_file():
        print(f"perfbench: no planar_monoid source under {SRC}", file=sys.stderr)
        return 2

    wl, wall, _, factor = sampled(lambda clock: workloads.load(args.workload, args.seed, SRC))
    setup_s = wall * factor
    if args.setup_only:
        print(repr(setup_s))
        return 0

    if args.trace:
        out_path = OUT_DIR / f"trace-{args.workload}.json"
        metrics, results, samples = traced_run(wl, args.seconds, out_path)
    else:
        metrics, results, samples = timed_run(wl, args, setup_s)
    attempted = sum(r.attempted for r in results)
    failed = sum(r.failed for r in results)
    correct = failed == 0 and samples.get("counts_repeat", True)
    finds = [r.budget_finds for r in results if r.budget_finds]
    record = {
        "environment": environment(args),
        "samples": samples,
        # what the seeded random tries found on budget classes; recorded, not gated
        "budget_finds": finds[0] if finds else {},
    }
    print(json.dumps({"perfbench": record}))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
