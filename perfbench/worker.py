"""One benchmark run's closed loop, in a fresh interpreter.

Started by ``run.py`` so that the peak RSS it reports belongs to this run
alone.  One caller runs passes back to back, each starting only after the
previous one finished, until ``--seconds`` have elapsed.  With ``--trace 1``
passes alternate untraced/traced; the traced ones give the per-layer
metrics, the untraced ones the overhead baseline.  Prints one JSON object.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
from contextlib import nullcontext
from time import perf_counter

import numpy
import scipy

from tracing import Tracer, layer_metrics
from workloads import SIZES, WARMUP_SIZES, WORKLOADS, Check, Pool, frames_and_chips

MIN_PASSES = 4
REF_FRAMES = 1 << 16
REF_STEPS = 120
REF_SORT = 1 << 18
#: the reference kernel runs between passes for this share of the last
#: pass's time (at least once), so that it samples the host's speed about as
#: densely for long passes as for short ones
REF_SHARE = 0.5


def reference_kernel() -> float:
    """Wall time of a fixed numpy computation, the yardstick for pass times.

    On a shared host the machine's speed drifts by 10-30% over tens of
    seconds; the drift moves this kernel and the program alike, so a pass
    timed against the kernels run just before and after it reads the same
    under any load.  It mixes what the workloads spend on: uniform draws,
    arccos/cos orbits and a sort.  It is part of the benchmark, not of the
    program, so no change to the program moves it.
    """
    t0 = perf_counter()
    rng = numpy.random.default_rng(0)
    x = numpy.cos(numpy.pi * rng.random(REF_FRAMES))
    total = numpy.zeros_like(x)
    for _ in range(REF_STEPS):
        total += x
        x = numpy.cos(2.0 * numpy.arccos(numpy.clip(x, -1.0, 1.0)))
    numpy.sort(rng.random(REF_SORT))
    return perf_counter() - t0


def yardstick(seconds: float) -> float:
    """Mean time of the reference kernel, run for at least ``seconds``."""
    times = [reference_kernel()]
    while sum(times) < seconds:
        times.append(reference_kernel())
    return statistics.fmean(times)


def _cpu_seconds() -> float:
    """User + system CPU of this process and of its children that have ended.

    A child's CPU time is added when it is waited for, so a process pool the
    program opens and joins within a pass counts towards that pass.
    """
    return sum(ru.ru_utime + ru.ru_stime for ru in (
        resource.getrusage(resource.RUSAGE_SELF),
        resource.getrusage(resource.RUSAGE_CHILDREN)))


def _peak_rss_mb() -> float:
    """Peak RSS of this process or of its largest ended child."""
    return max(resource.getrusage(who).ru_maxrss
               for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)) / 1024.0


def measure(workload: str, seed: int, seconds: float, trace: bool,
            scratch: str) -> dict:
    run_pass, final_checks = WORKLOADS[workload]
    tracer = Tracer() if trace else None
    checks = []
    # untimed warm-up: lazy imports, first-call allocations
    try:
        run_pass(seed, -1, WARMUP_SIZES[workload], scratch, Pool())
    except Exception as exc:
        checks.append(Check("warm-up", False, repr(exc)))

    walls = {False: [], True: []}
    refs = [yardstick(0.0)]
    cpu = wall = 0.0
    yard = 0.0  # sum over untraced passes of the mean kernel time around each
    pool = Pool()
    inputs = None  # of the last pass that returned
    deadline = perf_counter() + seconds
    k = 0
    while k < MIN_PASSES or perf_counter() < deadline:
        traced = trace and k % 2 == 1
        c0, t0 = _cpu_seconds(), perf_counter()
        try:
            with tracer.active(k) if traced else nullcontext():
                inputs, _, pass_checks = run_pass(seed, k, SIZES[workload], scratch, pool)
            checks += pass_checks
        except Exception as exc:
            checks.append(Check(f"pass {k}", False, repr(exc)))
        dt, dc = perf_counter() - t0, _cpu_seconds() - c0
        refs.append(yardstick(REF_SHARE * dt))
        walls[traced].append(dt)
        if not traced:
            yard += 0.5 * (refs[-2] + refs[-1])
            cpu += dc
            wall += dt
        k += 1
    try:
        final = final_checks(pool)
    except Exception as exc:
        final = [Check("pooled checks", False, repr(exc))]
    checks += final
    failures = [f"{c.name}: {c.detail}" for c in checks if not c.ok]

    frames, chips = frames_and_chips(inputs) if inputs else (0, 0)
    untraced = statistics.median(walls[False])
    result = {
        "passes": len(walls[False]) + len(walls[True]),
        "pass_walls": walls[False],
        "ref_walls": refs,
        "wall_s": untraced,
        "wall_rel": wall / yard,
        "frames_per_pass": frames,
        "chips_per_pass": chips,
        "attempted": len(checks),
        "failed": len(failures),
        "failures": failures[:20],
        "final_checks": [f"{c.name}: {c.detail}" for c in final],
        "peak_rss_mb": _peak_rss_mb(),
        "versions": {"python": sys.version.split()[0], "numpy": numpy.__version__,
                     "scipy": scipy.__version__},
    }
    if tracer is not None:
        layers = layer_metrics(tracer.spans, len(walls[True]))
        layers["process.cpu_util"] = cpu / wall
        layers["trace.overhead_ratio"] = statistics.median(walls[True]) / untraced - 1.0
        result["layers"] = layers
        result["traced_pass_walls"] = walls[True]
        spans_path = os.path.join(scratch, f"{workload}-seed{seed}.spans.jsonl")
        tracer.write(spans_path)
        result["spans_file"] = spans_path
    return result


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--scratch", required=True)
    args = ap.parse_args()
    result = measure(args.workload, args.seed, args.seconds, bool(args.trace),
                     args.scratch)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
