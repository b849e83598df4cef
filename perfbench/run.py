#!/usr/bin/env python3
"""chaoswpt benchmark: four workloads, end-to-end or traced per layer.

    python3 perfbench/run.py --workload sweep-integrated --seed 7 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 7 --seconds 25 --trace 0

Run from the root of a source checkout; the package is imported from its
``src/`` and nothing is installed.  Each run

* times ``setup_s``: fresh interpreters that import chaoswpt and make one
  small ``run_once`` call (median of several, before and after the worker);
* starts a fresh worker process (``worker.py``) that runs the workload as a
  closed loop for ``--seconds`` and checks every answer against the exact
  references in ``reference.py``; its peak RSS is this run's ``peak_rss_mb``;
* prints a summary on stderr and, as the last line of stdout, one JSON
  object ``{"correct", "attempted", "failed", "metrics"}`` holding the
  ``end_to_end`` metrics of BENCHMARK.json (``--trace 0``) or its
  ``per_layer`` metrics (``--trace 1``);
* writes the full result with its provenance, and on traced runs the spans,
  to ``perfbench/out/``.

BLAS/OpenMP thread pools are pinned to at most the number of CPUs.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
WORKLOADS = ("sweep-integrated", "sweep-raw", "single-chip", "dist-battery")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
#: fresh interpreters timed before and again after the worker, so that the
#: median of setup_s spans the run rather than one moment of the host's load
SETUP_REPEATS = 2
SETUP_CODE = ("import chaoswpt.montecarlo as mc; "
              "mc.run_once(mc.RunConfig(beta=2, r=20.0, n_frames=1000, seed={seed}))")
#: figures printed in the summary but not gated: raw wall times drift with
#: the host's load, and failed_ratio is 0 on a healthy run
EXTRA_UNITS = {"wall_s": "s", "frames_per_s": "1/s", "chips_per_s": "1/s",
               "samples_per_s": "1/s", "failed_ratio": "ratio"}
#: a worker that has not finished by then is killed (runs must end in 180 s)
WORKER_GRACE_S = 100


class BenchError(Exception):
    pass


def pinned_env() -> dict[str, str]:
    """Environment for child interpreters: this checkout's src, pinned pools."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    nproc = len(os.sched_getaffinity(0))
    for var in THREAD_VARS:
        value = env.get(var, "")
        if not (value.isdigit() and 1 <= int(value) <= nproc):
            env[var] = str(nproc)
    return env


def time_setup(env: dict[str, str], seed: int) -> float:
    t0 = perf_counter()
    subprocess.run([sys.executable, "-c", SETUP_CODE.format(seed=seed)], env=env,
                   check=True, capture_output=True, timeout=20)
    return perf_counter() - t0


def run_worker(env, workload: str, seed: int, seconds: float, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
           "--scratch", str(OUT)]
    proc = subprocess.run(cmd, env=env, capture_output=True, text=True,
                          timeout=seconds + WORKER_GRACE_S)
    if proc.returncode != 0:
        raise BenchError(f"worker for {workload} exited {proc.returncode}:\n"
                         f"{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() or None


def _source_sha256() -> str:
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode() + b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()


def _l2_cache() -> str | None:
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            if (index / "level").read_text().strip() == "2":
                return (index / "size").read_text().strip()
        except OSError:
            return None
    return None


def provenance(env, args, workload: str, versions: dict) -> dict:
    return {"git_commit": _git_commit(), "source_sha256": _source_sha256(),
            **versions, "nproc": len(os.sched_getaffinity(0)),
            "threads": {var: env[var] for var in THREAD_VARS},
            "l2_cache": _l2_cache(), "workload": workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace}


def run_one(spec: dict, env, args, workload: str) -> tuple[dict, dict]:
    """One run of one workload: (the result line, the extra figures)."""
    repeats = 0 if args.trace else SETUP_REPEATS
    setup = [time_setup(env, args.seed) for _ in range(repeats)]
    w = run_worker(env, workload, args.seed, args.seconds, args.trace)
    setup += [time_setup(env, args.seed) for _ in range(repeats)]
    wall = w["wall_s"]
    extras = {"wall_s": wall, "frames_per_s": w["frames_per_pass"] / wall,
              "failed_ratio": w["failed"] / w["attempted"], "passes": w["passes"]}
    if w["chips_per_pass"]:
        extras["chips_per_s"] = w["chips_per_pass"] / wall
    if workload == "dist-battery":
        extras["samples_per_s"] = w["frames_per_pass"] / wall
    if args.trace:
        values, declared = w["layers"], spec["per_layer"]
    else:
        values = {"setup_s": statistics.median(setup), "wall_rel": w["wall_rel"],
                  "peak_rss_mb": w["peak_rss_mb"]}
        declared = spec["end_to_end"]
    names = [m["name"] for m in declared]
    if set(values) != set(names):
        raise BenchError(f"computed metrics {sorted(values)} differ from "
                         f"BENCHMARK.json's {sorted(names)}")
    line = {"correct": w["failed"] == 0, "attempted": w["attempted"],
            "failed": w["failed"],
            "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                        for m in declared}}
    record = {"result": line, "extras": extras, "setup_runs_s": setup,
              "worker": w, "provenance": provenance(env, args, workload, w["versions"])}
    (OUT / f"{workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n")
    return line, extras


def summary(workload: str, line: dict, extras: dict) -> list[str]:
    rows = [(name, m["value"], m["unit"]) for name, m in line["metrics"].items()]
    rows += [(name, extras[name], unit) for name, unit in EXTRA_UNITS.items()
             if name in extras]
    return [f"{workload:<17} {name:<34} {value:>16.6g} {unit}" for name, value, unit in rows]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True,
                    help="how long each run measures")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "chaoswpt" / "__init__.py").is_file():
        print(f"perfbench: no chaoswpt sources under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    env = pinned_env()
    OUT.mkdir(exist_ok=True)
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    lines = {}
    try:
        for workload in workloads:
            line, extras = run_one(spec, env, args, workload)
            lines[workload] = line
            text = "\n".join(summary(workload, line, extras))
            print(text, file=sys.stdout if args.workload == "all" else sys.stderr)
    except (BenchError, subprocess.SubprocessError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    if args.workload != "all":
        print(json.dumps(lines[args.workload]))
    else:
        print(json.dumps({
            "correct": all(v["correct"] for v in lines.values()),
            "attempted": sum(v["attempted"] for v in lines.values()),
            "failed": sum(v["failed"] for v in lines.values()),
            "metrics": {f"{wl}.{name}": m for wl, v in lines.items()
                        for name, m in v["metrics"].items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
