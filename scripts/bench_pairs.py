#!/usr/bin/env python3
"""Paired perfbench runs of a parent commit against this checkout's HEAD.

    python3 scripts/bench_pairs.py --parent HEAD~1 --out BENCH_<n>.json \\
        --pairs sweep-raw=10 sweep-integrated=10 single-chip=5 dist-battery=5 \\
        [--first-seed 301]

Copies the committed files of ``--parent`` and of ``HEAD`` into two
temporary directories (with ``git archive``, so nothing is registered in
``.git``), then runs, for each workload, N pairs of

    python3 perfbench/run.py --workload W --seed S --seconds T --trace 0

once in each copy, so that both sides run from the same kind of tree and
nothing left in the checkout (an ignored ``__pycache__``, say) is read by
either; the checkout itself is never run.  The script refuses to start
(exit 2, naming the paths) when the checkout's tracked files under
``src``, ``perfbench`` or ``BENCHMARK.json``, the files a run reads,
differ from HEAD, since the change measured is HEAD's.  T is the
``run_seconds`` that ``BENCHMARK.json`` declares; both sides of a pair run
at the same seed S (``--first-seed``, 301 by default, plus the pair index),
and the pairs alternate which side runs first so that a drift in the
host's load falls on both.
A claim made while a change was written can so be confirmed on seeds that
were not used then.  One ``--trace 1`` run per side and workload, at the
first seed, adds the per-layer metrics.  Only the last stdout line of each
run (perfbench's result object) is read; ``perfbench/`` is used as it is.
Stopped with SIGTERM, the script kills the run in progress, removes its
temporary directory and exits with status 143.

The output holds, per workload and end-to-end metric, each side's median and
quartiles, every run's value, and the pairs the change won (ties count for
neither), with the metric's direction taken from ``BENCHMARK.json``.  It
also records each side's hash of ``src/`` (``parent_source_sha256``,
``change_source_sha256``), its line count of ``src/`` (``src_lines``) and
its count of the lines there that hold code (``src_code_lines``: no blank
line, comment or docstring), the same count per module
(``src_code_lines_by_module``, by path under ``src/``) and over ``tests/``
(``tests_code_lines``), so that code moved between modules or into the tests
shows as no reduction, all read from that side's copy (so the net size of
the change, which is also printed on stderr), the
numpy version (``numpy``) and BLAS build (``blas``, its name and version)
that every run imports, since both sides run on this interpreter, and the
host's load: the CPUs this process may run on (``cpus``), and each run's 1-,
5- and 15-minute load averages before and after it (``loadavg``, per
workload and side, in run order), and each run's CPU seconds (``cpu_s``, in
the same order): its own (``run``, the user and system time of the run and
every process it waited for), the host's busy time over the run
(``host_busy``, the user, nice, system, irq and softirq time of
``/proc/stat``'s cpu line, over all CPUs) and its steal time over the run
(``host_steal``, the same line's steal column: the time a hypervisor gave
this host's CPUs to other guests).  A wall-time ratio can move with the load
alone (a run whose worker loses its second CPU reads slower against a
single-threaded reference), so pairs taken at different loads can be told
apart; the load average counts the run's own processes, where the host's
busy time less the run's own is what the other processes took, and the steal
time what other guests took.  Each run also records its median pass time
(``pass_s``, perfbench's ``extras.wall_s``) and its median yardstick time
(``ref_s``, the median of ``worker.ref_walls``, the reference kernel's
runs), read from the run's ``perfbench/out/<workload>-seed<S>-trace<T>.json``
in the export, per workload and side in run order, so that a ``wall_rel``
move splits into the program's time and the reference kernel's.
"""

from __future__ import annotations

import argparse
import ast
import hashlib
import io
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import tempfile
import tokenize
from datetime import datetime, timezone
from pathlib import Path

import numpy

ROOT = Path(__file__).resolve().parent.parent

#: default seed of every workload's first pair; pair i runs at first seed + i
FIRST_SEED = 301
#: the files a benchmark run reads; an edit elsewhere does not stop a comparison
BENCH_INPUTS = ("src", "perfbench", "BENCHMARK.json")


def git(*args: str) -> str:
    return subprocess.run(["git", "-C", str(ROOT), *args], check=True,
                          capture_output=True, text=True).stdout.strip()


def source_sha256(checkout: Path) -> str:
    """The hash perfbench records as its ``source_sha256``: every src/**/*.py."""
    src = checkout / "src"
    digest = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        digest.update(str(path.relative_to(src)).encode() + b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()


def source_lines(checkout: Path) -> int:
    """Lines in every src/**/*.py, as ``wc -l`` counts them."""
    return sum(path.read_bytes().count(b"\n") for path in (checkout / "src").rglob("*.py"))


def code_lines(path: Path) -> int:
    """Lines of one .py file that hold code: blank lines, comment lines and
    docstrings (of the module, a class or a function, found with ``ast``)
    are not counted, so a deleted comment is no reduction."""
    layout = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
              tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}
    source = path.read_bytes()
    code = set()
    for tok in tokenize.tokenize(io.BytesIO(source).readline):
        if tok.type not in layout:
            code.update(range(tok.start[0], tok.end[0] + 1))
    for node in ast.walk(ast.parse(source)):
        if (isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                              ast.AsyncFunctionDef))
                and ast.get_docstring(node, clean=False) is not None):
            doc = node.body[0]
            code.difference_update(range(doc.lineno, doc.end_lineno + 1))
    return len(code)


def code_lines_by_module(checkout: Path, tree: str = "src") -> dict[str, int]:
    """``code_lines`` of every ``tree``/**/*.py, by its path under ``tree``."""
    root = checkout / tree
    return {str(path.relative_to(root)): code_lines(path)
            for path in sorted(root.rglob("*.py"))}


def source_code_lines(checkout: Path) -> int:
    """Lines in every src/**/*.py that hold code (``code_lines``)."""
    return sum(code_lines_by_module(checkout).values())


def export(ref: str, dest: Path) -> None:
    """The committed files of ``ref``, unpacked under ``dest``."""
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", ref], check=True,
                             capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive, check=True)


def host_cpu_seconds() -> tuple[float, float]:
    """The host's busy and steal CPU seconds since boot, over all CPUs, from
    /proc/stat."""
    with open("/proc/stat", encoding="ascii") as fh:
        ticks = [int(t) for t in fh.readline().split()[1:]]
    hz = os.sysconf("SC_CLK_TCK")
    # busy is user, nice, system, irq and softirq (idle, iowait and the guest
    # times, already in user and nice, are left out); steal is the 8th field
    return sum(ticks[i] for i in (0, 1, 2, 5, 6)) / hz, ticks[7] / hz


def children_cpu_seconds() -> float:
    """User and system seconds of every child this process has waited for."""
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def blas_build() -> dict:
    """The name and version of the BLAS this interpreter's numpy is built with."""
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"name": blas["name"], "version": blas["version"]}


def run(checkout: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """perfbench's result object, with the host's load averages around the run
    under ``loadavg``, the CPU seconds over it under ``cpu_s``, and its median
    pass and yardstick times under ``times``."""
    before = os.getloadavg()
    cpu_before, (busy_before, steal_before) = children_cpu_seconds(), host_cpu_seconds()
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} in {checkout} exited {proc.returncode}:\n"
                           f"{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    record = json.loads((checkout / "perfbench" / "out"
                         / f"{workload}-seed{seed}-trace{trace}.json").read_text())
    result["times"] = {"pass_s": record["extras"]["wall_s"],
                       "ref_s": statistics.median(record["worker"]["ref_walls"])}
    busy, steal = host_cpu_seconds()
    result["cpu_s"] = {"run": children_cpu_seconds() - cpu_before,
                       "host_busy": busy - busy_before, "host_steal": steal - steal_before}
    result["loadavg"] = {"before": before, "after": os.getloadavg()}
    return result


def quartiles(values: list[float]) -> dict:
    if len(values) < 2:
        return {"median": values[0], "q1": values[0], "q3": values[0]}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def compare(parent: list[dict], change: list[dict], declared: list[dict]) -> dict:
    """Per metric: both sides' quartiles and runs, and the pairs the change won."""
    out = {}
    for metric in declared:
        name, lower = metric["name"], metric["better"] == "lower"
        p = [r["metrics"][name]["value"] for r in parent]
        c = [r["metrics"][name]["value"] for r in change]
        won = sum((b < a) if lower else (b > a) for a, b in zip(p, c))
        row = {"unit": metric["unit"], "better": metric["better"],
               "parent": {**quartiles(p), "runs": p},
               "change": {**quartiles(c), "runs": c},
               "pairs_won": won, "pairs": len(p)}
        if "bound" in metric:
            row["bound"] = metric["bound"]
        out[name] = row
    return out


def _terminate(signum, frame):
    raise SystemExit(128 + signum)


def main(argv=None) -> int:
    """``_compare``, with SIGTERM raising SystemExit: its default action ends
    the process at once, which would leave the temporary directory and the
    run in progress behind, where SystemExit unwinds both."""
    previous = signal.signal(signal.SIGTERM, _terminate)
    try:
        return _compare(argv)
    finally:
        signal.signal(signal.SIGTERM, previous)


def _compare(argv) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--parent", required=True, help="git ref of the parent commit")
    ap.add_argument("--out", required=True, help="JSON file to write")
    ap.add_argument("--pairs", nargs="+", required=True, metavar="WORKLOAD=N")
    ap.add_argument("--first-seed", type=int, default=FIRST_SEED,
                    help="seed of each workload's first pair (default %(default)s)")
    args = ap.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]]
    plan = {}
    for item in args.pairs:
        workload, _, n = item.partition("=")
        if workload not in workloads:
            ap.error(f"--pairs {item!r}: {workload!r} is not a workload of "
                     f"BENCHMARK.json ({', '.join(workloads)})")
        if not (n.isdecimal() and int(n) > 0):
            ap.error(f"--pairs {item!r}: the pair count must be a positive integer")
        plan[workload] = int(n)
    seconds = spec["run_seconds"]
    dirty = git("diff", "--name-only", "HEAD", "--", *BENCH_INPUTS).splitlines()
    if dirty:
        print(f"bench_pairs.py: {', '.join(dirty)} differ from HEAD, whose committed "
              f"files are the change measured; commit or revert them first",
              file=sys.stderr)
        return 2
    parent_sha, change_sha = git("rev-parse", args.parent), git("rev-parse", "HEAD")
    report = {"parent": parent_sha, "change_head": change_sha,
              "started": datetime.now(timezone.utc).isoformat(timespec="seconds"),
              "python": platform.python_version(), "numpy": numpy.__version__,
              "blas": blas_build(), "seconds": seconds,
              "cpus": len(os.sched_getaffinity(0)),
              "first_seed": args.first_seed,
              "workloads": {}}
    with tempfile.TemporaryDirectory(prefix="bench-pairs-") as tmp:
        sides = {"parent": Path(tmp, "parent"), "change": Path(tmp, "change")}
        for side, sha in (("parent", parent_sha), ("change", change_sha)):
            sides[side].mkdir()
            export(sha, sides[side])
            report[f"{side}_source_sha256"] = source_sha256(sides[side])
        report["src_lines"] = {side: source_lines(path) for side, path in sides.items()}
        report["src_code_lines"] = {side: source_code_lines(path)
                                    for side, path in sides.items()}
        report["src_code_lines_by_module"] = {side: code_lines_by_module(path)
                                              for side, path in sides.items()}
        # code moved into the tests is no reduction, so their total shows too
        report["tests_code_lines"] = {side: sum(code_lines_by_module(path, "tests").values())
                                      for side, path in sides.items()}
        lines, code = report["src_lines"], report["src_code_lines"]
        print(f"src/: {lines['parent']} -> {lines['change']} lines "
              f"({lines['change'] - lines['parent']:+d}), {code['parent']} -> "
              f"{code['change']} code lines ({code['change'] - code['parent']:+d})",
              file=sys.stderr)
        for workload, n in plan.items():
            runs = {"parent": [], "change": []}
            seeds = [args.first_seed + i for i in range(n)]
            for i, seed in enumerate(seeds):
                order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
                for side in order:
                    runs[side].append(run(sides[side], workload, seed, seconds, 0))
                print(f"{workload} pair {i + 1}/{n}: wall_rel "
                      f"{runs['parent'][-1]['metrics']['wall_rel']['value']:.3f} -> "
                      f"{runs['change'][-1]['metrics']['wall_rel']['value']:.3f}",
                      file=sys.stderr)
            traced = {side: run(sides[side], workload, seeds[0], seconds, 1)
                      for side in ("parent", "change")}
            report["workloads"][workload] = {
                "seeds": seeds,
                "failed": {side: sum(r["failed"] for r in runs[side]) for side in runs},
                "attempted": {side: sum(r["attempted"] for r in runs[side]) for side in runs},
                "end_to_end": compare(runs["parent"], runs["change"], spec["end_to_end"]),
                "loadavg": {side: [r["loadavg"] for r in runs[side]] for side in runs},
                "cpu_s": {side: [r["cpu_s"] for r in runs[side]] for side in runs},
                "times": {side: [r["times"] for r in runs[side]] for side in runs},
                "per_layer": {side: {name: m["value"] for name, m in t["metrics"].items()}
                              for side, t in traced.items()},
            }
    out = Path(args.out)
    out.write_text(json.dumps(report, indent=1) + "\n")
    print(f"wrote {out}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
