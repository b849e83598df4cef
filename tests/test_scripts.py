import csv
import importlib.util
import json
import os
import pathlib
import signal
import subprocess
import sys
import textwrap
import types

import numpy as np
import pytest

import chaoswpt
from chaoswpt import montecarlo
from chaoswpt.montecarlo import RunConfig, sweep_beta

ROOT = pathlib.Path(__file__).resolve().parents[1]
SRC = str(pathlib.Path(chaoswpt.__file__).resolve().parents[1])


def _script(name, *args):
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, (SRC, os.environ.get("PYTHONPATH"))))}
    return subprocess.run([sys.executable, str(ROOT / "scripts" / name), *args], env=env,
                          capture_output=True, text=True, timeout=60)


def test_fig2_sweep_writes_the_signed_deviation(tmp_path):
    out = tmp_path / "sweep.csv"
    proc = _script("fig2_sweep.py", "--betas", "1", "2", "--distances", "20",
                   "--n-frames", "300", "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    with open(out, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["beta", "r", "mode", "z_empirical", "z_stderr", "z_analytic",
                       "rel_dev", "excess_sigma"]
    ref = sweep_beta([1, 2], [20.0], ["full", "bypass"],
                     RunConfig(beta=1, r=1.0, n_frames=300, seed=42))
    assert [float(row[6]) for row in rows[1:]] == [r.rel_dev for r in ref.rows]
    assert any(r.rel_dev < 0 for r in ref.rows)


def test_fig2_sweep_writes_an_erased_cell(tmp_path):
    # seed 9 is the first seed from 7 up at which the full-mode run's one
    # batch of two frames draws no frame whose bit is +1: both are erased,
    # so the cell reads mean 0, standard error 0
    ((acc, _),) = montecarlo._orbit_moments(9, 2, (2,), 2, ("full",))
    assert acc._n == 2 and not acc._sums.any() and not acc._gram.any()
    out = tmp_path / "sweep.csv"
    proc = _script("fig2_sweep.py", "--betas", "2", "--distances", "20",
                   "--n-frames", "2", "--seed", "9", "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    with open(out, newline="") as fh:
        rows = list(csv.DictReader(fh))
    full = next(row for row in rows if row["mode"] == "full")
    assert (full["z_empirical"], full["z_stderr"], full["excess_sigma"]) == ("0", "0", "-inf")
    assert "far-full minus near-bypass" in proc.stdout
    # the two-frame sweep warns once, at the script's own line
    (warning,) = [line for line in proc.stderr.splitlines() if "Warning" in line]
    assert "fig2_sweep.py:" in warning
    assert warning.endswith("UserWarning: n_frames=2 gives a very noisy estimate")


def test_clt_gap_runs_at_its_defaults():
    proc = _script("clt_gap.py")
    assert proc.returncode == 0, proc.stderr
    assert "asymptotic branch" in proc.stdout
    # its asymptotic column is the library's z_with_correlator, which is the
    # exact constant at beta = 1, so both gaps read 0 there
    (row,) = [line.split() for line in proc.stdout.splitlines() if line.split()[:1] == ["1"]]
    assert row[1] == row[2] and row[3:] == ["+0.00%", "+0.00%"]


def test_clt_gap_spot_check_of_an_erased_run():
    # at this seed both frames carry bit -1: standard error 0, so the
    # measurement sits -inf standard errors from the exact-orbit prediction
    proc = _script("clt_gap.py", "--betas", "2", "--mc-frames", "2", "--seed", "5")
    assert proc.returncode == 0, proc.stderr
    (row,) = [line.split() for line in proc.stdout.splitlines() if line.split()[:1] == ["2"]]
    assert row[-2:] == ["-100.00%", "-inf"]


@pytest.mark.parametrize("pairs, reason", [
    ("sweep-raw", "the pair count must be a positive integer"),
    ("sweep-raw=0", "the pair count must be a positive integer"),
    ("sweep-raw=x", "the pair count must be a positive integer"),
    ("no-such=3", "'no-such' is not a workload of BENCHMARK.json"),
])
def test_bench_pairs_rejects_a_bad_pairs_entry(tmp_path, pairs, reason):
    # the entry is named, and rejected before the parent commit is exported
    out = tmp_path / "bench.json"
    proc = _script("bench_pairs.py", "--parent", "HEAD", "--out", str(out),
                   "--pairs", "single-chip=1", pairs)
    assert proc.returncode == 2
    assert f"--pairs {pairs!r}: {reason}" in proc.stderr
    assert "Traceback" not in proc.stderr and not out.exists()


def _bench_pairs_module():
    path = ROOT / "scripts" / "bench_pairs.py"
    spec = importlib.util.spec_from_file_location("bench_pairs", path)
    bench_pairs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench_pairs)
    return bench_pairs


def test_bench_pairs_records_the_host_load(tmp_path, monkeypatch, capsys):
    # a stand-in for git and perfbench, which spends CPU time in a child: the
    # parent and HEAD are both exported and every run is made in an export,
    # none in the checkout; the report holds the CPU count, every run's load
    # averages before and after it, the CPU seconds of the run and the
    # host's busy and steal seconds over it, and the median pass and
    # yardstick times from the record the run writes in its export
    bench_pairs = _bench_pairs_module()
    result = {"failed": 0, "attempted": 1,
              "metrics": {m: {"value": 1.0} for m in ("setup_s", "wall_rel", "peak_rss_mb")}}
    exports, run_dirs = {}, []

    def perfbench(cmd, cwd, **kw):
        assert cmd[1] == "perfbench/run.py"
        run_dirs.append(cwd)
        subprocess.run([sys.executable, "-c", "sum(range(3_000_000))"], check=True)
        args = dict(zip(cmd[2::2], cmd[3::2]))
        out = pathlib.Path(cwd, "perfbench", "out")
        out.mkdir(parents=True, exist_ok=True)
        # the pass time tells the sides apart; the yardstick's median is 0.2
        pass_s = 0.01 if cwd == exports["1" * 40] else 0.02
        record = {"extras": {"wall_s": pass_s}, "worker": {"ref_walls": [0.3, 0.1, 0.2]}}
        (out / f"{args['--workload']}-seed{args['--seed']}-trace{args['--trace']}.json"
         ).write_text(json.dumps(record))
        return subprocess.CompletedProcess(cmd, 0, stdout=json.dumps(result) + "\n")

    git_calls = []

    def git(*args):
        git_calls.append(args)
        if args[0] == "diff":
            return ""  # a clean checkout
        return {"HEAD~1": "1" * 40, "HEAD": "2" * 40}[args[1]]

    monkeypatch.setattr(bench_pairs, "git", git)
    monkeypatch.setattr(bench_pairs, "export", lambda ref, dest: exports.setdefault(ref, dest))
    monkeypatch.setattr(bench_pairs, "subprocess", types.SimpleNamespace(run=perfbench))
    out = tmp_path / "bench.json"
    assert bench_pairs.main(["--parent", "HEAD~1", "--out", str(out),
                             "--pairs", "single-chip=2"]) == 0
    report = json.loads(out.read_text())
    # the change reads dirty only from the files a benchmark run reads
    assert ("diff", "--name-only", "HEAD", "--", "src", "perfbench",
            "BENCHMARK.json") in git_calls
    assert (report["parent"], report["change_head"]) == ("1" * 40, "2" * 40)
    assert sorted(exports) == ["1" * 40, "2" * 40]
    assert exports["1" * 40] != exports["2" * 40]
    # two pairs and one traced run, each on both sides, all in the exports
    assert sorted(map(str, run_dirs)) == sorted(map(str, [*exports.values()] * 3))
    assert ROOT not in map(pathlib.Path, run_dirs)
    assert "change_dirty" not in report
    # the stand-in exports are empty, so each side counts no line
    assert report["src_lines"] == report["src_code_lines"] == {"parent": 0, "change": 0}
    assert report["src_code_lines_by_module"] == {"parent": {}, "change": {}}
    assert report["tests_code_lines"] == {"parent": 0, "change": 0}
    assert "src/: 0 -> 0 lines (+0), 0 -> 0 code lines (+0)" in capsys.readouterr().err
    assert report["cpus"] == len(os.sched_getaffinity(0)) >= 1
    # every run imports this interpreter's numpy and its BLAS
    assert report["numpy"] == np.__version__
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    assert report["blas"] == {"name": blas["name"], "version": blas["version"]}
    assert all(type(v) is str and v for v in report["blas"].values())
    loads = report["workloads"]["single-chip"]["loadavg"]
    assert sorted(loads) == ["change", "parent"]
    for runs in loads.values():
        assert len(runs) == 2
        for run in runs:
            assert sorted(run) == ["after", "before"]
            assert all(len(v) == 3 and min(v) >= 0.0 for v in run.values())
    cpu = report["workloads"]["single-chip"]["cpu_s"]
    assert sorted(cpu) == ["change", "parent"]
    for runs in cpu.values():
        assert len(runs) == 2
        for run in runs:
            assert sorted(run) == ["host_busy", "host_steal", "run"]
            assert run["run"] > 0.0 and run["host_busy"] > 0.0 and run["host_steal"] >= 0.0
    times = report["workloads"]["single-chip"]["times"]
    assert times == {"parent": [{"pass_s": 0.01, "ref_s": 0.2}] * 2,
                     "change": [{"pass_s": 0.02, "ref_s": 0.2}] * 2}


def test_bench_pairs_counts_the_lines_that_hold_code(tmp_path):
    # blank lines, comment lines and the module's, a class's and a
    # function's docstrings are left out of the code count; a string that
    # is no docstring, and a line with code and a comment, are code
    bench_pairs = _bench_pairs_module()
    pkg = tmp_path / "src" / "pkg"
    pkg.mkdir(parents=True)
    (pkg / "a.py").write_text(textwrap.dedent('''\
        """A module.

        Its docstring runs over three lines."""
        # a comment

        import math  # a comment after code


        class C:
            """One line."""

            def f(self):
                """Two
                lines."""
                #: an attribute comment
                return """not a
        docstring"""
        '''))
    (pkg / "b.py").write_text("\n\nx = 1\n")
    assert bench_pairs.source_lines(tmp_path) == 20
    # a.py's import, class and def lines and its return's two lines, and
    # b.py's one line
    assert bench_pairs.source_code_lines(tmp_path) == 5 + 1
    # the same count per module, by path under src/
    assert bench_pairs.code_lines_by_module(tmp_path) == {"pkg/a.py": 5, "pkg/b.py": 1}
    assert bench_pairs.code_lines_by_module(tmp_path, "tests") == {}


def test_bench_pairs_refuses_a_checkout_that_differs_from_head(tmp_path, monkeypatch, capsys):
    # the change measured is HEAD's export, so an uncommitted edit to a file
    # a run reads is refused, by name, before anything is exported or run
    bench_pairs = _bench_pairs_module()

    def git(*args):
        assert args[0] == "diff"
        return "BENCHMARK.json\nsrc/chaoswpt/montecarlo.py"

    def refuse(*args, **kw):
        raise AssertionError("exported or ran with a dirty checkout")

    monkeypatch.setattr(bench_pairs, "git", git)
    monkeypatch.setattr(bench_pairs, "export", refuse)
    monkeypatch.setattr(bench_pairs, "subprocess", types.SimpleNamespace(run=refuse))
    out = tmp_path / "bench.json"
    assert bench_pairs.main(["--parent", "HEAD~1", "--out", str(out),
                             "--pairs", "single-chip=2"]) == 2
    err = capsys.readouterr().err
    assert "BENCHMARK.json, src/chaoswpt/montecarlo.py differ from HEAD" in err
    assert not out.exists()


def test_bench_pairs_cleans_up_when_terminated(tmp_path):
    # SIGTERM (pkill's default) arrives while the exports are made: the
    # script must unwind, so that its temporary directory is removed, and
    # not end at once, as the signal's default action does
    child = textwrap.dedent(f"""
        import importlib.util, os, signal
        spec = importlib.util.spec_from_file_location(
            "bench_pairs", {str(ROOT / "scripts" / "bench_pairs.py")!r})
        bench_pairs = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(bench_pairs)
        bench_pairs.git = lambda *args: "" if args[0] == "diff" else "1" * 40

        def export(ref, dest):
            (dest / "src").mkdir()
            os.kill(os.getpid(), signal.SIGTERM)

        bench_pairs.export = export
        bench_pairs.main(["--parent", "HEAD~1", "--out", "bench.json",
                          "--pairs", "single-chip=1"])
    """)
    proc = subprocess.run([sys.executable, "-c", child], cwd=tmp_path,
                          env={**os.environ, "TMPDIR": str(tmp_path)},
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 128 + signal.SIGTERM, proc.stderr
    assert "Traceback" not in proc.stderr
    assert list(tmp_path.iterdir()) == []
