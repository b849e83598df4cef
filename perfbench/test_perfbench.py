"""Self-tests of the benchmark harness, at tiny sizes.

    PYTHONPATH=src python3 -m pytest -q perfbench/test_perfbench.py
"""

from __future__ import annotations

import json
import math
import multiprocessing
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import reference  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from workloads import WARMUP_SIZES, WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture
def tiny(monkeypatch):
    """Run every workload at its warm-up size."""
    for name, n in WARMUP_SIZES.items():
        monkeypatch.setitem(workloads.SIZES, name, n)


def test_spec_names_the_harness_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert set(workloads.SIZES) == set(WARMUP_SIZES) == set(WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_every_metric_is_printed_with_its_unit(workload, trace, tiny, tmp_path,
                                               monkeypatch, capsys):
    # the worker runs in this process, so that it sees the tiny sizes
    def in_process(env, workload, seed, seconds, trace):
        result = worker.measure(workload, seed, seconds, bool(trace), str(tmp_path))
        return json.loads(json.dumps(result))
    monkeypatch.setattr(run, "run_worker", in_process)
    monkeypatch.setattr(run, "OUT", tmp_path)
    status = run.main(["--workload", workload, "--seed", "5", "--seconds", "0.5",
                       "--trace", str(trace)])
    out, summary = capsys.readouterr()
    assert status == 0, summary
    line = json.loads(out.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["attempted"] >= 1 and line["failed"] == 0 and line["correct"]
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert list(line["metrics"]) == [m["name"] for m in declared]
    for m in declared:
        got = line["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], float) and math.isfinite(got["value"])
    # the human summary names every metric, plus the per-workload extras
    for m in declared:
        assert f" {m['name']} " in summary
    assert " failed_ratio " in summary
    if not trace:
        extra = "samples_per_s" if workload == "dist-battery" else "chips_per_s"
        assert f" {extra} " in summary


def test_missing_sources_exit_nonzero_without_a_result(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for f in HERE.glob("*.py"):
        (tmp_path / "perfbench" / f.name).write_bytes(f.read_bytes())
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(SPEC))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "single-chip", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=60, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_same_seed_gives_identical_inputs(workload, tmp_path):
    run_pass, _ = WORKLOADS[workload]

    def inputs(seed, k):
        return run_pass(seed, k, WARMUP_SIZES[workload], str(tmp_path),
                        workloads.Pool())[0]
    assert inputs(11, 0) == inputs(11, 0)
    assert inputs(11, 0) != inputs(12, 0)
    assert inputs(11, 0) != inputs(11, 1)


def test_same_inputs_give_identical_answers(tmp_path):
    run_pass, _ = WORKLOADS["single-chip"]
    first, second = (run_pass(3, 0, 20_000, str(tmp_path), workloads.Pool())[1]
                     for _ in range(2))
    assert first.estimate == second.estimate


def _failed(workload: str, tmp_path) -> int:
    return worker.measure(workload, seed=2, seconds=0, trace=False,
                          scratch=str(tmp_path))["failed"]


def test_exact_references_pass_at_tiny_size(tiny, tmp_path):
    assert _failed("single-chip", tmp_path) == 0


# at tiny sizes the fitted c2 carries a ~30% standard error, so its wrong
# reference must be further off than the per-cell ones to be caught
@pytest.mark.parametrize("workload, name, factor", [
    ("single-chip", "z_integrated_exact", 1.5),
    ("sweep-integrated", "z_integrated_exact", 1.5),
    ("sweep-integrated", "c2_exact", 5.0),
    ("sweep-raw", "z_raw_exact", 1.5),
])
def test_a_wrong_reference_raises_the_failed_count(workload, name, factor, tiny,
                                                   tmp_path, monkeypatch):
    exact = getattr(reference, name)
    monkeypatch.setattr(reference, name, lambda *a: factor * exact(*a))
    assert _failed(workload, tmp_path) > 0


def test_a_crashing_pass_counts_as_failed(tiny, tmp_path, monkeypatch):
    def boom(*args, **kwargs):
        raise RuntimeError("injected")
    monkeypatch.setattr(tracing.montecarlo, "run_once", boom)
    result = worker.measure("single-chip", seed=2, seconds=0, trace=False,
                            scratch=str(tmp_path))
    assert result["failed"] == result["attempted"] > 0


def _spin(seconds: float) -> None:
    end = time.process_time() + seconds
    while time.process_time() < end:
        pass


def test_cpu_util_counts_a_process_pool(tiny, tmp_path, monkeypatch):
    run_pass, final = WORKLOADS["single-chip"]

    def pooled_pass(*args):
        with multiprocessing.get_context("fork").Pool(2) as procs:
            procs.map(_spin, [0.4, 0.4])
            procs.close()
            procs.join()
        return run_pass(*args)
    monkeypatch.setitem(WORKLOADS, "single-chip", (pooled_pass, final))
    result = worker.measure("single-chip", seed=2, seconds=0, trace=True,
                            scratch=str(tmp_path))
    assert result["failed"] == 0
    assert result["layers"]["process.cpu_util"] > 1.0


def _span(sid, name, start, end, parent=None, elements=0):
    return tracing.Span(sid, name, start, end, parent, 0, elements)


def test_self_time_subtracts_the_union_of_child_spans():
    spans = [
        _span(0, "montecarlo.run_once", 0.0, 10.0, elements=4),
        _span(1, "chaos.chebyshev_step", 1.0, 4.0, parent=0, elements=8),
        _span(2, "chaos.draw_initial_state", 3.0, 5.0, parent=0, elements=4),
        _span(3, "harvester.add_moments", 6.0, 7.0, parent=0, elements=4),
    ]
    m = tracing.layer_metrics(spans, n_passes=2)
    # children cover [1, 5] and [6, 7]: 5 of the 10 s
    assert m["montecarlo.self_ns_per_frame"] == pytest.approx(1e9 * 5.0 / 4)
    assert m["montecarlo.self_ns_per_chip"] == pytest.approx(1e9 * 5.0 / 8)
    assert m["chaos.step_calls"] == 0.5
    assert m["montecarlo.batch_frames"] == 4
    assert m["harvester.accumulate_s"] == pytest.approx(0.5)


def test_tracer_restores_every_entry_point():
    before = [vars(owner)[attr] for owner, attr, _, _ in tracing.ENTRY_POINTS]
    tracer = tracing.Tracer()
    with tracer.active(0):
        tracing.montecarlo.run_once(
            tracing.montecarlo.RunConfig(beta=2, r=20.0, n_frames=200, seed=1))
    after = [vars(owner)[attr] for owner, attr, _, _ in tracing.ENTRY_POINTS]
    assert after == before
    names = {s.name for s in tracer.spans}
    assert {"montecarlo.run_once", "chaos.chebyshev_step", "chaos.draw_initial_state",
            "channel.sample_rayleigh", "harvester.add_moments",
            "analytic.closed_form"} <= names
