"""Spans around each layer's entry points, patched in from outside the package.

Each entry point is wrapped under the name its caller imports it by (for
example ``chaoswpt.montecarlo.chebyshev_step``, which is what the Monte-Carlo
loop calls), so the program itself is unchanged.  A span records its name,
start, end, parent span, pass id and an element count; spans stay in memory
until the run writes them out.  A layer's self time is its span's duration
minus the part of that interval its child spans cover.
"""

from __future__ import annotations

import functools
import json
import statistics
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter
from typing import NamedTuple

from chaoswpt import cli, distcheck, harvester, montecarlo

FLOAT64_BYTES = 8


class Span(NamedTuple):
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    pass_id: int
    elements: int


def _size(args, kwargs, pos: int, key: str) -> int:
    """Element count of the argument at ``pos``/``key``: array size, or 1."""
    value = args[pos] if len(args) > pos else kwargs.get(key)
    size = getattr(value, "size", value)
    return 1 if size is None else int(size)


# (owner, attribute, span name, element count from (args, kwargs))
ENTRY_POINTS = (
    (cli, "main", "cli.main", None),
    (cli, "verify_distributions", "distcheck.verify_distributions", None),
    (montecarlo, "sweep_beta", "montecarlo.sweep_beta", None),
    (montecarlo, "run_once", "montecarlo.run_once",
     lambda a, k: a[0].n_frames),
    (montecarlo, "chebyshev_step", "chaos.chebyshev_step",
     lambda a, k: _size(a, k, 0, "x")),
    (montecarlo, "draw_initial_state", "chaos.draw_initial_state",
     lambda a, k: _size(a, k, 1, "size")),
    (montecarlo, "sample_rayleigh", "channel.sample_rayleigh",
     lambda a, k: _size(a, k, 1, "size")),
    (distcheck, "sample_rayleigh", "channel.sample_rayleigh",
     lambda a, k: _size(a, k, 1, "size")),
    (harvester.DcAccumulator, "add_moments", "harvester.add_moments",
     lambda a, k: _size(a, k, 1, "n")),
    (montecarlo, "z_with_correlator", "analytic.closed_form", None),
    (montecarlo, "z_without_correlator", "analytic.closed_form", None),
    (montecarlo, "papr_analytic", "analytic.closed_form", None),
    (distcheck, "oracle_moment", "analytic.quad", None),
    (distcheck, "oracle_normalization", "analytic.quad", None),
    (distcheck, "oracle_cdf", "analytic.oracle_cdf",
     lambda a, k: _size(a, k, 1, "x")),
    (distcheck, "sample_family", "distcheck.sample_family",
     lambda a, k: _size(a, k, 1, "n")),
    (distcheck, "ks_statistic", "distcheck.ks_statistic",
     lambda a, k: _size(a, k, 0, "samples")),
)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._pass_id = -1

    def _wrap(self, original, name: str, count):
        @functools.wraps(original)
        def traced(*args, **kwargs):
            sid = len(self.spans)
            parent = self._stack[-1] if self._stack else None
            self.spans.append(None)  # reserve the id; filled in on exit
            self._stack.append(sid)
            start = perf_counter()
            try:
                return original(*args, **kwargs)
            finally:
                end = perf_counter()
                self._stack.pop()
                elements = count(args, kwargs) if count else 0
                self.spans[sid] = Span(sid, name, start, end, parent,
                                       self._pass_id, elements)
        return traced

    @contextmanager
    def active(self, pass_id: int):
        """Patch every entry point for one pass, and restore them after it."""
        self._pass_id = pass_id
        saved = []
        try:
            for owner, attr, name, count in ENTRY_POINTS:
                original = vars(owner)[attr]
                saved.append((owner, attr, original))
                setattr(owner, attr, self._wrap(original, name, count))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span._asdict()) + "\n")


def _covered(intervals: list[tuple[float, float]]) -> float:
    """Length of the union of the intervals."""
    total, reach = 0.0, float("-inf")
    for start, end in sorted(intervals):
        if end > reach:
            total += end - max(start, reach)
            reach = end
    return total


class _Totals:
    def __init__(self) -> None:
        self.calls = 0
        self.seconds = 0.0
        self.self_seconds = 0.0
        self.elements = 0


def layer_metrics(spans: list[Span], n_passes: int) -> dict[str, float]:
    """Per-layer metrics from the spans of ``n_passes`` traced passes.

    Counts and seconds are per pass; ns figures are per element the layer
    handled.  A layer that a workload never enters reports 0.
    """
    children: dict[int, list[Span]] = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append(s)
    t: dict[str, _Totals] = defaultdict(_Totals)
    for s in spans:
        agg = t[s.name]
        agg.calls += 1
        agg.seconds += s.end - s.start
        agg.self_seconds += s.end - s.start - _covered(
            [(c.start, c.end) for c in children[s.id]])
        agg.elements += s.elements

    def ns_per(seconds: float, n: int) -> float:
        return 1e9 * seconds / n if n else 0.0

    step, draw = t["chaos.chebyshev_step"], t["chaos.draw_initial_state"]
    run, add = t["montecarlo.run_once"], t["harvester.add_moments"]
    frames, chips = run.elements, step.elements
    batch = frames / add.calls if add.calls else 0.0
    ks, cdf = t["distcheck.ks_statistic"], t["analytic.oracle_cdf"]
    shares = [max(c.end - c.start for c in children[s.id]) / (s.end - s.start)
              for s in spans if s.name == "montecarlo.sweep_beta"]
    return {
        "chaos.step_calls": step.calls / n_passes,
        "chaos.step_ns_per_chip": ns_per(step.seconds, chips),
        "chaos.draw_ns_per_frame": ns_per(draw.seconds, frames),
        "chaos.redraw_ratio": draw.elements / frames if frames else 0.0,
        "channel.rayleigh_ns_per_frame": ns_per(t["channel.sample_rayleigh"].seconds,
                                                t["channel.sample_rayleigh"].elements),
        "harvester.add_moments_calls": add.calls / n_passes,
        "harvester.accumulate_s": add.seconds / n_passes,
        "montecarlo.self_ns_per_chip": ns_per(run.self_seconds, chips),
        "montecarlo.self_ns_per_frame": ns_per(run.self_seconds, frames),
        "montecarlo.batch_frames": batch,
        "montecarlo.batch_array_bytes": batch * FLOAT64_BYTES,
        "montecarlo.cell_s_max_share": statistics.median(shares) if shares else 0.0,
        "montecarlo.sweep_self_s": t["montecarlo.sweep_beta"].self_seconds / n_passes,
        "analytic.quad_calls": t["analytic.quad"].calls / n_passes,
        "analytic.quad_s": t["analytic.quad"].seconds / n_passes,
        "analytic.cdf_ns_per_sample": ns_per(cdf.seconds, cdf.elements),
        "analytic.closed_form_s": t["analytic.closed_form"].seconds / n_passes,
        "distcheck.sample_ns_per_sample": ns_per(t["distcheck.sample_family"].seconds,
                                                 t["distcheck.sample_family"].elements),
        "distcheck.ks_self_ns_per_sample": ns_per(ks.self_seconds, ks.elements),
        "cli.self_s": t["cli.main"].self_seconds / n_passes,
    }
