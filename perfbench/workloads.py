"""The four benchmark workloads: inputs from a seed, the program call, checks.

Each workload is one function ``(seed, k, n, scratch, pool) -> (inputs,
output, checks)`` for pass ``k`` of a run at size ``n``, plus a function that
checks the Monte-Carlo estimates pooled over the run's passes.  Every program
call goes through a ``chaoswpt`` module attribute looked up at call time
(``montecarlo.sweep_beta``, ``montecarlo.run_once``, ``cli.main``), so the
traced run's wrappers see it.  Checks compare the program's answers with the
exact forms in ``reference.py``; a check that raises counts as failed.
"""

from __future__ import annotations

import csv
import hashlib
import math
import os
from dataclasses import dataclass

import reference as ref

from chaoswpt import DcEstimate, SweepResult, SweepRow, cli, montecarlo

SWEEP_BETAS = tuple(range(10, 101, 10))
DISTANCE = 20.0
#: families in the distribution battery (distcheck.DEFAULT_BATTERY)
BATTERY_ROWS = 7

#: per-pass size: frames per sweep cell, frames per run, samples per family.
#: A sweep cell is two full batches of montecarlo._BATCH (2^16 frames), as
#: at criterion 7's 1e6 frames per cell, so each cell streams the same
#: batch-sized working set as the program's own sweeps.
SIZES = {"sweep-integrated": 1 << 17, "sweep-raw": 1 << 17,
         "single-chip": 2_000_000, "dist-battery": 1_000_000}
#: the untimed warm-up pass; the battery's KS gate (5e-3) needs a few 1e5
#: samples to pass reliably
WARMUP_SIZES = {"sweep-integrated": 2048, "sweep-raw": 2048,
                "single-chip": 20_000, "dist-battery": 400_000}


def pass_seed(workload: str, seed: int, k: int) -> int:
    """Program seed for pass k of a run: a pure function of its arguments."""
    tag = f"{workload}|{seed}|{k}".encode()
    return int(hashlib.sha256(tag).hexdigest()[:15], 16)


@dataclass(frozen=True)
class Check:
    name: str
    ok: bool
    detail: str


class Pool:
    """Monte-Carlo estimates of one run merged across its passes, per key.

    The per-frame DC statistic is heavily right-skewed (fourth powers of the
    Rayleigh gain and the chip sum), so the mean of a few 1e4 frames falls
    low with an underestimated standard error far more often than a normal
    law predicts: simulating a stand-in for it (Gaussian chip sum) at 2^16
    frames gave t < -4 in 1 cell of 750, against 1 in 30000 for a normal
    law.  Statistical checks therefore run once per run, on the frames of
    all its passes.
    """

    def __init__(self) -> None:
        self._sums: dict[object, list[float]] = {}

    def add(self, key, estimate) -> None:
        n, mean, se = estimate.n_frames, estimate.mean, estimate.std_error
        s = self._sums.setdefault(key, [0, 0.0, 0.0])
        s[0] += n
        s[1] += n * mean
        s[2] += (n - 1) * se * se * n + n * mean * mean

    def __contains__(self, key) -> bool:
        return key in self._sums

    def estimate(self, key) -> tuple[float, float, int]:
        """(mean, standard error, frames) of everything added under ``key``."""
        n, total, sumsq = self._sums[key]
        mean = total / n
        var = max(sumsq - n * mean * mean, 0.0) / (n - 1)
        return mean, math.sqrt(var / n), int(n)


def _within_se(name: str, mean: float, se: float, target: float) -> Check:
    sigma = (mean - target) / se
    return Check(name, abs(sigma) <= ref.SE_LIMIT,
                 f"{mean:.6e} vs exact {target:.6e} ({sigma:+.2f} SE)")


def _same(name: str, got: float, want: float) -> Check:
    return Check(name, abs(got - want) <= 1e-12 * abs(want),
                 f"{got!r} vs {want!r}")


def _pooled_cells(pool: Pool, betas, exact) -> list[Check]:
    """Each cell's pooled estimate within SE_LIMIT of its exact value."""
    checks = []
    for beta in betas:
        if beta not in pool:
            checks.append(Check(f"beta={beta}", False, "no pass produced this cell"))
            continue
        mean, se, n = pool.estimate(beta)
        checks.append(_within_se(f"beta={beta} pooled over {n} frames", mean, se,
                                 exact(beta, DISTANCE)))
    return checks


def frames_and_chips(inputs: dict) -> tuple[int, int]:
    """Frames (symbols) one pass simulates, and the chaotic chips it iterates."""
    if "betas" in inputs:
        return (inputs["n_frames"] * len(inputs["betas"]),
                inputs["n_frames"] * sum(inputs["betas"]))
    if "beta" in inputs:
        return inputs["n_frames"], inputs["n_frames"] * inputs["beta"]
    # each battery sample is one symbol pushed through the physical chain
    return inputs["n_samples"] * BATTERY_ROWS, 0


# --- sweeps -----------------------------------------------------------------

def _sweep(workload: str, mode: str, seed: int, k: int, n: int, pool: Pool):
    """One sweep pass; pools its cells if its rows match the grid."""
    inputs = {"betas": list(SWEEP_BETAS), "distances": [DISTANCE], "modes": [mode],
              "n_frames": n, "seed": pass_seed(workload, seed, k)}
    base = montecarlo.RunConfig(beta=1, r=DISTANCE, n_frames=n, seed=inputs["seed"])
    result = montecarlo.sweep_beta(inputs["betas"], inputs["distances"],
                                   inputs["modes"], base)
    got = [(row.beta, row.psi_mode, row.estimate.n_frames) for row in result.rows]
    if got != [(beta, mode, n) for beta in SWEEP_BETAS]:
        return inputs, result, [Check("grid rows", False, f"rows {got}")]
    for row in result.rows:
        pool.add(row.beta, row.estimate)
    return inputs, result, []


def sweep_integrated(seed: int, k: int, n: int, scratch: str, pool: Pool):
    # the rows' z_analytic is the asymptotic branch criterion 4 finds off at
    # small beta, so only the pooled estimates are checked
    return _sweep("sweep-integrated", "full", seed, k, n, pool)


def sweep_integrated_final(pool: Pool) -> list[Check]:
    checks = _pooled_cells(pool, SWEEP_BETAS, ref.z_integrated_exact)
    if not all(beta in pool for beta in SWEEP_BETAS):
        return checks + [Check("fit c2", False, "cells missing")]
    rows = []
    for beta in SWEEP_BETAS:
        mean, se, n = pool.estimate(beta)
        rows.append(SweepRow(
            beta=beta, r=DISTANCE, psi_mode="full",
            estimate=DcEstimate(mean=mean, std_error=se, n_frames=n),
            z_analytic=math.nan, papr_bound=math.nan))
    # criterion 7's fit; its expectation is exact because the reference is
    # quadratic in beta on the grid
    fit = montecarlo.fit_scaling(SweepResult(rows=rows), DISTANCE, "full")
    checks.append(_within_se("fit c2", fit.c2, fit.c2_stderr, ref.c2_exact(DISTANCE)))
    return checks


def sweep_raw(seed: int, k: int, n: int, scratch: str, pool: Pool):
    inputs, result, checks = _sweep("sweep-raw", "bypass", seed, k, n, pool)
    if not checks:
        checks = [_same(f"z_analytic beta={row.beta}", row.z_analytic,
                        ref.z_raw_exact(row.beta, DISTANCE)) for row in result.rows]
    return inputs, result, checks


def sweep_raw_final(pool: Pool) -> list[Check]:
    return _pooled_cells(pool, SWEEP_BETAS, ref.z_raw_exact)


# --- single chip --------------------------------------------------------------

def single_chip(seed: int, k: int, n: int, scratch: str, pool: Pool):
    inputs = {"beta": 1, "r": DISTANCE, "psi_mode": "full", "n_frames": n,
              "seed": pass_seed("single-chip", seed, k)}
    res = montecarlo.run_once(montecarlo.RunConfig(**inputs))
    if res.estimate.n_frames != n:
        return inputs, res, [Check("frames", False, f"{res.estimate.n_frames} frames")]
    pool.add(1, res.estimate)
    return inputs, res, [_same("z_analytic beta=1", res.z_analytic,
                               ref.z_integrated_exact(1, DISTANCE))]


def single_chip_final(pool: Pool) -> list[Check]:
    return _pooled_cells(pool, (1,), ref.z_integrated_exact)


# --- distribution battery ---------------------------------------------------

def dist_battery(seed: int, k: int, n: int, scratch: str, pool: Pool):
    inputs = {"n_samples": n, "seed": pass_seed("dist-battery", seed, k)}
    out = os.path.join(scratch, f"verify-dist-{os.getpid()}.csv")
    status = cli.main(["verify-dist", "--set", f"n_samples={n}",
                       "--set", f"seed={inputs['seed']}", "--out", out])
    try:
        with open(out, encoding="utf-8", newline="") as fh:
            rows = list(csv.DictReader(fh))
    finally:
        os.remove(out)
    checks = [Check("exit status", status == 0, f"verify-dist exited {status}"),
              Check("battery rows", len(rows) == BATTERY_ROWS, f"{len(rows)} rows")]
    for row in rows:
        checks.append(Check(f"{row['family']} beta={row['beta']}",
                            row["status"] == "ok" and int(row["n"]) == n,
                            f"status={row['status']} ks={row['ks_stat']} n={row['n']}"))
    return inputs, (status, rows), checks


#: name -> (one pass, checks on the estimates pooled over the run)
WORKLOADS = {
    "sweep-integrated": (sweep_integrated, sweep_integrated_final),
    "sweep-raw": (sweep_raw, sweep_raw_final),
    "single-chip": (single_chip, single_chip_final),
    "dist-battery": (dist_battery, lambda pool: []),
}
