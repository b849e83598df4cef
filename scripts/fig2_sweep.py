#!/usr/bin/env python3
"""Harvested DC vs spreading factor, both receivers, near and far links.

Produces the CSV behind the main scaling plot: the integrated receiver grows
quadratically with beta while the raw stream only grows linearly, so a far
integrated link eventually overtakes a near raw one.  Run with defaults for
the standard grid, or trim --n-frames for a quick look.
"""

import argparse
import csv
import math
import sys
import time

from chaoswpt.cli import DEFAULTS
from chaoswpt.montecarlo import RunConfig, sweep_beta


def _in_sigmas(dev: float, se: float) -> float:
    """dev / se as ``RunResult.excess_sigma`` divides: a standard error of 0
    gives the signed infinity, or NaN when the deviation is 0 too."""
    if se == 0.0:
        return math.copysign(math.inf, dev) if dev else math.nan
    return dev / se


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    # the grid of `chaoswpt sweep`
    ap.add_argument("--betas", type=int, nargs="+", default=DEFAULTS["sweep"]["betas"])
    ap.add_argument("--distances", type=float, nargs="+",
                    default=DEFAULTS["sweep"]["distances"])
    ap.add_argument("--n-frames", type=int, default=200_000)
    ap.add_argument("--seed", type=int, default=DEFAULTS["run"]["seed"])
    ap.add_argument("--out", default="fig2_sweep.csv")
    args = ap.parse_args()

    base = RunConfig(beta=1, r=1.0, n_frames=args.n_frames, seed=args.seed)
    t0 = time.time()
    result = sweep_beta(args.betas, args.distances, ["full", "bypass"], base)
    print(f"{len(result.rows)} points in {time.time() - t0:.1f}s",
          file=sys.stderr)

    with open(args.out, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["beta", "r", "mode", "z_empirical", "z_stderr",
                         "z_analytic", "rel_dev", "excess_sigma"])
        for row in result.rows:
            writer.writerow([
                row.beta, row.r, row.psi_mode,
                f"{row.estimate.mean:.17g}", f"{row.estimate.std_error:.17g}",
                f"{row.z_analytic:.17g}", f"{row.rel_dev:.17g}",
                f"{row.excess_sigma:.17g}",
            ])
    print(f"wrote {args.out}", file=sys.stderr)

    # quick crossover readout: where does the far integrated link overtake
    # the near raw one?
    for beta in args.betas:
        far = result.select(beta=beta, r=max(args.distances), psi_mode="full")
        near = result.select(beta=beta, r=min(args.distances), psi_mode="bypass")
        if not far or not near:
            continue
        diff = far[0].estimate.mean - near[0].estimate.mean
        sigma = math.hypot(far[0].estimate.std_error,
                           near[0].estimate.std_error)
        marker = "+" if diff > 0 else "-"
        print(f"beta={beta:4d}  far-full minus near-bypass: {diff:+.3e} "
              f"({_in_sigmas(diff, sigma):+.1f} sigma) {marker}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
