#!/usr/bin/env python3
"""Quantify the gap between the asymptotic closed form and the exact chain.

The quadratic-in-beta closed form for the integrated receiver treats the
frame's chip sum V = x_1 + ... + x_beta as Gaussian, i.e. E[V^4] = 3 (beta/2)^2.
That is only the leading term.  For a Chebyshev orbit of degree xi the exact
fourth moment is

    E[V^4] = (3/4) beta^2 - (3/8) beta + c,

with c = (3/2) max(beta - 2, 0) at xi = 2, (beta - 1)/2 at xi = 3 and 0 at
xi >= 4 (the value independent chips give), so the harvested-DC prediction

    z = rho1 g beta + 16 rho2 g^2 E[V^4]

(``chaoswpt.analytic.z_with_correlator_exact``) carries O(beta) corrections
that the asymptotic branch (``chaoswpt.analytic.z_with_correlator``, the
paper's form) discards.  This script prints the noise-free
relative gap per beta at the map degree ``--xi`` and for independent chips,
the betas where it exceeds 5%, and (optionally) a Monte-Carlo spot check
that lands on the exact prediction rather than the asymptotic one.
"""

import argparse
import dataclasses
import sys

from chaoswpt.analytic import z_with_correlator, z_with_correlator_exact
from chaoswpt.channel import path_gain
from chaoswpt.cli import DEFAULTS
from chaoswpt.harvester import EhCircuit, rho_params
from chaoswpt.montecarlo import RunConfig, run_once

#: a map degree whose chips have no frequency relation beyond the pairings,
#: so that E[V^4] is that of independent chips
INDEPENDENT_XI = 4


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    # the operating point of `chaoswpt run`
    ap.add_argument("--r", type=float, default=DEFAULTS["run"]["r"])
    ap.add_argument("--alpha", type=float, default=DEFAULTS["channel"]["alpha"])
    ap.add_argument("--xi", type=int, default=DEFAULTS["waveform"]["xi"],
                    help="Chebyshev map degree (default %(default)s)")
    ap.add_argument("--betas", type=int, nargs="+",
                    default=[1, 2, 3, 5, 10, 20, 25, 50, 100])
    ap.add_argument("--mc-frames", type=int, default=0,
                    help="also run a Monte-Carlo spot check with this many "
                         "frames per beta (0 = skip)")
    ap.add_argument("--seed", type=int, default=DEFAULTS["run"]["seed"])
    args = ap.parse_args()

    circuit = EhCircuit()
    rho1, rho2 = rho_params(circuit)
    g = path_gain(args.r, args.alpha)
    ell, q0 = rho1 * g, rho2 * g * g

    print(f"r={args.r:g}  alpha={args.alpha:g}  xi={args.xi}  rho1*g={ell:.6e}  "
          f"rho2*g^2={q0:.6e}")
    print(f"{'beta':>5} {'z_asymptotic':>14} {'z_exact_orbit':>14} "
          f"{'gap_orbit':>10} {'gap_iid':>10}"
          + ("  mc_rel_dev  mc_sigma" if args.mc_frames else ""))

    violations = []
    for beta in args.betas:
        point = (beta, args.r, args.alpha, rho1, rho2)
        z_asym = z_with_correlator(*point)
        z_orbit = z_with_correlator_exact(*point, xi=args.xi)
        z_iid = z_with_correlator_exact(*point, xi=INDEPENDENT_XI)
        gap_orbit = (z_orbit - z_asym) / z_asym
        gap_iid = (z_iid - z_asym) / z_asym
        line = (f"{beta:>5} {z_asym:>14.6e} {z_orbit:>14.6e} "
                f"{100 * gap_orbit:>+9.2f}% {100 * gap_iid:>+9.2f}%")
        if args.mc_frames:
            res = run_once(RunConfig(beta=beta, r=args.r, alpha=args.alpha,
                                     psi_mode="full", n_frames=args.mc_frames,
                                     seed=args.seed, xi=args.xi))
            # deviation of the measurement from the *exact-orbit* prediction
            sig = dataclasses.replace(res, z_analytic=z_orbit).excess_sigma
            line += f"  {100 * res.rel_dev:>+9.2f}% {sig:>+8.1f}"
        print(line)
        if beta > 1 and abs(gap_orbit) > 0.05:
            violations.append(beta)

    if violations:
        print("\nbetas where the asymptotic branch misses by more than 5%: "
              + ", ".join(str(b) for b in violations))
    else:
        print("\nevery beta > 1 in the grid sits within 5% of the "
              "asymptotic branch")
    print("(At beta=1 the paper's form is the exact single-symbol constant, "
          "so the gap reads 0 there.)  At xi = 2 the gap is not monotone: "
          "the discarded terms flip sign at beta=3, peak near beta=5, and "
          "fade like O(1/beta) against the quadratic total.")
    return 0


if __name__ == "__main__":
    sys.exit(main())
