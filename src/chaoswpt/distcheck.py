"""End-to-end distribution verification.

Each reference family is re-sampled here by brute force — running the actual
physical transformation chain (chip draw, data bit, Rayleigh gain, square /
fourth power) rather than inverting the closed-form density — and compared
against the oracle three ways: normalization of the continuous part, moments
against their closed-form values, and a Kolmogorov-Smirnov distance on the
full CDF including the point mass at zero.  Where the data bit erases half
the symbols onto that atom, only the count of the others is drawn for it,
and the KS distance counts the erased symbols at 0 rather than holding them:
it sorts the off-atom samples in place and evaluates the CDF at those alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._parallel import fork_map
from .analytic import PdfOracle, make_oracle, oracle_cdf, oracle_moment, oracle_normalization
from .channel import sample_rayleigh
from .chaos import _cos_pi
from .harvester import _check

__all__ = [
    "FamilyReport",
    "expected_moments",
    "sample_family",
    "ks_statistic",
    "verify_family",
    "verify_distributions",
    "NORM_ABS_TOL",
    "MOMENT_REL_TOL",
    "KS_TOL",
]

#: absolute tolerance on |integral - (1 - atom mass)|
NORM_ABS_TOL = 1e-6
#: relative tolerance on each quadrature moment against its closed form
MOMENT_REL_TOL = 1e-5
#: KS distance gate used by the report (statistical noise at n = 1e6 is ~1e-3)
KS_TOL = 5e-3


def expected_moments(family: str, beta: int = 1) -> list[tuple[int, float]]:
    """Closed-form moments the quadrature must reproduce, as (order, value)."""
    PdfOracle(family, beta)  # checks the (family, beta) pair
    if family == "S_clt":
        return [(2, float(beta)), (4, 12.0 * float(beta) ** 2)]
    return {"S_b1": [(2, 1.0), (4, 6.0)], "Z_b1": [(1, 1.0), (2, 6.0)], "P_b1": [(1, 6.0)],
            "Delta_b1": [(1, 1.0), (2, 3.0)], "Theta_b1": [(1, 1.5)]}[family]


def sample_family(family: str, n: int, rng: np.random.Generator,
                  beta: int = 1) -> np.ndarray:
    """Draw n symbols of a reference family through the physical chain.

    For the single-chip families the chip is one fresh arcsine draw per
    symbol, cos(pi*U) formed as the simulator forms its seed states
    (``chaos._cos_pi``); S_clt instead draws the chip-sum from its Gaussian
    model N(0, beta/2), because that family *is* the Gaussian-model law (real chip
    sums differ from it in the fourth moment, which is exactly the kind of
    discrepancy the harvested-DC tests quantify elsewhere).

    In S_b1, Z_b1, P_b1 and S_clt the data bit d = -1 erases the symbol onto
    the atom at exactly 0.  Those families draw the count k ~ Binomial(n, 1/2)
    of d = +1 symbols, as full mode's batch loop does, and return only those
    k samples, h * 2 * chip and its powers: pass n to ``ks_statistic`` to put
    the other n - k at 0.  Delta_b1 and Theta_b1 have no atom and return n.
    """
    _check("n", n)
    PdfOracle(family, beta)  # checks the (family, beta) pair; draws stay physical
    erased = family in ("S_b1", "Z_b1", "P_b1", "S_clt")
    size = int(rng.binomial(n, 0.5)) if erased else n
    # each sample is built in place on the Rayleigh draw, with the operands
    # in the order of h * (1 + d) * chip; powers are chains of squarings
    h = sample_rayleigh(rng, size=size)
    if family == "S_clt":
        chip = rng.normal(0.0, math.sqrt(beta / 2.0), size=size)
    else:
        chip = _cos_pi(rng.random(size), np.empty(size))
    if erased:
        h *= 2.0  # 1 + d for d = +1
    h *= chip
    if family in ("S_b1", "S_clt"):
        return h
    # Z = S^2 and P = Z^2; Delta = 2 (h x)^2 and Theta = 2 (h x)^4, since both
    # halves of the symbol carry the chip's power
    h *= h
    if family in ("P_b1", "Theta_b1"):
        h *= h
    if family in ("Delta_b1", "Theta_b1"):
        h *= 2.0
    return h


def ks_statistic(samples: np.ndarray, oracle: PdfOracle, n: int | None = None) -> float:
    """Kolmogorov-Smirnov distance of n symbols against the oracle's full CDF.

    ``samples`` holds the symbols off the zero atom, exact zeros among them
    allowed; the other n - samples.size (n defaults to samples.size) sit at
    exactly 0.  The array is sorted in place, and the CDF is evaluated only
    at its values and once at 0.  The sample of 1-based rank r has the ECDF
    r/n from the right and r/n - 1/n from the left, where r counts every
    zero below a positive sample; at 0 the whole atom's count jumps at once,
    and the CDF's left limit there drops by the oracle's atom.  Equal
    nonzero samples take ranks one apart instead of one shared count, which
    moves the supremum by at most a few ulp.  Each side takes two extremes,
    max(r/n - F) and max(F - (r/n - 1/n)): the left ECDF's distance is
    fl(r/n - 1/n) - F, at most r/n - F elementwise, since rounding is
    monotone, so the other two can never be the largest.
    """
    samples = np.asarray(samples, dtype=float)
    if samples.ndim != 1:
        raise ValueError("samples must be a 1-D array")
    n = samples.size if n is None else n
    _check("n", n)
    if n < samples.size:
        raise ValueError(f"n must be at least the {samples.size} samples given, got {n!r}")
    samples.sort()
    below = int(np.searchsorted(samples, 0.0, side="left"))
    above = int(np.searchsorted(samples, 0.0, side="right"))
    zeros = n - samples.size + above - below
    step = 1.0 / n
    # per side: the right-hand ECDF, its distance to the CDF, and the
    # left-hand one's, in three buffers of the side's size
    extremes = []
    for part, first in ((samples[:below], 1), (samples[above:], below + zeros + 1)):
        if part.size:
            right = np.arange(first, first + part.size, dtype=float)
            right /= n
            left = np.subtract(right, step)
            cdf = oracle_cdf(oracle, part)
            right -= cdf
            left -= cdf
            extremes += [right.max(), -left.min()]
    if zeros:
        at_zero = oracle_cdf(oracle, 0.0)
        right = (below + zeros) / n
        extremes += [abs(right - at_zero),
                     abs(right - zeros / n - (at_zero - oracle.atom_at_zero))]
    return float(np.max(extremes))


@dataclass(frozen=True)
class FamilyReport:
    """One family's checks, its fields in the order of a ``verify-dist`` row."""

    family: str
    beta: int
    atom_mass: float
    norm_integral: float
    norm_target: float
    #: |norm_integral - norm_target|
    norm_abs_err: float
    #: the largest relative error of a quadrature moment against its closed form
    max_moment_rel_err: float
    ks_stat: float
    n_samples: int

    def passed(self) -> bool:
        return (self.norm_abs_err < NORM_ABS_TOL
                and self.max_moment_rel_err < MOMENT_REL_TOL
                and self.ks_stat < KS_TOL)


def verify_family(family: str, n_samples: int, rng: np.random.Generator,
                  beta: int = 1) -> FamilyReport:
    oracle = make_oracle(family, beta=beta)
    norm = oracle_normalization(oracle)
    target = 1.0 - oracle.atom_at_zero
    moment_err = max(abs(oracle_moment(oracle, k) - t) / abs(t)
                     for k, t in expected_moments(family, beta=beta))
    samples = sample_family(family, n_samples, rng, beta=beta)
    ks = ks_statistic(samples, oracle, n_samples)
    return FamilyReport(family=family, beta=oracle.beta, atom_mass=oracle.atom_at_zero,
                        norm_integral=norm, norm_target=target,
                        norm_abs_err=abs(norm - target), max_moment_rel_err=moment_err,
                        ks_stat=ks, n_samples=n_samples)


#: the standard verification battery: all five single-chip families plus the
#: Gaussian-model family at a small and a moderate spreading factor
DEFAULT_BATTERY: tuple[tuple[str, int], ...] = (
    ("S_b1", 1),
    ("Z_b1", 1),
    ("P_b1", 1),
    ("S_clt", 4),
    ("S_clt", 25),
    ("Delta_b1", 1),
    ("Theta_b1", 1),
)


def verify_distributions(n_samples: int = 1_000_000, seed: int = 0) -> list[FamilyReport]:
    """Run the whole battery; one report row per family instance.

    The families run in parallel (see ``_parallel.fork_map``); family i
    draws from its own stream ``default_rng((seed, i))``, so the reports
    equal those of a serial run.
    """
    _check("n_samples", n_samples)
    _check("seed", seed)

    def run(i: int) -> FamilyReport:
        family, beta = DEFAULT_BATTERY[i]
        return verify_family(family, n_samples, np.random.default_rng((seed, i)),
                             beta=beta)

    return fork_map(run, range(len(DEFAULT_BATTERY)))
