"""End-to-end distribution verification.

Each reference family is re-sampled here by brute force — running the actual
physical transformation chain (chip draw, data bit, Rayleigh gain, square /
fourth power) rather than inverting the closed-form density — and compared
against the oracle three ways: normalization of the continuous part, moments
against their closed-form values, and a Kolmogorov-Smirnov distance on the
full CDF including the point mass at zero.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ._parallel import fork_map
from .analytic import PdfOracle, make_oracle, oracle_cdf, oracle_moment, oracle_normalization
from .channel import sample_rayleigh

__all__ = [
    "MomentCheck",
    "FamilyReport",
    "expected_moments",
    "sample_family",
    "ks_statistic",
    "verify_family",
    "verify_distributions",
    "NORM_ABS_TOL",
    "KS_TOL",
]

#: absolute tolerance on |integral - (1 - atom mass)|
NORM_ABS_TOL = 1e-6
#: KS distance gate used by the report (statistical noise at n = 1e6 is ~1e-3)
KS_TOL = 5e-3


def expected_moments(family: str, beta: int | None = None) -> list[tuple[int, float]]:
    """Closed-form moments the quadrature must reproduce, as (order, value)."""
    if family == "S_b1":
        return [(2, 1.0), (4, 6.0)]
    if family == "Z_b1":
        return [(1, 1.0), (2, 6.0)]
    if family == "P_b1":
        return [(1, 6.0)]
    if family == "S_clt":
        if beta is None or beta < 2:
            raise ValueError("S_clt needs an integer beta >= 2")
        return [(2, float(beta)), (4, 12.0 * float(beta) ** 2)]
    if family == "Delta_b1":
        return [(1, 1.0), (2, 3.0)]
    if family == "Theta_b1":
        return [(1, 1.5)]
    raise ValueError(f"unknown family {family!r}")


def sample_family(family: str, n: int, rng: np.random.Generator,
                  beta: int | None = None) -> np.ndarray:
    """Draw n samples of a reference family through the physical chain.

    For the single-chip families the chip is one fresh arcsine draw per
    symbol; S_clt instead draws the chip-sum from its Gaussian model
    N(0, beta/2), because that family *is* the Gaussian-model law (real chip
    sums differ from it in the fourth moment, which is exactly the kind of
    discrepancy the harvested-DC tests quantify elsewhere).
    """
    if n < 1:
        raise ValueError(f"need at least one sample, got n={n}")
    h = sample_rayleigh(rng, size=n)
    if family == "S_clt":
        if beta is None or beta < 2:
            raise ValueError("S_clt needs an integer beta >= 2")
        v = rng.normal(0.0, math.sqrt(beta / 2.0), size=n)
        d = rng.integers(0, 2, size=n) * 2 - 1
        return h * (1 + d) * v
    if beta not in (None, 1):
        raise ValueError(f"{family} is defined for beta = 1 only")
    x = np.cos(np.pi * rng.random(n))
    if family in ("S_b1", "Z_b1", "P_b1"):
        d = rng.integers(0, 2, size=n) * 2 - 1
        s = h * (1 + d) * x
        if family == "S_b1":
            return s
        if family == "Z_b1":
            return s * s
        return s ** 4
    if family == "Delta_b1":
        # full-symbol sum of squared received samples: both halves carry x^2
        return 2.0 * (h * x) ** 2
    if family == "Theta_b1":
        return 2.0 * (h * x) ** 4
    raise ValueError(f"unknown family {family!r}")


def ks_statistic(samples: np.ndarray, oracle: PdfOracle) -> float:
    """Kolmogorov-Smirnov distance against the oracle's full CDF.

    Handles the point mass at zero exactly: the supremum is evaluated at
    every distinct sample value from both the right (both CDFs after their
    jump) and the left (both before it).
    """
    samples = np.asarray(samples, dtype=float)
    if samples.ndim != 1 or samples.size == 0:
        raise ValueError("samples must be a nonempty 1-D array")
    n = samples.size
    vals, counts = np.unique(samples, return_counts=True)
    ecdf_right = np.cumsum(counts) / n
    ecdf_left = ecdf_right - counts / n
    cdf_right = np.asarray(oracle_cdf(oracle, vals), dtype=float)
    cdf_left = cdf_right - oracle.atom_at_zero * (vals == 0.0)
    return float(max(np.max(np.abs(ecdf_right - cdf_right)),
                     np.max(np.abs(ecdf_left - cdf_left))))


@dataclass(frozen=True)
class MomentCheck:
    order: int
    quadrature: float
    target: float

    @property
    def rel_err(self) -> float:
        return abs(self.quadrature - self.target) / abs(self.target)


@dataclass(frozen=True)
class FamilyReport:
    family: str
    beta: int | None
    atom_mass: float
    norm_integral: float
    norm_target: float
    ks_stat: float
    n_samples: int
    moments: list[MomentCheck] = field(default_factory=list)

    @property
    def norm_abs_err(self) -> float:
        return abs(self.norm_integral - self.norm_target)

    @property
    def max_moment_rel_err(self) -> float:
        return max(m.rel_err for m in self.moments)

    def passed(self, moment_rel_tol: float = 1e-5) -> bool:
        return (self.norm_abs_err < NORM_ABS_TOL
                and self.max_moment_rel_err < moment_rel_tol
                and self.ks_stat < KS_TOL)


def verify_family(family: str, n_samples: int, rng: np.random.Generator,
                  beta: int | None = None) -> FamilyReport:
    oracle = make_oracle(family, beta=beta)
    norm = oracle_normalization(oracle)
    checks = [MomentCheck(order=k, quadrature=oracle_moment(oracle, k), target=t)
              for k, t in expected_moments(family, beta=beta)]
    samples = sample_family(family, n_samples, rng, beta=beta)
    ks = ks_statistic(samples, oracle)
    return FamilyReport(family=family, beta=oracle.beta,
                        atom_mass=oracle.atom_at_zero,
                        norm_integral=norm, norm_target=1.0 - oracle.atom_at_zero,
                        ks_stat=ks, n_samples=n_samples, moments=checks)


#: the standard verification battery: all five single-chip families plus the
#: Gaussian-model family at a small and a moderate spreading factor
DEFAULT_BATTERY: tuple[tuple[str, int | None], ...] = (
    ("S_b1", None),
    ("Z_b1", None),
    ("P_b1", None),
    ("S_clt", 4),
    ("S_clt", 25),
    ("Delta_b1", None),
    ("Theta_b1", None),
)


def verify_distributions(n_samples: int = 1_000_000, seed: int = 0) -> list[FamilyReport]:
    """Run the whole battery; one report row per family instance.

    The families run in parallel (see ``_parallel.fork_map``); family i
    draws from its own stream ``default_rng((seed, i))``, so the reports
    equal those of a serial run.
    """
    if n_samples < 1:
        raise ValueError(f"need at least one sample, got {n_samples}")

    def run(i: int) -> FamilyReport:
        family, beta = DEFAULT_BATTERY[i]
        return verify_family(family, n_samples, np.random.default_rng((seed, i)),
                             beta=beta)

    return fork_map(run, range(len(DEFAULT_BATTERY)))
