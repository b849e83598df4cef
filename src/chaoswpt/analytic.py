"""Closed-form companions to the Monte-Carlo chain.

Harvested-DC predictions for the two receiver settings, the PAPR suprema,
the spreading-factor crossover bound, and the six reference distributions
that the end-to-end sampler is validated against.

The harvest closed forms and the crossover take plain numbers: the
spreading factor beta, the link (r, alpha) and the rectifier's lumped gains
(rho1, rho2), which :func:`chaoswpt.harvester.rho_params` derives from a
circuit.  Each checks its inputs against the library's rule table.  The
link and the gains enter only through the harvest weights (c2, c4) of
``_weights``, which the simulator multiplies its frames' drives by too, so
each closed form is c2 E[s2] + c4 E[s4] with E[s2] = beta, and the forms
differ only in the fourth-order drive moment E[s4].

Every density here is exact for single-chip symbols (beta = 1, the
default); the correlated-output family for beta > 1 ("S_clt") rests on a
Gaussian approximation of the chip sum, and its moments inherit that
approximation.  One table, ``_LAWS``, holds every family's law.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channel import path_gain
from .harvester import _check

__all__ = [
    "papr_analytic",
    "z_with_correlator",
    "z_with_correlator_exact",
    "z_without_correlator",
    "beta_crossover",
    "PdfOracle",
    "make_oracle",
    "pdf_eval",
    "oracle_cdf",
    "oracle_normalization",
    "oracle_moment",
    "FAMILIES",
]

# Families of reference distributions, all for Rayleigh-faded DCSK symbols
# with unit lumped scaling:
#   S_b1     amplitude of the full-symbol correlator output, beta = 1
#   Z_b1     its square (the second-order rectifier drive), beta = 1
#   P_b1     its fourth power (the fourth-order rectifier drive), beta = 1
#   S_clt    correlator-output amplitude for beta > 1, Gaussian chip-sum model
#   Delta_b1 per-symbol sum of squared chips through the fading power, beta = 1
#   Theta_b1 per-symbol sum of fourth-power chips through the squared fading
#            power, beta = 1
FAMILIES = ("S_b1", "Z_b1", "P_b1", "S_clt", "Delta_b1", "Theta_b1")

#: each family's (atom, s, p): mass atom at exactly 0 (the data bit erases
#: half of all correlated symbols), and otherwise X = s*G**p, G ~ N(0, 1/2).
#: For even p that is s*|G|**p on [0, inf), with P(X <= x) = atom + (1 -
#: atom)*erf((x/s)**(1/p)) and a density that blows up like x**(1/p - 1) at
#: 0; p = 1 is the signed s*G.  S_clt's row holds its atom alone: its law is
#: the Laplace law of scale sqrt(beta).
_LAWS = {"S_b1": (0.5, 2.0, 1), "Z_b1": (0.5, 4.0, 2), "P_b1": (0.5, 16.0, 4),
         "S_clt": (0.5, None, None), "Delta_b1": (0.0, 2.0, 2), "Theta_b1": (0.0, 2.0, 4)}


def papr_analytic(psi_mode: str, beta: int) -> float:
    """Supremum of the peak-to-average power ratio at the harvester input.

    'bypass' streams peak at twice their average chip power regardless of
    beta; 'full' integration concentrates a whole symbol into one value and
    peaks at 4*beta times the average.  Both are suprema over symbol
    realizations with the fading gain cancelled (it scales peak and average
    alike within a symbol).
    """
    _check("beta", beta)
    _check("psi_mode", psi_mode)
    return 2.0 if psi_mode == "bypass" else 4.0 * int(beta)


def _weights(r: float, alpha: float, rho1: float, rho2: float,
             label: str = "r") -> tuple[float, float]:
    """The harvest weights (c2, c4) = (rho1 g, 2 rho2 g^2) of a link, g = r**-alpha.

    A frame whose drives are s2 and s4 harvests c2 s2 + c4 s4 on average
    over the Rayleigh gain (E[h^2] = 1, E[h^4] = 2), so every harvest here
    is c2 E[s2] + c4 E[s4].  An error names the link's distance by ``label``.
    """
    _check("rho1", rho1)
    _check("rho2", rho2)
    g = path_gain(r, alpha, label)  # it checks r and alpha
    return rho1 * g, 2.0 * rho2 * g * g


def z_with_correlator(beta: int, r: float, alpha: float,
                      rho1: float, rho2: float) -> float:
    """Harvested DC with full-symbol integration ahead of the rectifier.

    z = rho1 g + 6 rho2 g^2 at beta = 1, which is exact, and
    z = rho1 g beta + 12 rho2 g^2 beta^2 above it, from the Gaussian
    chip-sum model: c2 beta + c4 E[s4] with E[s4] = 3, or 6 beta^2.  The
    beta > 1 branch is intentionally NOT continuous with the beta = 1 value
    (the two derivations disagree at beta = 1 by design, so no interpolation
    is attempted).
    """
    _check("beta", beta)
    c2, c4 = _weights(r, alpha, rho1, rho2)
    b = float(beta)
    return c2 * b + c4 * (3.0 if beta == 1 else 6.0 * b * b)


def z_with_correlator_exact(beta: int, r: float, alpha: float, rho1: float,
                            rho2: float, xi: int = 2) -> float:
    """Exact harvested DC with full-symbol integration, at any beta and map degree.

    z = rho1 g beta + 16 rho2 g^2 E[V^4] for the chip sum V = x_1 + ... +
    x_beta of a degree-xi orbit under its invariant law (E[h^4] = 2 and
    E[(1 + d)^4] = 8 give the 16), that is c2 beta + c4 E[s4] with
    E[s4] = 8 E[V^4].  With x_k = cos(xi^k theta), a mean of
    cosines is 2^-4 times the count of sign patterns of the frequencies that
    sum to 0, so E[V^4] = 3/4 beta^2 - 3/8 beta + c: the pairings give the
    first two terms, and c counts the relations beyond them, 3/2 max(beta -
    2, 0) at xi = 2 (4n = 2n + n + n), (beta - 1)/2 at xi = 3 (3n = n + n +
    n), and 0 at xi >= 4.  At beta = 1 it is ``z_with_correlator``'s exact
    value; at large beta it tends to the Gaussian model's 3/4 beta^2.
    """
    _check("beta", beta)
    c2, c4 = _weights(r, alpha, rho1, rho2)
    _check("xi", xi)
    b = float(beta)
    c = {2: 1.5 * max(b - 2.0, 0.0), 3: 0.5 * (b - 1.0)}.get(int(xi), 0.0)
    return c2 * b + c4 * 8.0 * (0.75 * b * b - 0.375 * b + c)


def z_without_correlator(beta: int, r: float, alpha: float,
                         rho1: float, rho2: float) -> float:
    """Harvested DC for the raw chip stream (no integration), any beta.

    z = rho1 g beta + 3/2 rho2 g^2 beta: c2 beta + c4 E[s4] with
    E[s4] = 3/4 beta.
    """
    _check("beta", beta)
    c2, c4 = _weights(r, alpha, rho1, rho2)
    b = float(beta)
    return c2 * b + c4 * 0.75 * b


def beta_crossover(r_c: float, r_nc: float, alpha: float, rho1: float, rho2: float,
                   labels: tuple[str, str] = ("r_c", "r_nc")) -> float:
    """Spreading factor above which the correlated link out-harvests the raw one.

    Solves z_with_correlator(beta, r_c) >= z_without_correlator(beta, r_nc)
    for the beta > 1 branch, c2_c beta + 6 c4_c beta^2 >= (c2_nc + 3/4 c4_nc)
    beta in the two links' weights; the returned bound is real-valued and
    may fall below 1 (the correlated link then wins at every spreading
    factor).  An error names the two distances by ``labels``.
    """
    label_c, label_nc = labels
    c2_c, c4_c = _weights(r_c, alpha, rho1, rho2, label_c)
    c2_nc, c4_nc = _weights(r_nc, alpha, rho1, rho2, label_nc)
    if rho2 == 0:
        raise ValueError("the crossover needs a quartic rectifier term (k4 > 0), "
                         "but rho2 = 0")
    den = 6.0 * c4_c
    if not 0.0 < den < math.inf:
        raise ValueError(f"the quartic weight 6*c4={den!r} of the correlated link is not a "
                         f"finite positive float for {label_c}={r_c!r}, alpha={alpha!r}, "
                         f"rho2={rho2!r}")
    bound = ((c2_nc - c2_c) + 0.75 * c4_nc) / den
    if not math.isfinite(bound):
        raise ValueError(f"the crossover bound is not a finite float for {label_c}={r_c!r}, "
                         f"{label_nc}={r_nc!r}, alpha={alpha!r} (got {bound!r})")
    return bound


# ---------------------------------------------------------------------------
# Reference distributions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PdfOracle:
    """One of the six reference families at spreading factor ``beta``: 1 for
    the single-chip laws, at least 2 for S_clt.  The atom and the support
    are read off the family's row of ``_LAWS``.
    """

    family: str
    beta: int = 1

    def __post_init__(self) -> None:
        if self.family not in FAMILIES:
            raise ValueError(f"unknown family {self.family!r}; choose from {FAMILIES}")
        _check("beta", self.beta)
        if self.family == "S_clt":
            if self.beta < 2:
                raise ValueError("S_clt needs an integer beta >= 2")
        elif self.beta != 1:
            raise ValueError(f"{self.family} is defined for beta = 1 only")

    @property
    def atom_at_zero(self) -> float:
        """Probability mass sitting exactly at zero."""
        return _LAWS[self.family][0]

    @property
    def support(self) -> tuple[float, float]:
        p = _LAWS[self.family][2]
        return (-math.inf, math.inf) if p in (None, 1) else (0.0, math.inf)


def make_oracle(family: str, beta: int = 1) -> PdfOracle:
    """Oracle for one of the six reference families."""
    return PdfOracle(family, beta)


def _points(oracle: PdfOracle, x) -> np.ndarray:
    """``x`` as a float array; no family has a density or a CDF at NaN."""
    arr = np.asarray(x, dtype=float)
    nan = np.isnan(arr)
    if nan.any():
        at = "" if arr.ndim == 0 else f"[{np.flatnonzero(nan)[0]}]"
        raise ValueError(f"{oracle.family}: the point x{at} is NaN")
    return arr


def _density(oracle: PdfOracle, x: np.ndarray) -> np.ndarray:
    """Continuous part of the oracle density, vectorized, no domain checks.

    For a Gaussian-power row it is d/dx of its CDF, with the power law taken
    of x itself so that a subnormal x keeps its bits; the signed row (p = 1)
    spreads the same mass over both sides of the origin, at half the height.
    """
    atom, s, p = _LAWS[oracle.family]
    if p is None:  # S_clt's Laplace law of scale sqrt(beta)
        sb = math.sqrt(oracle.beta)
        return np.exp(-np.abs(x) / sb) / (4.0 * sb)
    c = (1.0 - atom) * (1.0 if p == 1 else 2.0) / (p * math.sqrt(math.pi) * s ** (1.0 / p))
    return c * x ** (1.0 / p - 1.0) * np.exp(-(x / s) ** (2.0 / p))


def pdf_eval(oracle: PdfOracle, point: float) -> float:
    """Continuous density at a point; 0 outside the support.

    The one-sided families diverge at the origin, so evaluating them at
    exactly 0 is refused rather than returning inf; a NaN point is refused
    too.
    """
    point = float(point)
    if oracle.support[0] == 0.0:
        if point == 0.0:
            raise ValueError(
                f"{oracle.family} has an integrable singularity at 0; "
                "the density is unbounded there"
            )
        if point < 0.0:
            return 0.0
    return float(_density(oracle, _points(oracle, point)))


def oracle_cdf(oracle: PdfOracle, x) -> np.ndarray | float:
    """Full CDF, including any probability mass at zero (vectorized).

    For the signed row (p = 1) of ``_LAWS`` it is (1 - atom)*(1 + erf(x/s))/2
    plus the atom from 0 on.  A NaN point, or an array that holds one, is
    refused.
    """
    from scipy.special import erf  # lazy: only the oracles need scipy

    arr = _points(oracle, x)
    atom, s, p = _LAWS[oracle.family]
    if p is None:  # S_clt's Laplace law of scale sqrt(beta)
        sb = math.sqrt(oracle.beta)
        out = np.where(arr < 0.0,
                       0.25 * np.exp(np.minimum(arr, 0.0) / sb),
                       1.0 - 0.25 * np.exp(-np.maximum(arr, 0.0) / sb))
    elif p == 1:
        out = (1.0 + erf(arr / s)) * (0.5 * (1.0 - atom)) + atom * (arr >= 0.0)
    else:
        # atom + (1 - atom)*erf((max(x, 0)/s)**(1/p)), and 0 below the origin,
        # one IEEE operation at a time in the one array it returns
        out = np.maximum(arr, 0.0, out=np.empty_like(arr))
        out /= s
        out **= 1.0 / p
        erf(out, out=out)
        out *= 1.0 - atom
        out += atom
        out[arr < 0.0] = 0.0
    if np.isscalar(x) or np.ndim(x) == 0:
        return float(out)
    return out


_QUAD_OPTS = dict(epsabs=1e-12, epsrel=1e-11, limit=200)


def _integral(oracle: PdfOracle, order: int) -> float:
    """Adaptive-quadrature integral of x**order times the density pdf_eval serves."""
    from scipy import integrate  # lazy: only the oracles need scipy

    if oracle.support[0] == 0.0:
        # x = u**p turns the x**(1/p - 1) singularity at the origin into a
        # smooth integrand
        p = _LAWS[oracle.family][2]
        val, _ = integrate.quad(
            lambda u: p * u ** (p * order + p - 1) * _density(oracle, u ** p),
            0.0, np.inf, **_QUAD_OPTS)
        return val
    lo, hi = (integrate.quad(lambda x: x ** order * _density(oracle, x), a, b,
                             **_QUAD_OPTS)[0]
              for a, b in ((-np.inf, 0.0), (0.0, np.inf)))
    return lo + hi


def oracle_normalization(oracle: PdfOracle) -> float:
    """Adaptive-quadrature integral of the continuous part.

    Should come out to 1 - atom_at_zero; the verification suite checks this
    to within 1e-6 absolute.
    """
    return _integral(oracle, 0)


def oracle_moment(oracle: PdfOracle, order: int) -> float:
    """E[X^order] by adaptive quadrature (atom contributes nothing).

    Nonpositive orders are refused: the mass at zero (or the endpoint
    singularity) makes those expectations divergent or degenerate.
    """
    _check("order", order)
    return _integral(oracle, order)
