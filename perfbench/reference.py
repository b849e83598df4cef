"""Exact references the benchmark checks the simulator's answers against.

These are re-derived here rather than imported from ``chaoswpt.analytic``, so
a regression in the package's closed forms shows up as a failed check
instead of silently moving the target.  The default circuit's lumped gains
are rho1 = k2*R*P_t and rho2 = k4*R^2*P_t^2 with P_t = 1 W; the path gain is
g = r**-alpha.

The package's own beta > 1 branch for the integrated receiver is the
asymptotic Gaussian form, which misses by O(1/beta) at small beta (the
acceptance gate's criterion 4 is red for that reason).  The integrated sweep
is therefore checked against the exact fourth moment of the degree-2
Chebyshev chip sum (see ``scripts/clt_gap.py``), not against that branch.
"""

from __future__ import annotations

#: Monte-Carlo estimates must sit within this many standard errors.
SE_LIMIT = 5.0

K2, K4, R_ANT, P_T = 0.0034, 0.3829, 50.0, 1.0
RHO1 = K2 * R_ANT * P_T
RHO2 = K4 * R_ANT ** 2 * P_T ** 2


def path_gain(r: float, alpha: float = 4.0) -> float:
    return float(r) ** -float(alpha)


def exact_v4_orbit(beta: int) -> float:
    """E[V^4] for the sum V of beta degree-2 Chebyshev chips, arcsine seed."""
    return 0.75 * beta ** 2 - 0.375 * beta + 1.5 * max(beta - 2, 0)


def z_integrated_exact(beta: int, r: float, alpha: float = 4.0) -> float:
    """Harvested DC of the integrate-then-rectify receiver, exact at any beta.

    E[h^4] = 2 and E[(1+d)^4] = 8 give the factor 16 on rho2*g^2*E[V^4];
    at beta = 1 this is the package's exact single-chip branch,
    rho1*g + 6*rho2*g^2.
    """
    g = path_gain(r, alpha)
    return RHO1 * g * beta + 16.0 * RHO2 * g * g * exact_v4_orbit(beta)


def z_raw_exact(beta: int, r: float, alpha: float = 4.0) -> float:
    """Harvested DC of the raw chip stream: E[x^2] = 1/2, E[x^4] = 3/8 per chip."""
    g = path_gain(r, alpha)
    return RHO1 * g * beta + 1.5 * RHO2 * g * g * beta


def c2_exact(r: float, alpha: float = 4.0) -> float:
    """Quadratic coefficient of z_integrated_exact in beta for beta >= 2.

    The exact form is a quadratic in beta on that range, so an unbiased
    least-squares fit over beta >= 2 has exactly this expectation.
    """
    g = path_gain(r, alpha)
    return 12.0 * RHO2 * g * g
