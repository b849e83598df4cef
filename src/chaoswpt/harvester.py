"""Nonlinear RF energy-harvester model.

Harvested DC is a truncated polynomial of the antenna signal y.  A frame's
drives s2 and s4 are the sums of y**2 and y**4 over the samples the
rectifier sees (one correlator output in full mode, every chip in bypass
mode); with the Rayleigh gain integrated out, its harvest is

    w = c2 * s2 + c4 * s4,  c2 = rho1 * g,  c4 = 2 * rho2 * g**2

for the circuit's lumped gains (rho1, rho2) of :func:`rho_params` and the
path gain g = r**-alpha, the convention under which the closed forms in
:mod:`chaoswpt.analytic` scale linearly and quadratically with beta; the
weights (c2, c4) are formed in one place, ``analytic._weights``.  The drives
are an affine function of the rows a simulation's kernel writes, so w is
too, and :class:`DcAccumulator` keeps those rows' moments over a run and
applies each harvest's weights afterwards.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

__all__ = ["EhCircuit", "DcEstimate", "DcAccumulator", "rho_params"]


def _is_int(value) -> bool:
    # bool is an int subclass, but True is no spreading factor; a plain int
    # is tested first because chebyshev_step checks its degree every step
    return type(value) is int or (isinstance(value, (int, np.integer))
                                  and not isinstance(value, bool))


def _is_finite_real(value) -> bool:
    # bool is an int subclass, but True is no resistance
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:  # an int too large for a float
        return False


#: the receiver modes: integrate a whole symbol, or rectify the raw chips
PSI_MODES = ("full", "bypass")

# The rule table: each named input's type, the range its value must lie in,
# and the error text of each.  ``_check`` applies a rule by name, and every
# entry point that takes one of these inputs calls it; the README's table of
# settings mirrors this one.
_INTEGER = (_is_int, "must be an integer")
_REAL = (_is_finite_real, "must be a finite real number")
_ANY = (lambda v: True, "")
_LIST = (lambda v: isinstance(v, list), "must be a list")
_RULES = {
    "beta": (_INTEGER, lambda v: v >= 1, "must be a positive integer"),
    "n": (_INTEGER, lambda v: v >= 1, "must be >= 1"),
    "n_frames": (_INTEGER, lambda v: v >= 1, "must be >= 1"),
    "n_samples": (_INTEGER, lambda v: v >= 1, "must be >= 1"),
    "xi": (_INTEGER, lambda v: v >= 2, "(map degree) must be >= 2"),
    "seed": (_INTEGER, lambda v: 0 <= v < 2**64, "must be an unsigned 64-bit integer"),
    "psi_mode": (_ANY, lambda v: v in PSI_MODES, f"must be one of {PSI_MODES}"),
    "r": (_REAL, lambda v: v > 0, "(distance) must be > 0"),
    "alpha": (_REAL, lambda v: v > 0, "(path-loss exponent) must be > 0"),
    "x0": (_REAL, lambda v: -1 < v < 1, "must lie strictly inside (-1, 1)"),
    # a moment of order <= 0 diverges against the mass at the origin
    "order": (_INTEGER, lambda v: v >= 1, "must be >= 1"),
    "k2": (_REAL, lambda v: v > 0, "must be > 0"),
    # k4 = 0 models a purely linear rectifier and is a meaningful limit
    "k4": (_REAL, lambda v: v >= 0, "must be >= 0"),
    "r_ant": (_REAL, lambda v: v > 0, "must be > 0"),
    "p_t": (_REAL, lambda v: v > 0, "must be > 0"),
    # its power in watts must be a float too; the CLI checks that as it converts
    "p_t_dbm": (_REAL, lambda v: True, ""),
    "rho1": (_REAL, lambda v: v > 0, "must be > 0"),
    "rho2": (_REAL, lambda v: v >= 0, "must be >= 0"),
    # the values of one sweep axis (beta, distance or receiver mode)
    "axis": (_LIST, lambda v: len(v) >= 1, "must be nonempty"),
}


def _check(name: str, value, label: str | None = None) -> None:
    """Apply input ``name``'s rule to ``value``.

    A value of the wrong type or out of range raises a ValueError that names
    ``label`` (by default ``name``).
    """
    (is_type, type_text), in_range, range_text = _RULES[name]
    if not is_type(value):
        raise ValueError(f"{label or name} {type_text}, got {value!r}")
    if not in_range(value):
        raise ValueError(f"{label or name} {range_text}, got {value!r}")


def _square(x: float) -> float:
    # as a float, so that a square too large for one is inf: an int squares
    # exactly, and a float ** that overflows raises
    x = float(x)
    return x * x


@dataclass(frozen=True)
class EhCircuit:
    """Rectifier polynomial constants, antenna resistance, transmit power."""

    k2: float = 0.0034
    k4: float = 0.3829
    r_ant: float = 50.0
    p_t: float = 1.0  # watts

    def __post_init__(self) -> None:
        for name in ("k2", "k4", "r_ant", "p_t"):
            _check(name, getattr(self, name), f"EhCircuit.{name}")
        # the lumped gains every harvest weight is formed from must be usable
        # floats; a linear rectifier (k4 = 0) makes rho2 0.  A product
        # k2*r_ant or k4*r_ant**2 that leaves float64 leaves its rho with it
        rho1, rho2 = rho_params(self)
        if not (0.0 < rho1 < math.inf and (0.0 < rho2 < math.inf or rho2 == self.k4 == 0)):
            raise ValueError(
                f"EhCircuit.k2={self.k2!r}, EhCircuit.k4={self.k4!r}, "
                f"EhCircuit.r_ant={self.r_ant!r} and EhCircuit.p_t={self.p_t!r} give "
                f"a gain that overflows or underflows to 0: rho1={rho1!r}, rho2={rho2!r}"
            )


@dataclass(frozen=True)
class DcEstimate:
    mean: float
    std_error: float
    n_frames: int

    def __post_init__(self) -> None:
        if self.std_error < 0:
            raise ValueError(f"std_error must be >= 0, got {self.std_error}")
        _check("n_frames", self.n_frames)


def rho_params(circuit: EhCircuit) -> tuple[float, float]:
    """Lumped gains (rho1, rho2) = (k2*R*P_t, k4*R^2*P_t^2).

    These multiply the distance-normalized second and fourth moments in
    every closed form; the default circuit gives (0.17, 957.25).
    """
    return (circuit.k2 * circuit.r_ant * circuit.p_t,
            circuit.k4 * _square(circuit.r_ant) * _square(circuit.p_t))


class DcAccumulator:
    """Streaming moments of an orbit run's rows, two per beta, and the harvests they weight.

    Keeps the frame count, the 2B row sums and their (2B, 2B) Gram, which
    start at 0: the first batch's arrays replace them as new arrays (0 + x
    is x exactly), and later batches add in place.  The weights apply
    afterwards, so one run serves every weighting.  Any grouping of the
    frames into batches gives the same moments up to rounding; only the
    same grouping, merged in the same order, keeps the last bit.
    """

    def __init__(self) -> None:
        self._n, self._sums, self._gram = 0, 0.0, 0.0

    def add_moments(self, n: int, sums, gram) -> None:
        """Merge n frames' row sums (2B) and sums of row products ((2B, 2B))."""
        _check("n", n)
        self._n += int(n)
        self._sums += sums
        self._gram += gram

    @np.errstate(over="ignore", invalid="ignore")
    def result(self, at, a, k) -> tuple[list[DcEstimate], np.ndarray]:
        """Each harvest's estimate, and the covariance of their means.

        Harvest j is w = a1*r1 + a2*r2 + k on beta ``at[j]``'s rows
        (2 at[j], 2 at[j] + 1), with (a1, a2) = ``a[j]`` and k = ``k[j]``,
        which moves its mean only.  With n frames, mu_i harvest i's mean
        less its k, and G_pq the Gram's entry for row p of harvest i's pair
        and row q of harvest j's, M_ij = (t11 + (t12 + t21) + t22) / n for
        t_pq = a_p,i a_q,j G_pq: the cross term pairs one harvest's a1 with
        the other's a2, and on the diagonal it is exactly 2 t12.  The
        covariance is (M_ij - mu_i mu_j) / (n - 1), and a standard error
        squared max(M_ii - mu_i^2, 0) n / (n - 1) / n.  Two harvests of one
        beta and one (a1, a2) are one statistic, with the entry se_i se_j.
        One frame gives NaN spreads, and a weight near the float64 limit an
        inf or NaN, not a warning.
        """
        if self._n == 0:
            raise ValueError("no frames accumulated")
        n, at = self._n, np.asarray(at)
        a1, a2 = np.asarray(a, dtype=float).T
        s = self._sums.reshape(-1, 2)[at]
        mu = (a1 * s[:, 0] + a2 * s[:, 1]) / n
        se = np.full(len(at), math.nan)
        cov = np.full((len(at),) * 2, math.nan)
        if n > 1:
            g = self._gram.reshape(len(self._sums) // 2, 2, -1, 2)[at][:, :, at]
            m = (np.outer(a1, a1) * g[:, 0, :, 0]
                 + (np.outer(a1, a2) * g[:, 0, :, 1] + np.outer(a2, a1) * g[:, 1, :, 0])
                 + np.outer(a2, a2) * g[:, 1, :, 1]) / n
            se = np.sqrt(np.maximum(np.diag(m) - mu * mu, 0.0) * n / (n - 1) / n)
            cov = (m - np.outer(mu, mu)) / (n - 1)
            same = (at[:, None] == at) & (a1[:, None] == a1) & (a2[:, None] == a2)
            cov[same] = np.outer(se, se)[same]
        mean = mu + k
        return [DcEstimate(mean=float(x), std_error=float(e), n_frames=n)
                for x, e in zip(mean, se)], cov
