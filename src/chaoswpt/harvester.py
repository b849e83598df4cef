"""Nonlinear RF energy-harvester model.

Harvested DC is a truncated polynomial of the antenna signal y.  A frame's
drives s2 and s4 are the sums of y**2 and y**4 over the samples the
rectifier sees (one correlator output in full mode, every chip in bypass
mode); with the Rayleigh gain integrated out, its harvest is

    w = c2 * s2 + c4 * s4,  c2 = rho1 * g,  c4 = 2 * rho2 * g**2

for the circuit's lumped gains (rho1, rho2) of :func:`rho_params` and the
path gain g = r**-alpha, the convention under which the closed forms in
:mod:`chaoswpt.analytic` scale linearly and quadratically with beta; the
weights (c2, c4) are formed in one place, ``analytic._weights``.
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
    """Streaming moments of the per-frame drives (s2, s4) of a harvest c2*s2 + c4*s4.

    Frame batches can be fed in any grouping, and any grouping gives the
    same moments up to rounding; float addition is not associative, so only
    the same grouping, merged in the same order, keeps the last bit.
    """

    def __init__(self) -> None:
        self._n = 0
        self._sums = [0.0] * 5

    def add_moments(self, n: int, sums) -> None:
        """Merge n frames' sums of s2, s4, s2*s2, s2*s4 and s4*s4, in that order."""
        _check("n", n)
        self._n += int(n)
        self._sums = [total + float(x) for total, x in zip(self._sums, sums, strict=True)]

    def result(self, c2: float, c4: float) -> DcEstimate:
        """Mean and standard error of w = c2*s2 + c4*s4 over the frames."""
        if self._n == 0:
            raise ValueError("no frames accumulated")
        s2, s4, s22, s24, s44 = self._sums
        mean = (c2 * s2 + c4 * s4) / self._n
        if self._n > 1:
            mean_sq = (c2 * c2 * s22 + 2.0 * c2 * c4 * s24 + c4 * c4 * s44) / self._n
            var = max(mean_sq - mean * mean, 0.0) * self._n / (self._n - 1)
            se = math.sqrt(var / self._n)
        else:
            se = float("nan")
        return DcEstimate(mean=mean, std_error=se, n_frames=self._n)
