"""Nonlinear RF energy-harvester model.

Harvested DC is a truncated polynomial of the antenna signal y:

    z = k2 * R_ant * m2 + k4 * R_ant**2 * m4

where m2 and m4 estimate the second and fourth moments of the per-frame
energy statistic.  Each frame contributes the *sum* of its samples' powers
(for multi-sample frames) or the single integrated value (width-1 frames),
which is the convention under which the closed forms in
:mod:`chaoswpt.analytic` scale linearly and quadratically with beta.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

__all__ = ["EhCircuit", "DcEstimate", "DcAccumulator", "rho_params"]


def _require_int(name: str, value) -> None:
    # bool is an int subclass, but True is no spreading factor
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r}")


def _require_seed(seed) -> None:
    """Reject anything but an unsigned 64-bit integer seed."""
    _require_int("seed", seed)
    if not 0 <= seed < 2**64:
        raise ValueError(f"seed must be an unsigned 64-bit integer, got {seed}")


def _require_real(name: str, value) -> None:
    """Reject anything but a finite real number (str, bool, None, NaN, +/-inf)."""
    # bool is an int subclass, but True is no resistance
    ok = not isinstance(value, bool) and isinstance(value, numbers.Real)
    try:
        ok = ok and math.isfinite(value)
    except OverflowError:  # an int too large for a float
        ok = False
    if not ok:
        raise ValueError(f"{name} must be a finite real number, got {value!r}")


def _square(x: float) -> float:
    # a float ** that overflows raises, where a product gives inf
    try:
        return x ** 2
    except OverflowError:
        return math.inf


@dataclass(frozen=True)
class EhCircuit:
    """Rectifier polynomial constants, antenna resistance, transmit power."""

    k2: float = 0.0034
    k4: float = 0.3829
    r_ant: float = 50.0
    p_t: float = 1.0  # watts

    def __post_init__(self) -> None:
        for name in ("k2", "k4", "r_ant", "p_t"):
            _require_real(f"EhCircuit.{name}", getattr(self, name))
        for name in ("k2", "r_ant", "p_t"):
            if getattr(self, name) <= 0:
                raise ValueError(f"EhCircuit.{name} must be > 0, got {getattr(self, name)}")
        # k4 = 0 models a purely linear rectifier and is a meaningful limit
        if self.k4 < 0:
            raise ValueError(f"EhCircuit.k4 must be >= 0, got {self.k4}")
        # the scales the rectifier and the closed forms multiply by must be
        # usable floats; a linear rectifier (k4 = 0) makes the quartic ones 0
        (a, b), (rho1, rho2) = _scales(self), rho_params(self)
        if not (all(0.0 < v < math.inf for v in (a, rho1))
                and all(0.0 < v < math.inf or v == self.k4 == 0 for v in (b, rho2))):
            raise ValueError(
                f"EhCircuit.k2={self.k2!r}, EhCircuit.k4={self.k4!r}, "
                f"EhCircuit.r_ant={self.r_ant!r} and EhCircuit.p_t={self.p_t!r} give "
                f"a scale that overflows or underflows to 0: k2*r_ant={a!r}, "
                f"k4*r_ant**2={b!r}, rho1={rho1!r}, rho2={rho2!r}"
            )


@dataclass
class DcEstimate:
    mean: float
    std_error: float
    n_frames: int

    def __post_init__(self) -> None:
        if self.std_error < 0:
            raise ValueError(f"std_error must be >= 0, got {self.std_error}")
        if self.n_frames < 1:
            raise ValueError(f"n_frames must be >= 1, got {self.n_frames}")


def _scales(circuit: EhCircuit) -> tuple[float, float]:
    """(k2*R_ant, k4*R_ant**2): the rectifier's weights on y**2 and y**4."""
    return circuit.k2 * circuit.r_ant, circuit.k4 * _square(circuit.r_ant)


def rho_params(circuit: EhCircuit) -> tuple[float, float]:
    """Lumped gains (rho1, rho2) = (k2*R*P_t, k4*R^2*P_t^2).

    These multiply the distance-normalized second and fourth moments in
    every closed form; the default circuit gives (0.17, 957.25).
    """
    return (
        circuit.k2 * circuit.r_ant * circuit.p_t,
        circuit.k4 * _square(circuit.r_ant) * _square(circuit.p_t),
    )


class DcAccumulator:
    """Streaming mean/std-error accumulator for the per-frame DC statistic.

    Frame batches can be fed in any grouping; merging partial sums is
    associative, so batched and one-shot runs agree to the last bit as long
    as frames arrive in the same order.
    """

    def __init__(self) -> None:
        self._n = 0
        self._sum = 0.0
        self._sumsq = 0.0

    def add_moments(self, n: int, w_sum: float, w_sumsq: float) -> None:
        """Merge the count, sum and sum of squares of n per-frame statistics w.

        ``run_once`` defines w, the rectifier output of one frame.
        """
        if n < 1:
            raise ValueError("batch must contain at least one frame")
        self._n += int(n)
        self._sum += float(w_sum)
        self._sumsq += float(w_sumsq)

    def result(self) -> DcEstimate:
        if self._n == 0:
            raise ValueError("no frames accumulated")
        mean = self._sum / self._n
        if self._n > 1:
            var = max(self._sumsq / self._n - mean * mean, 0.0) * self._n / (self._n - 1)
            se = math.sqrt(var / self._n)
        else:
            se = float("nan")
        return DcEstimate(mean=mean, std_error=se, n_frames=self._n)
