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

__all__ = ["EhCircuit", "DcEstimate", "DcAccumulator", "harvest_dc", "rho_params"]


def _require_real(name: str, value) -> None:
    """Reject anything but a finite real number (str, bool, None, NaN, +/-inf)."""
    # bool is an int subclass, but True is no resistance
    if (isinstance(value, bool) or not isinstance(value, numbers.Real)
            or not math.isfinite(value)):
        raise ValueError(f"{name} must be a finite real number, got {value!r}")


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


def rho_params(circuit: EhCircuit) -> tuple[float, float]:
    """Lumped gains (rho1, rho2) = (k2*R*P_t, k4*R^2*P_t^2).

    These multiply the distance-normalized second and fourth moments in
    every closed form; the default circuit gives (0.17, 957.25).
    """
    return (
        circuit.k2 * circuit.r_ant * circuit.p_t,
        circuit.k4 * circuit.r_ant**2 * circuit.p_t**2,
    )


class DcAccumulator:
    """Streaming mean/std-error accumulator for the per-frame DC statistic.

    Frame batches can be fed in any grouping; merging partial sums is
    associative, so batched and one-shot runs agree to the last bit as long
    as frames arrive in the same order.
    """

    def __init__(self, circuit: EhCircuit) -> None:
        self.circuit = circuit
        self._n = 0
        self._sum = 0.0
        self._sumsq = 0.0

    def add_frames(self, frame_samples) -> None:
        """Add a batch shaped (n_frames, samples_per_frame).

        A flat 1-D stream is treated as width-1 frames: every sample is its
        own independent unit (the correlator-output convention).
        """
        frames = np.asarray(frame_samples, dtype=float)
        if frames.ndim == 1:
            frames = frames[:, None]
        if frames.ndim != 2 or frames.size == 0:
            raise ValueError("frame batch must be a nonempty 1-D or 2-D array")
        a = self.circuit.k2 * self.circuit.r_ant
        b = self.circuit.k4 * self.circuit.r_ant**2
        p2 = frames * frames
        w = a * p2.sum(axis=1) + b * (p2 * p2).sum(axis=1)
        self._n += w.size
        self._sum += float(w.sum())
        self._sumsq += float((w * w).sum())

    def add_moments(self, n: int, w_sum: float, w_sumsq: float) -> None:
        """Merge pre-reduced per-frame statistics (for vectorized pipelines).

        ``w`` must be the same statistic ``add_frames`` computes:
        w = k2*R*sum(y^2) + k4*R^2*sum(y^4) over one frame.
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


def harvest_dc(frame_samples, circuit: EhCircuit) -> DcEstimate:
    """Harvested-DC estimate from framed antenna samples.

    ``frame_samples`` is (n_frames, samples_per_frame): pass the raw
    2*beta-chip frames for a bypass stream, or the correlator outputs as a
    flat 1-D stream (width-1 frames).  The standard error is the sample std
    of the per-frame DC statistic over sqrt(n_frames) — frames are the
    independent unit.
    """
    acc = DcAccumulator(circuit)
    acc.add_frames(frame_samples)
    return acc.result()
