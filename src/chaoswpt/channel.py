"""Block Rayleigh fading with power-law path loss.

One channel draw applies to a whole frame (block fading).  The magnitude
|h| is Rayleigh with unit mean square power, sampled by inverting its CDF:
|h| = sqrt(-ln U) for U uniform on (0, 1].
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = ["ChannelDraw", "sample_rayleigh", "path_gain", "apply_channel"]


@dataclass
class ChannelDraw:
    h_mag: float   # fading magnitude for this frame, >= 0
    r: float       # transmitter-receiver distance, > 0
    alpha: float   # path-loss exponent, > 0

    def __post_init__(self) -> None:
        if self.h_mag < 0:
            raise ValueError(f"fading magnitude must be >= 0, got {self.h_mag}")
        if self.r <= 0:
            raise ValueError(f"distance must be > 0, got {self.r}")
        if self.alpha <= 0:
            raise ValueError(f"path-loss exponent must be > 0, got {self.alpha}")


def sample_rayleigh(rng: np.random.Generator, size: int | None = None):
    """Rayleigh magnitude(s) with E[|h|^2] = 1, via inverse-CDF sampling.

    numpy's ``random()`` covers [0, 1); mapping U -> 1-U puts it on (0, 1]
    so the log never sees zero.
    """
    u = rng.random(size) if size is not None else rng.random()
    h = np.sqrt(-np.log1p(-u))
    return h if size is not None else float(h)


def path_gain(r: float, alpha: float) -> float:
    """Power attenuation r**-alpha of a link of distance r.

    Raises ValueError when the gain overflows, underflows to 0 or is NaN:
    such a link cannot be simulated in float64.
    """
    if r <= 0:
        raise ValueError(f"distance must be > 0, got {r}")
    if alpha <= 0:
        raise ValueError(f"path-loss exponent must be > 0, got {alpha}")
    try:
        gain = float(r) ** -float(alpha)
    except OverflowError:
        gain = math.inf
    if not 0.0 < gain < math.inf:
        raise ValueError(
            f"path gain r**-alpha is not a finite positive float for r={r!r}, "
            f"alpha={alpha!r}"
        )
    return gain


def apply_channel(samples, draw: ChannelDraw, p_t: float) -> np.ndarray:
    """Scale transmit samples by sqrt(P_t) * |h| * sqrt(r**-alpha).

    Amplitude-domain operation: the received *power* of a unit-power chip is
    P_t * |h|^2 * r**-alpha.
    """
    if p_t <= 0:
        raise ValueError(f"transmit power must be > 0, got {p_t}")
    samples = np.asarray(samples, dtype=float)
    scale = np.sqrt(p_t) * draw.h_mag * np.sqrt(path_gain(draw.r, draw.alpha))
    return scale * samples
