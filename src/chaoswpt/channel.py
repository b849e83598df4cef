"""Block Rayleigh fading with power-law path loss.

One channel draw applies to a whole frame (block fading).  The magnitude
|h| is Rayleigh with unit mean square power, sampled by inverting its CDF:
|h| = sqrt(-ln U) for U uniform on (0, 1].  Only the distribution battery
draws it: ``montecarlo.run_once`` integrates it out of each frame.
"""

from __future__ import annotations

import math

import numpy as np

from .harvester import _check

__all__ = ["sample_rayleigh", "path_gain"]


def sample_rayleigh(rng: np.random.Generator, size: int) -> np.ndarray:
    """``size`` Rayleigh magnitudes with E[|h|^2] = 1, via inverse-CDF sampling.

    numpy's ``random()`` covers [0, 1); mapping U -> 1-U puts it on (0, 1]
    so the log never sees zero.
    """
    h = rng.random(size)
    np.negative(np.log1p(np.negative(h, out=h), out=h), out=h)
    return np.sqrt(h, out=h)


def path_gain(r: float, alpha: float, label: str = "r") -> float:
    """Power attenuation r**-alpha of a link of distance r.

    Raises a ValueError that names the link's r (as ``label``) and alpha
    when either breaks its rule, or when the gain overflows or underflows
    to 0: such a link cannot be simulated in float64.
    """
    try:
        _check("r", r, label)
        _check("alpha", alpha)
    except ValueError as exc:
        raise ValueError(f"{exc} (the link {label}={r!r}, alpha={alpha!r})") from None
    try:
        gain = float(r) ** -float(alpha)
    except OverflowError:
        gain = math.inf
    if not 0.0 < gain < math.inf:
        raise ValueError(
            f"path gain r**-alpha is not a finite positive float for {label}={r!r}, "
            f"alpha={alpha!r}"
        )
    return gain
