"""Analog front-end between antenna and harvester: correlator and PAPR meters.

The correlator integrates psi consecutive received samples before the
rectifier.  Two settings have closed-form companions in
:mod:`chaoswpt.analytic`:

* psi = 1       -- bypass; the chip stream goes to the harvester untouched.
* psi = 2*beta  -- full-symbol integration; one output value per frame.

Intermediate windows are supported for exploration but carry no closed form.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "correlate",
    "empirical_papr",
    "empirical_papr_per_symbol",
]


def correlate(received, psi) -> np.ndarray:
    """Sliding-window sum of ``psi`` consecutive samples.

    psi = 1 returns the stream unchanged; psi = len(received) collapses the
    frame to a single integrated value.  Windows longer than the input are
    rejected.
    """
    psi = int(psi)
    received = np.asarray(received, dtype=float)
    if received.ndim != 1 or received.size == 0:
        raise ValueError("correlate expects a nonempty 1-D sample stream")
    if psi < 1:
        raise ValueError(f"integration window psi must be >= 1, got {psi}")
    if psi > received.size:
        raise ValueError(
            f"integration window psi={psi} exceeds the {received.size}-sample frame"
        )
    if psi == 1:
        return received.copy()
    csum = np.concatenate([[0.0], np.cumsum(received)])
    return csum[psi:] - csum[:-psi]


def empirical_papr(stream, mean_power: float | None = None) -> float:
    """Peak-to-average power ratio max(s^2) / mean(s^2) of a sample stream.

    ``mean_power`` substitutes a known average power for the realized mean —
    the form the closed-form bounds are stated against, since those
    normalize the peak by an expectation, not by a finite-sample average.
    """
    stream = np.asarray(stream, dtype=float)
    if stream.size == 0:
        raise ValueError("empirical_papr needs a nonempty stream")
    peak = float(np.max(np.abs(stream)))
    if mean_power is not None:
        if float(mean_power) <= 0.0:
            raise ValueError("mean power must be > 0; PAPR undefined")
        return peak * peak / float(mean_power)
    if peak == 0.0:
        raise ValueError("stream has zero mean power; PAPR undefined")
    # scaled to a unit peak, so the powers of a tiny stream cannot underflow
    unit = stream / peak
    return 1.0 / float(np.mean(unit * unit))


def empirical_papr_per_symbol(frames) -> float:
    """Worst per-symbol PAPR: each row is normalized by its own mean power.

    Useful for bypass streams under fading, where the per-frame channel
    gain cancels inside each row.  Rows of width 1 are trivially 1.
    """
    frames = np.asarray(frames, dtype=float)
    if frames.ndim != 2 or frames.size == 0:
        raise ValueError("expects a nonempty (n_frames, samples_per_frame) array")
    power = frames * frames
    means = power.mean(axis=1)
    if np.any(means <= 0.0):
        raise ValueError("a frame has zero mean power; PAPR undefined")
    return float((power.max(axis=1) / means).max())
