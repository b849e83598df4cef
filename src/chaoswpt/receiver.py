"""Peak-to-average power ratio of a sample stream.

The receiver's correlator has two settings, both modelled in
:mod:`chaoswpt.montecarlo` and in closed form in :mod:`chaoswpt.analytic`:
bypass (psi = 1) passes the chip stream to the harvester untouched, and
full-symbol integration (psi = 2*beta) hands it one sum per frame.  What is
left here is the PAPR meter the tests hold ``measure_papr`` against.
"""

from __future__ import annotations

import numpy as np

__all__ = ["empirical_papr"]


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
