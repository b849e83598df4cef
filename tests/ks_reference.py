"""The Kolmogorov-Smirnov distance by distinct values, the check on ``ks_statistic``.

``distcheck.ks_statistic`` sorts the off-atom samples in place and counts the
atom's symbols at 0 without holding them.  This is the direct form: every
symbol is in the array, ``np.unique`` counts each distinct value, and the
ECDF on either side of a value is a cumulative count.  The two agree bit for
bit when no two nonzero samples are equal, and within a few ulp otherwise.
"""

from __future__ import annotations

import numpy as np

from chaoswpt.analytic import PdfOracle, oracle_cdf


def ks_reference(samples: np.ndarray, oracle: PdfOracle) -> float:
    """KS distance of all the symbols in ``samples`` against the oracle's full CDF.

    The supremum is evaluated at every distinct sample value from the right
    (both CDFs after their jump) and the left (both before it); the CDF's
    left limit differs from it only at zero, by the atom there.
    """
    samples = np.asarray(samples, dtype=float)
    if samples.ndim != 1 or samples.size == 0:
        raise ValueError("samples must be a nonempty 1-D array")
    n = samples.size
    vals, counts = np.unique(samples, return_counts=True)
    right = np.cumsum(counts, out=np.empty(vals.size))
    right /= n
    left = np.divide(counts, n, out=np.empty(vals.size))
    np.subtract(right, left, out=left)
    cdf = np.asarray(oracle_cdf(oracle, vals), dtype=float)
    right -= cdf
    dist_right = np.max(np.abs(right, out=right))
    zero = np.searchsorted(vals, 0.0)
    if zero < vals.size and vals[zero] == 0.0:
        cdf[zero] -= oracle.atom_at_zero
    left -= cdf
    return float(max(dist_right, np.max(np.abs(left, out=left))))
