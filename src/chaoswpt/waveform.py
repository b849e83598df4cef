"""Differential chaos-shift-keying frame assembly.

A frame carries one data bit d in {-1, +1} over 2*beta chips: beta chaotic
reference chips followed by the same chips multiplied by d.  This is the
per-frame form of the waveform; the Monte-Carlo kernel never builds it, and
the tests check the kernel against it.
"""

from __future__ import annotations

import numpy as np

__all__ = ["modulate"]


def modulate(bits, beta: int, chip_pool) -> np.ndarray:
    """One frame per bit, as an (n_bits, 2*beta) array.

    Frame i takes chips ``[i*beta, (i+1)*beta)`` of the flat ``chip_pool`` as
    its reference half; its data half is that reference times bit i, which
    is exact for a bit of +/-1.
    """
    if beta < 1:
        raise ValueError(f"beta must be a positive integer, got {beta}")
    bits = np.asarray(bits)
    if bits.size == 0:
        raise ValueError("no bits to modulate")
    if not np.all(np.isin(bits, (-1, 1))):
        raise ValueError("bits must take values in {-1, +1}")
    pool = np.asarray(chip_pool, dtype=float)
    if pool.size < beta * bits.size:
        raise ValueError(
            f"chip pool holds {pool.size} chips but {beta * bits.size} are needed"
        )
    ref = pool[: beta * bits.size].reshape(bits.size, beta)
    return np.concatenate([ref, bits.reshape(-1, 1) * ref], axis=1)
