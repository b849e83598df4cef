"""Exact moments of a Chebyshev orbit's chip sum, by counting.

The chips of a degree-xi orbit under its invariant law are x_k =
cos(xi^(k-1) theta) with theta uniform, so a mean of a product of m chips,
E[cos(f_1 theta) ... cos(f_m theta)], is 2^-m times the number of sign
patterns s with s_1 f_1 + ... + s_m f_m = 0 (Lasota & Mackey, *Chaos,
Fractals, and Noise*, 1994).  E[V^m] for the chip sum V = x_1 + ... + x_beta
is then 2^-m times the number of ways to give each of m slots a chip and a
sign so that the signed frequencies sum to 0.  ``chip_sum_moment`` counts
them digit by digit in base xi: at the chip of frequency xi^p, c of the
slots left take it, a of those with sign +, and the carry of the lower
digits plus a - (c - a) must be a multiple of xi, whose quotient carries on.
"""

from __future__ import annotations

from collections import defaultdict
from fractions import Fraction
from math import comb


def chip_sum_moment(m: int, beta: int, xi: int) -> Fraction:
    """E[V^m] for the chip sum of beta chips of a degree-xi orbit, exactly."""
    # (slots left, carry) -> the number of ways the chips so far reach it;
    # the carry stays within +-m
    ways = {(m, 0): 1}
    for _ in range(beta):
        after = defaultdict(int)
        for (left, carry), n in ways.items():
            for c in range(left + 1):
                took = n * comb(left, c)
                for a in range(c + 1):
                    t = carry + 2 * a - c
                    if t % xi == 0:
                        after[left - c, t // xi] += took * comb(c, a)
        ways = after
    return Fraction(ways.get((0, 0), 0), 2 ** m)
