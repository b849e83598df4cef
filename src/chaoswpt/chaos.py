"""Chebyshev chaotic chip generator and its stationary statistics.

The chip source is the degree-xi Chebyshev map on [-1, 1],

    T_xi(x) = cos(xi * arccos(x)),

iterated from an initial state x0.  Orbits of this map distribute their
samples according to the arcsine law f(x) = 1/(pi*sqrt(1-x^2)), which is
what every closed-form moment in :mod:`chaoswpt.analytic` relies on.

The map is evaluated as the exact polynomial it equals on [-1, 1]:
T_2(x) = 2x^2 - 1, and the three-term recurrence
T_{n+1}(x) = 2x T_n(x) - T_{n-1}(x) for higher degrees.  The map is chaotic,
so a float orbit computed this way parts from one computed through
arccos/cos after a few dozen chips, but both follow the same arcsine law.

Arrays are stepped in Dickson form (Lidl, Mullen & Turnwald, *Dickson
Polynomials*, 1993): the scaled state y = 2x on [-2, 2] steps as
D_2(y) = y^2 - 2, and D_{n+1} = y D_n - D_{n-1} for higher degrees, since
D_n(2 cos t) = 2 cos(n t) = 2 T_n(cos t).  That saves the multiply by 2 in
every step.  Scaling by a power of two is exact in binary floating point, so
each rounded operation of a Dickson step returns a power of two times the
matching operation of the scalar T_xi step: a Dickson orbit is 2x bit for
bit, an unscaled array step (D_xi(2x) / 2) equals the scalar one, and running
sums of y, y^2 and y^4 are 2, 4 and 16 times those of x, x^2 and x^4.  The
one exception is a chip with |x| < 1.5e-154, whose square x^2 is subnormal
and so carries fewer bits than 4x^2: the orbit stays exact, but that chip's
square (and fourth power) can differ from a quarter (a sixteenth) of the
scaled one in its last bits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .harvester import _check

__all__ = [
    "ChaoticSequence",
    "chebyshev_step",
    "generate_sequence",
    "draw_initial_state",
    "map_fixed_points",
]

#: |x| may exceed 1 by at most this much before we refuse to fold it back.
DOMAIN_TOL = 1e-12

#: x0 closer than this to a fixed point of the map is rejected: the orbit
#: would sit still (or take forever to leave) instead of mixing.
FIXED_POINT_TOL = 1e-9


@dataclass
class ChaoticSequence:
    """An orbit of the Chebyshev map: ``samples[0]`` is the seed state."""

    samples: np.ndarray
    map_degree: int
    seed_state: float

    def __post_init__(self) -> None:
        self.samples = np.asarray(self.samples, dtype=float)
        if self.samples.ndim != 1 or self.samples.size == 0:
            raise ValueError("ChaoticSequence.samples must be a nonempty 1-D array")
        _check("xi", self.map_degree, "ChaoticSequence.map_degree")
        _check("x0", self.seed_state, "ChaoticSequence.seed_state")
        if np.any(np.abs(self.samples) > 1.0):
            raise ValueError("chaotic samples must lie in [-1, 1]")

    def __len__(self) -> int:
        return self.samples.size


def _step_scalar(x: float, xi: int) -> float:
    """T_xi(x) for a float already in [-1, 1]; the array path gives the same bits."""
    t = x * x * 2.0 - 1.0
    if xi == 2:
        return t
    two_x, prev = x + x, x
    for _ in range(xi - 2):
        prev, t = t, two_x * t - prev
    return min(1.0, max(-1.0, t))


def _in_domain(arr: np.ndarray) -> np.ndarray:
    """``arr``, with float dust beyond [-1, 1] clamped; a domain error if worse."""
    if arr.size:
        hi, lo = arr.max(), arr.min()
        if hi > 1.0 + DOMAIN_TOL or lo < -1.0 - DOMAIN_TOL:
            bad = hi if hi > 1.0 + DOMAIN_TOL else lo
            raise ValueError(
                f"chebyshev_step domain error: |x| > 1 + {DOMAIN_TOL:g} (got {float(bad)!r})"
            )
        if hi > 1.0 or lo < -1.0:
            arr = np.clip(arr, -1.0, 1.0)
    return arr


def chebyshev_step(x, xi: int = 2, out=None, *, scaled: bool = False):
    """One application of the degree-``xi`` Chebyshev map.

    Accepts a scalar or an ndarray; ``out`` (an array of x's shape, which may
    be ``x`` itself) receives the result in place.  Values straying beyond
    [-1, 1] by at most ``DOMAIN_TOL`` (floating-point dust) are clamped;
    anything worse raises a domain error.  The map is evaluated as the exact
    polynomial T_xi, never through arccos/cos: a scalar directly, an array as
    D_xi(2x) / 2, which is the same bits (see the module docstring).

    With ``scaled=True``, ``x`` must be a float ndarray of Dickson states
    y = 2x in [-2, 2], and the result is D_xi(y) = 2 T_xi(y/2).  The domain
    check is skipped, so nothing stops a y outside [-2, 2] from growing: the
    map keeps [-2, 2], and a caller that iterates an orbit checks its seed
    states once instead.
    """
    _check("xi", xi)
    if scaled:
        if not isinstance(x, np.ndarray) or x.dtype.kind != "f":
            raise TypeError(
                f"a scaled chebyshev_step takes a float ndarray, got "
                f"{getattr(x, 'dtype', type(x).__name__)}")
        return _dickson_step(x, xi, out)
    arr = _in_domain(np.asarray(x, dtype=float))
    if arr.ndim == 0 and out is None:
        return _step_scalar(float(arr), xi)
    out = _dickson_step(arr + arr, xi, out)
    out *= 0.5
    return out


def _dickson_step(y: np.ndarray, xi: int, out) -> np.ndarray:
    """D_xi(y) for Dickson states y = 2x already in [-2, 2]."""
    if out is None:
        out = np.empty_like(y)
    if xi == 2:
        # y^2 - 2 stays inside [-2, 2] for every float y in [-2, 2]
        np.multiply(y, y, out=out)
        out -= 2.0
        return out
    prev, t = y, y * y - 2.0
    for _ in range(xi - 2):
        prev, t = t, y * t - prev
    return np.clip(t, -2.0, 2.0, out=out)


def map_fixed_points(xi: int = 2) -> np.ndarray:
    """All fixed points of T_xi in [-1, 1].

    With x = cos(theta), T_xi(x) = x means xi*theta = +/-theta (mod 2*pi),
    so theta = 2*pi*m/(xi -+ 1) for the integers m that keep theta in
    [0, pi].
    """
    _check("xi", xi)
    thetas = set()
    for denom in (xi - 1, xi + 1):
        m = 0
        while 2.0 * math.pi * m / denom <= math.pi + 1e-15:
            thetas.add(2.0 * math.pi * m / denom)
            m += 1
    return np.unique(np.cos(sorted(thetas)))


def _fixed_point_mask(x0: np.ndarray, fps: np.ndarray) -> np.ndarray:
    """True where x0 is 0 or within FIXED_POINT_TOL of one of the fixed points."""
    bad = x0 == 0.0
    for fp in fps:
        bad |= np.abs(x0 - fp) < FIXED_POINT_TOL
    return bad


def generate_sequence(x0: float, n: int, xi: int = 2) -> ChaoticSequence:
    """Iterate the map ``n`` times; the returned orbit starts at ``x0``.

    The Monte-Carlo kernel iterates the Dickson state y = 2x instead, and
    power-of-two scaling is exact, so its orbit from ``x0`` is twice this one
    bit for bit (see the module docstring).  Deterministic: the same
    (x0, n, xi) always yields the bit-identical orbit.  Degenerate seeds
    (0, +/-1, or anything within FIXED_POINT_TOL of a fixed point) are
    rejected.
    """
    for name, value in (("x0", x0), ("n", n), ("xi", xi)):
        _check(name, value)
    x0 = float(x0)
    if _fixed_point_mask(np.array([x0]), map_fixed_points(xi))[0]:
        raise ValueError(
            f"x0 = {x0!r} is 0 or within {FIXED_POINT_TOL:g} of a fixed point of the "
            f"degree-{xi} map; the orbit would not mix"
        )
    out = np.empty(n)
    out[0] = x = x0
    for i in range(1, n):
        out[i] = x = _step_scalar(x, xi)
    return ChaoticSequence(samples=out, map_degree=xi, seed_state=x0)


def _angle_to_state(u, v):
    # cos(pi*(u + 2v/2^53)) to first order in the sub-ulp term; sin(pi*u) >= 0
    x = np.cos(np.pi * u)
    return x - np.sqrt(1.0 - x * x) * (2.0 * np.pi * 2.0 ** -53) * v


def draw_initial_state(rng: np.random.Generator, size: int | None = None):
    """Seed state(s) drawn from the stationary density via x = cos(pi*U).

    U = 0 would land exactly on x = 1 (a fixed point), so it is redrawn.
    A float U carries only 53 random bits and the degree-2 map doubles the
    angle pi*U every step, so by step 53 an orbit seeded with cos(pi*U)
    alone would have used them up and sit near +/-1 (mean square 0.545
    instead of 0.5).  A second uniform V widens the angle to
    pi*(U + 2V/2^53), which keeps every later step's angle uniform.
    """
    if size is None:
        u = rng.random()
        while u == 0.0:
            u = rng.random()
        return float(_angle_to_state(u, rng.random()))
    u = rng.random(size)
    bad = u == 0.0
    while np.any(bad):
        u[bad] = rng.random(int(bad.sum()))
        bad = u == 0.0
    return _angle_to_state(u, rng.random(size))
