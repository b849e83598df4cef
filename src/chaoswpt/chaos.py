"""Chebyshev chaotic chip generator and its stationary statistics.

The chip source is the degree-xi Chebyshev map on [-1, 1],

    T_xi(x) = cos(xi * arccos(x)),

iterated from an initial state x0.  Orbits of this map distribute their
samples according to the arcsine law f(x) = 1/(pi*sqrt(1-x^2)), which is
what every closed-form moment in :mod:`chaoswpt.analytic` relies on.
An arcsine chip is cos(pi*U) for a uniform U, formed in one place,
``_cos_pi``, from one sine of the exact angle pi*(1 - 2U)/4 in
[-pi/4, pi/4]; ``draw_initial_state`` seeds the orbits with
it, and :mod:`chaoswpt.distcheck` draws its single-chip families' chips
with it.

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
bit, and running sums of y, y^2 and y^4 are 2, 4 and 16 times those of x,
x^2 and x^4.  The one exception is a chip with |x| < 1.5e-154, whose square
x^2 is subnormal and so carries fewer bits than 4x^2: the orbit stays exact,
but that chip's square (and fourth power) can differ from a quarter (a
sixteenth) of the scaled one in its last bits.

At degree 2 the step itself relates the states to the powers:
y_{k+1} = y_k^2 - 2, so a chip's power is the next state plus 2, and the
power sums of an orbit follow from the sum of its states (the bypass-mode
kernel ``montecarlo._power_sums`` uses this at beta >= 2).  The relation is
exact as real numbers.
In floats, fl(fl(y^2) - 2) + 2 equals fl(y^2) wherever fl(y^2) lies in
[1, 4], since there the subtraction of 2 is exact (Sterbenz); below 1 the
subtraction rounds, so sums formed this way move in their last bits.
"""

from __future__ import annotations

import numpy as np

from .harvester import _check

__all__ = [
    "chebyshev_step",
    "generate_sequence",
    "draw_initial_state",
    "map_fixed_points",
]

#: ``generate_sequence`` rejects an x0 closer than this to a fixed point of
#: the map: the orbit would sit still (or take long to leave) instead of mixing.
FIXED_POINT_TOL = 1e-9


def _step_scalar(x: float, xi: int) -> float:
    """T_xi(x) for a float already in [-1, 1]; ``chebyshev_step(2x)`` is twice its bits."""
    t = x * x * 2.0 - 1.0
    if xi == 2:
        return t
    two_x, prev = x + x, x
    for _ in range(xi - 2):
        prev, t = t, two_x * t - prev
    return min(1.0, max(-1.0, t))


def _step_rows(xi: int) -> int:
    """How many scratch rows ``chebyshev_step`` needs at degree ``xi``: none at 2."""
    return min(xi - 2, 3)


def chebyshev_step(y: np.ndarray, xi: int = 2, out=None, work=None) -> np.ndarray:
    """One application of the degree-``xi`` map to Dickson states y = 2x.

    ``y`` must be a float ndarray of states in [-2, 2]; the result is
    D_xi(y) = 2 T_xi(y/2), which is twice ``_step_scalar(y/2)`` bit for bit
    (see the module docstring).  ``out`` (an array of y's shape, which may be
    ``y`` itself) receives the result in place.  For xi >= 3 the recurrence
    runs in ``work``, ``_step_rows(xi)`` arrays of y's shape, which is
    allocated when not given; xi = 2 needs no scratch.  There is no domain
    check, so nothing stops a y outside [-2, 2] from growing: the map keeps
    [-2, 2], and the kernel's seed states come from ``draw_initial_state``,
    which keeps [-1, 1].  A float orbit can land on the fixed points +/-2
    and stay there: a state within about 1e-8 of 0 steps to -2 at xi = 2,
    then to 2 for good.
    """
    _check("xi", xi)
    if not isinstance(y, np.ndarray) or y.dtype.kind != "f":
        raise TypeError(
            f"chebyshev_step takes a float ndarray of Dickson states y = 2x, got "
            f"{getattr(y, 'dtype', type(y).__name__)}")
    if out is None:
        out = np.empty_like(y)
    if xi == 2:
        # y^2 - 2 stays inside [-2, 2] for every float y in [-2, 2]
        np.multiply(y, y, out=out)
        out -= 2.0
        return out
    if work is None:
        work = np.empty((_step_rows(xi),) + y.shape)
    # D_{n+1} = y D_n - D_{n-1}, with D_n in row (n - 2) % 3, over the
    # D_{n-3} that is needed no more; the last term is a single elementwise
    # pass into out, so out may be y itself
    prev, t = y, np.multiply(y, y, out=work[0])
    t -= 2.0
    for i in range(1, xi - 2):
        new = np.multiply(y, t, out=work[i % 3])
        new -= prev
        prev, t = t, new
    t *= y
    np.subtract(t, prev, out=out)
    return np.clip(out, -2.0, 2.0, out=out)


def map_fixed_points(xi: int = 2) -> np.ndarray:
    """All fixed points of T_xi in [-1, 1], sorted and distinct.

    With x = cos(theta), T_xi(x) = x means xi*theta = +/-theta (mod 2*pi),
    so theta = 2*pi*m/d for d = xi -+ 1 and the integers m = 0 ... d // 2
    that keep theta in [0, pi]; a point both d give (x = 1 at least)
    appears once.
    """
    _check("xi", xi)
    return np.unique(np.cos(np.concatenate(
        [2.0 * np.pi * np.arange(d // 2 + 1) / d for d in (xi - 1, xi + 1)])))


def generate_sequence(x0: float, n: int, xi: int = 2) -> np.ndarray:
    """The orbit of ``x0`` as a float array of ``n`` chips, ``x0`` first.

    The Monte-Carlo kernel iterates the Dickson state y = 2x instead, and
    power-of-two scaling is exact, so its orbit from ``x0`` is twice this one
    bit for bit (see the module docstring).  Deterministic: the same
    (x0, n, xi) always yields the bit-identical orbit.  The seed 0 and any
    seed within FIXED_POINT_TOL of a fixed point are refused (the ``x0`` rule
    refuses +/-1).  Nothing else is: a seed that steps onto a fixed point
    passes and sticks there, as 3e-9 does at xi = 2 ([3e-9, -1, 1, 1, ...]).
    """
    for name, value in (("x0", x0), ("n", n), ("xi", xi)):
        _check(name, value)
    x0 = float(x0)
    if x0 == 0.0 or np.any(np.abs(x0 - map_fixed_points(xi)) < FIXED_POINT_TOL):
        raise ValueError(
            f"x0 = {x0!r} is 0 or within {FIXED_POINT_TOL:g} of a fixed point of the "
            f"degree-{xi} map; the orbit would not mix"
        )
    out = np.empty(n)
    out[0] = x = x0
    for i in range(1, n):
        out[i] = x = _step_scalar(x, xi)
    return out


def _cos_pi(x: np.ndarray, c: np.ndarray) -> np.ndarray:
    """cos(pi*u) for the uniforms u in [0, 1) in ``x``, in place, through one
    sine on [-pi/4, pi/4]; ``c`` (an array of x's shape) receives cos(phi).

    With d = 1 - 2u, exact, and phi = pi*d/4, cos(pi*u) = sin(2 phi) =
    2 sin(phi) cos(phi).  glibc's sine and cosine switch code paths at
    |x| = 0.855, which cos(pi*u) crosses at random, mispredicting the
    branch, and the sine on [-pi/4, pi/4] never does: it costs about half
    as much.  c = sqrt(1 - s^2) for s = sin(phi) is well conditioned since
    s^2 <= 1/2.  phi is formed as (u - 1/2) * (-pi/2), whose subtraction
    is exact and whose factor is pi/4 times a power of two, so it is
    fl(pi*d/4); the sine is odd, so the state carries d's sign with no
    separate pass.  The clip is needed: 2sc rounds to +/-(1 + 2^-52) at
    some u near 0 and 1 (the first at u = 6/2^53 and 1 - 6/2^53), and a state
    outside [-1, 1] makes the orbit run off to infinity.
    """
    x -= 0.5
    x *= -0.5 * np.pi
    np.sin(x, out=x)
    np.multiply(x, x, out=c)
    np.sqrt(np.subtract(1.0, c, out=c), out=c)
    x *= c
    x += x
    return np.clip(x, -1.0, 1.0, out=x)


def draw_initial_state(rng: np.random.Generator, size: int, out=None,
                       work=None) -> np.ndarray:
    """``size`` seed states drawn from the stationary density via x = cos(pi*U).

    A float U carries only 53 random bits and the degree-2 map doubles the
    angle pi*U every step, so by step 53 an orbit seeded with cos(pi*U)
    alone would have used them up and sit near +/-1 (mean square 0.545
    instead of 0.5).  A second uniform V widens the angle to
    pi*(U + 2V/2^53), which keeps every later step's angle uniform.
    cos(pi*U) comes from ``_cos_pi``, one sine on the fast range, within
    about half an ulp on average (cos of the rounded pi*U errs by several
    ulps, and by hundreds near x = 0, where chip 54's mean square read
    5.5 standard errors low over 2^24 draws); the V term's sin(pi*U) is
    2 cos(phi)^2 - 1 of its fold.

    Every state lies in [-1, 1]: ``_cos_pi`` clips to it, and the sub-ulp
    term is >= 0 and far below x + 1 (below 1e-23 where x rounds to -1).
    The states are used as drawn, fixed points included: U = 0 gives x = 1
    (a chance of 2^-53), and float orbits land on the fixed points +/-1 far
    more often, from any chip (about 3e-7 of 100-chip orbits at xi = 2).

    ``out`` (a float array of ``size`` entries) receives the states, and
    ``work`` is two more such arrays for scratch; either is allocated when
    not given.  The stream and the bits do not depend on which.
    """
    c, v = (np.empty(size), None) if work is None else work
    x = _cos_pi(rng.random(size, out=out), c)
    # cos(pi*(u + 2v/2^53)) to first order in the sub-ulp term, whose factor
    # k*sin(pi*u) = 2k c^2 - k is >= 0, since c^2 >= 1/2
    k = 2.0 * np.pi * 2.0 ** -53
    c *= c
    c *= 2.0 * k
    c -= k
    c *= rng.random(size, out=v)
    return np.subtract(x, c, out=x)
