import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import integrate

from chaoswpt.chaos import (
    _step_rows,
    _step_scalar,
    chebyshev_step,
    draw_initial_state,
    generate_sequence,
    map_fixed_points,
)


def test_step_known_values():
    for x, xi, expected, tol in ((0.3, 2, -0.82, 1e-15), (0.5, 3, -1.0, 1e-12),
                                 (1.0, 2, 1.0, 1e-12)):
        assert _step_scalar(x, xi) == pytest.approx(expected, abs=tol)
        # the Dickson step maps y = 2x to 2 T_xi(x)
        y = chebyshev_step(np.array([2.0 * x]), xi)
        assert y == pytest.approx([2.0 * expected], abs=2.0 * tol)


def test_step_rejects_bad_degree():
    with pytest.raises(ValueError):
        chebyshev_step(0.3, 1)


@given(st.floats(-1.0, 1.0), st.sampled_from([2, 3, 5, 7]))
def test_step_stays_in_range(x, xi):
    assert abs(_step_scalar(x, xi)) <= 1.0
    assert abs(chebyshev_step(np.array([2.0 * x]), xi)[0]) <= 2.0


def test_step_vectorized_matches_scalar():
    xs = np.linspace(-0.99, 0.99, 101)
    vec = chebyshev_step(2.0 * xs, 2) / 2.0
    assert vec == pytest.approx([_step_scalar(float(x), 2) for x in xs], rel=1e-15)


def test_generate_sequence_known_orbit():
    seq = generate_sequence(0.3, 3, 2)
    assert isinstance(seq, np.ndarray)
    assert seq.dtype == np.float64 and seq.shape == (3,)
    assert seq[0] == 0.3
    assert seq == pytest.approx([0.3, -0.82, 0.3448], abs=1e-12)


def test_generate_sequence_rejects_degenerate_seeds():
    with pytest.raises(ValueError):
        generate_sequence(0.3, 0, 2)
    for bad in (0.0, 1.0, -1.0, -0.5, -0.5 + 1e-10):
        with pytest.raises(ValueError):
            generate_sequence(bad, 10, 2)
    # just outside the rejection band is fine
    generate_sequence(-0.5 + 1e-6, 10, 2)


def test_generate_sequence_passes_seeds_that_step_onto_a_fixed_point():
    # the rule looks at the fixed points themselves, not at their preimages
    assert generate_sequence(3e-9, 5, 2).tolist() == [3e-9, -1.0, 1.0, 1.0, 1.0]
    assert generate_sequence(0.5 + 2e-9, 4, 3).tolist() == [0.5 + 2e-9, -1.0, -1.0, -1.0]


def test_fixed_points_of_degree_two():
    fps = map_fixed_points(2)
    assert 1.0 in fps.tolist()
    assert any(abs(fp + 0.5) < 1e-15 for fp in fps)
    for fp in fps:
        assert _step_scalar(float(fp), 2) == pytest.approx(float(fp), abs=1e-9)
    assert chebyshev_step(2.0 * fps, 2) == pytest.approx(2.0 * fps, abs=2e-9)


@pytest.mark.parametrize("xi", range(2, 41))
def test_fixed_points_of_every_degree(xi):
    # T_xi(x) - x has degree xi and xi distinct roots in [-1, 1]
    fps = map_fixed_points(xi)
    assert len(fps) == xi
    assert np.all(np.diff(fps) > 0.0)
    assert fps[0] >= -1.0 and fps[-1] == 1.0
    for fp in fps:
        assert _step_scalar(float(fp), xi) == pytest.approx(float(fp), abs=1e-9)


@given(st.floats(-0.95, 0.95), st.integers(1, 50))
@settings(max_examples=50)
def test_sequence_deterministic_and_bounded(x0, n):
    fps = map_fixed_points(2)
    if x0 == 0.0 or np.min(np.abs(fps - x0)) < 1e-6:
        return
    a = generate_sequence(x0, n, 2)
    b = generate_sequence(x0, n, 2)
    assert np.array_equal(a, b)
    assert np.all(np.abs(a) <= 1.0)


def _arcsine(x):
    """Stationary density of the map, 1/(pi*sqrt(1-x^2)) inside (-1, 1)."""
    return 1.0 / (math.pi * math.sqrt(1.0 - x * x))


def _arcsine_moment(order):
    # substitute x = sin(t) to remove the endpoint singularities
    val, _ = integrate.quad(
        lambda t: math.sin(t) ** order * _arcsine(math.sin(t)) * math.cos(t),
        -math.pi / 2, math.pi / 2)
    return val


def test_invariant_pdf_normalizes():
    assert _arcsine_moment(0) == pytest.approx(1.0, abs=1e-9)


def test_theoretical_moments():
    # the literals the orbit tests compare against: E[x^2] = 1/2, E[x^4] = 3/8;
    # odd moments vanish by symmetry
    assert _arcsine_moment(2) == pytest.approx(0.5, rel=1e-10)
    assert _arcsine_moment(4) == pytest.approx(0.375, rel=1e-10)
    assert _arcsine_moment(3) == pytest.approx(0.0, abs=1e-12)


def test_moments_match_quadrature():
    for order, expected in ((0, 1.0), (2, 0.5), (4, 0.375), (6, 0.3125)):
        assert _arcsine_moment(order) == pytest.approx(expected, rel=1e-10)


def test_ergodic_moments_short_run():
    x = generate_sequence(0.123456, 200_000, 2)
    assert abs(float(np.mean(x))) < 0.01
    assert float(np.mean(x * x)) == pytest.approx(0.5, abs=0.01)
    assert float(np.mean(x ** 4)) == pytest.approx(0.375, abs=0.01)


def test_draw_initial_state_follows_invariant_density():
    rng = np.random.default_rng(7)
    x0 = draw_initial_state(rng, size=100_000)
    assert x0.shape == (100_000,)
    assert np.all(np.abs(x0) < 1.0)
    assert float(np.mean(x0 * x0)) == pytest.approx(0.5, abs=0.01)


class _Uniforms:
    """A stand-in generator whose ``random`` calls return the given arrays in turn."""

    def __init__(self, *draws):
        self._draws = iter(draws)

    def random(self, size, out=None):
        out = np.empty(size) if out is None else out
        out[...] = next(self._draws)
        return out


def test_draw_initial_state_stays_in_its_domain():
    # the kernel steps the states as drawn, with no range check: the draw
    # must keep [-1, 1] at the extreme uniforms U and V, and over real draws;
    # 6/2^53 and 1 - 6/2^53 are the first U at which 2 sin(phi) cos(phi)
    # rounds past +/-1, so they need the clip
    ulp, top = 2.0 ** -53, 1.0 - 2.0 ** -53
    u = np.repeat([0.0, ulp, 6 * ulp, 0.5, 1.0 - 6 * ulp, top], 2)
    v = np.tile([0.0, top], 6)
    x0 = draw_initial_state(_Uniforms(u, v), size=u.size)
    assert np.all((-1.0 <= x0) & (x0 <= 1.0))
    # U = 0 seeds the fixed point x = 1, and it is used as drawn
    assert np.array_equal(x0[:2], [1.0, 1.0])
    x0 = draw_initial_state(np.random.default_rng(12), size=1 << 22)
    assert -1.0 <= float(np.min(x0)) and float(np.max(x0)) <= 1.0


def test_float_orbits_collapse_onto_the_fixed_points():
    # a Dickson state whose next value rounds to -2 stays on the fixed
    # points for good: at xi = 2 any |y| below about 1.05e-8 does, since
    # y^2 - 2 rounds to -2; at xi = 3 a y next to 1, where D_3 has its
    # minimum -2.  Nothing redraws such orbits.  Over 2^26 orbits of 100
    # chips from draw_initial_state (seeds 1-4), 21 reached |y| = 2 at
    # xi = 2 (3.1e-7 an orbit) and 35 at xi = 3 (5.2e-7), at chips spread
    # over the whole orbit; one of the 21 did at its first step, from a seed
    # state within 5.3e-9 of 0
    y = np.array([1e-8, -1e-8])
    for want in (-2.0, 2.0, 2.0):
        chebyshev_step(y, 2, out=y)
        assert np.array_equal(y, [want, want])
    y = np.array([1.0 + 5e-9])
    for _ in range(2):
        chebyshev_step(y, 3, out=y)
        assert y[0] == -2.0


@pytest.mark.parametrize("xi", [2, 3, 5, 7])
def test_step_polynomial_matches_trig_form(xi):
    xs = np.linspace(-1.0, 1.0, 1001)
    ys = chebyshev_step(2.0 * xs, xi)
    assert np.max(np.abs(ys / 2.0 - np.cos(xi * np.arccos(xs)))) < 1e-12


@pytest.mark.parametrize("xi", [2, 3])
def test_step_in_place(xi):
    ys = np.linspace(-1.8, 1.8, 7)
    expected = chebyshev_step(ys, xi)
    out = chebyshev_step(ys, xi, out=ys)
    assert out is ys
    assert np.array_equal(ys, expected)


def _scalar_steps(xs, xi):
    return np.array([_step_scalar(float(x), xi) for x in xs])


@pytest.mark.parametrize("xi", [2, 3, 5])
def test_array_steps_are_the_scalar_steps(xi):
    # the Dickson step of y = 2x: power-of-two scaling is exact, so it is
    # twice the scalar T_xi step bit for bit, into a new array or in place
    xs = draw_initial_state(np.random.default_rng(xi), size=100_000)
    expected = _scalar_steps(xs, xi)
    assert np.array_equal(chebyshev_step(xs * 2.0, xi), expected * 2.0)
    ys = xs * 2.0
    out = chebyshev_step(ys, xi, out=ys)
    assert out is ys
    assert np.array_equal(ys, expected * 2.0)


@pytest.mark.parametrize("xi", [3, 4, 5, 7])
def test_steps_in_caller_scratch_keep_the_bits(xi):
    # the recurrence rotates through _step_rows(xi) caller rows, in place
    xs = draw_initial_state(np.random.default_rng(xi), size=10_000)
    ys = xs * 2.0
    rows = np.full((_step_rows(xi), xs.size), np.nan)
    for _ in range(50):
        expected = _scalar_steps(xs, xi)
        out = chebyshev_step(ys, xi, out=ys, work=rows)
        assert out is ys
        assert np.array_equal(ys, expected * 2.0)
        xs = expected
    assert _step_rows(2) == 0


@given(st.floats(1.0, 2.0) | st.floats(-2.0, -1.0))
def test_squares_in_one_to_four_come_back_from_the_next_state(y):
    # y^2 - 2 is exact where fl(y^2) lies in [1, 4] (Sterbenz), so the next
    # Dickson state plus 2 is the chip power bit for bit: the bypass peak
    assert 1.0 <= y * y <= 4.0
    assert chebyshev_step(np.array([y]), 2)[0] + 2.0 == y * y


@pytest.mark.parametrize("xi", [3, 5])
def test_scaled_step_clips_to_its_domain(xi):
    # states at and next to the extrema of T_xi, where the three-term
    # recurrence can overshoot by an ulp before the clip
    rng = np.random.default_rng(xi)
    ext = np.cos(np.arange(xi + 1) * np.pi / xi)
    xs = np.clip(np.concatenate([ext, *(e + (rng.random(20_000) - 0.5) * 1e-6 for e in ext)]),
                 -1.0, 1.0)
    ys = chebyshev_step(xs * 2.0, xi)
    assert np.all(np.abs(ys) <= 2.0)
    assert np.array_equal(ys, _scalar_steps(xs, xi) * 2.0)
    assert np.array_equal(chebyshev_step(np.array([-2.0, 2.0]), 3), [-2.0, 2.0])


@pytest.mark.parametrize("y", [[0.5, -1.0], 1.0, np.array([1, -2])])
def test_scaled_step_takes_only_float_arrays(y):
    # an x-state scalar or list fails loudly rather than being read as y = 2x
    with pytest.raises(TypeError):
        chebyshev_step(y, 2)


@pytest.mark.parametrize("xi", [2, 3])
def test_generate_sequence_steps_like_the_array_path(xi):
    # bit-identical, so the orbit agrees over all 200 chaotic steps
    x0 = np.array([0.123456, -0.7, 0.91])
    y = x0 * 2.0
    orbits = [generate_sequence(float(a), 200, xi) for a in x0]
    for k in range(200):
        assert np.array_equal(y, [2.0 * orbit[k] for orbit in orbits])
        chebyshev_step(y, xi, out=y)


def test_orbits_stay_stationary_where_the_seed_bits_run_out():
    # a 53-bit U seeds the angle pi*U, and the degree-2 map doubles it every
    # step; step 53 must still follow the arcsine law (E[x^2] = 1/2)
    n = 1 << 18
    y = draw_initial_state(np.random.default_rng(11), size=n) * 2.0
    for _ in range(53):
        chebyshev_step(y, 2, out=y)
    se = math.sqrt(0.375 - 0.25) / math.sqrt(n)
    assert abs(float(np.mean(y * y)) / 4.0 - 0.5) < 5 * se


def test_chip_54_keeps_the_arcsine_mean_square():
    # the doubling map has used up U's 53 bits by chip 54, so that chip reads
    # the seed's last bits: seeded with cos of the rounded pi*U, which errs by
    # up to hundreds of ulps near x = 0, its mean square over these draws
    # read 5.5 standard errors below 1/2; seeds 1-8 and 2^21 draws each, in
    # chunks of 2^16 so that memory stays flat
    n, chunk = 1 << 21, 1 << 16
    y, work = np.empty(chunk), np.empty((2, chunk))
    total = 0.0
    for seed in range(1, 9):
        rng = np.random.default_rng(seed)
        for _ in range(n // chunk):
            draw_initial_state(rng, chunk, out=y, work=work)
            y *= 2.0
            for _ in range(53):
                chebyshev_step(y, 2, out=y)
            total += float(y @ y)
    se = math.sqrt((0.375 - 0.25) / (8 * n))
    assert abs(total / 4.0 / (8 * n) - 0.5) < 4 * se
