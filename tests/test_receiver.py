import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from chaoswpt.receiver import (
    correlate,
    empirical_papr,
    empirical_papr_per_symbol,
)


def test_full_symbol_correlation_sums():
    assert correlate([1.2, 1.2], 2) == pytest.approx([2.4])


def test_opposite_bit_cancels():
    assert correlate([1.2, -1.2], 2) == pytest.approx([0.0], abs=1e-15)


def test_bypass_is_identity():
    out = correlate([0.5, 0.7], 1)
    assert out == pytest.approx([0.5, 0.7])


def test_sliding_window():
    assert correlate([1.0, 2.0, 3.0, 4.0], 2) == pytest.approx([3.0, 5.0, 7.0])
    assert correlate([1.0, 2.0, 3.0, 4.0], 3) == pytest.approx([6.0, 9.0])


def test_correlate_validation():
    with pytest.raises(ValueError):
        correlate([], 1)
    with pytest.raises(ValueError):
        correlate([1.0, 2.0], 3)
    with pytest.raises(ValueError):
        correlate([1.0, 2.0], 0)


streams = st.lists(st.floats(-3.0, 3.0), min_size=2, max_size=10)


@given(streams, streams, st.floats(-2.0, 2.0), st.floats(-2.0, 2.0),
       st.integers(1, 4))
@settings(max_examples=100)
def test_correlate_linearity(x, y, a, b, psi):
    n = min(len(x), len(y))
    x, y = np.asarray(x[:n]), np.asarray(y[:n])
    if psi > n:
        return
    combined = correlate(a * x + b * y, psi)
    separate = a * correlate(x, psi) + b * correlate(y, psi)
    assert combined == pytest.approx(separate, abs=1e-10)


def test_papr_constant_stream_is_one():
    assert empirical_papr([2.0, 2.0, 2.0]) == pytest.approx(1.0)
    assert empirical_papr([-0.3, -0.3]) == pytest.approx(1.0)


def test_papr_simple_values():
    # powers [0, 4]: peak 4, mean 2
    assert empirical_papr([0.0, 2.0]) == pytest.approx(2.0)
    # ensemble-mean override used by the closed-form comparisons
    assert empirical_papr([0.0, 2.0], mean_power=1.0) == pytest.approx(4.0)


def test_papr_rejects_degenerate_streams():
    with pytest.raises(ValueError):
        empirical_papr([])
    with pytest.raises(ValueError):
        empirical_papr([0.0, 0.0, 0.0])


@given(streams, st.floats(0.1, 10.0))
@settings(max_examples=100)
def test_papr_scale_invariance(stream, c):
    x = np.asarray(stream)
    if float(np.max(x * x)) == 0.0:
        return
    assert empirical_papr(c * x) == pytest.approx(empirical_papr(x), rel=1e-12)
    assert empirical_papr(-c * x) == pytest.approx(empirical_papr(x), rel=1e-12)


def test_per_symbol_papr():
    frames = np.array([[1.0, 1.0], [0.0, 2.0]])
    # rows normalize independently: ratios 1.0 and 4/2
    assert empirical_papr_per_symbol(frames) == pytest.approx(2.0)
    with pytest.raises(ValueError):
        empirical_papr_per_symbol(np.array([1.0, 2.0]))


def test_papr_bound_on_modulated_frames():
    # expectation-normalized PAPR of unit-scale DCSK chips stays below 2
    from chaoswpt.chaos import frame_chip_source
    from chaoswpt.waveform import modulate, random_bits

    rng = np.random.default_rng(31)
    frames = modulate(random_bits(2000, rng), 4, frame_chip_source(rng, 2))
    stream = np.concatenate([f.samples for f in frames])
    assert empirical_papr(stream, mean_power=0.5) <= 2.0


def test_papr_of_a_tiny_stream_does_not_underflow():
    # the chip's power, 2.8e-316, is subnormal; the ratio must still be 2
    assert empirical_papr([0.0, 1.6760909542958822e-158]) == 2.0
    assert empirical_papr([0.0, 0.125 * 1.6760909542958822e-158]) == 2.0
