import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from frame_chain import empirical_papr, transmit_frames


streams = st.lists(st.floats(-3.0, 3.0), min_size=2, max_size=10)


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


def test_papr_bound_on_modulated_frames():
    # expectation-normalized PAPR of unit-scale DCSK chips stays below 2
    stream = transmit_frames(np.random.default_rng(31), 2000, 4, 2, "bypass").ravel()
    assert empirical_papr(stream, mean_power=0.5) <= 2.0


def test_papr_of_a_tiny_stream_does_not_underflow():
    # the chip's power, 2.8e-316, is subnormal; the ratio must still be 2
    assert empirical_papr([0.0, 1.6760909542958822e-158]) == 2.0
    assert empirical_papr([0.0, 0.125 * 1.6760909542958822e-158]) == 2.0
