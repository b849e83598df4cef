import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from frame_chain import modulate, transmit_frames


def test_single_positive_bit_frame():
    frames = modulate([+1], 1, [0.3])
    assert frames.shape == (1, 2)
    assert frames[0] == pytest.approx([0.3, 0.3])


def test_negative_bit_flips_second_half():
    (frame,) = modulate([-1], 2, [0.3, -0.82])
    assert np.array_equal(frame, [0.3, -0.82, -0.3, 0.82])


def test_two_bits_two_frames():
    bits = [+1, -1]
    frames = modulate(bits, 2, [0.1, 0.2, 0.3, 0.4])
    assert frames.shape == (2, 4)
    for frame, bit in zip(frames, bits):
        assert np.array_equal(frame[2:], bit * frame[:2])
    assert frames[0] == pytest.approx([0.1, 0.2, 0.1, 0.2])
    assert frames[1] == pytest.approx([0.3, 0.4, -0.3, -0.4])


def test_modulate_input_validation():
    with pytest.raises(ValueError):
        modulate([], 2, [0.1, 0.2])
    with pytest.raises(ValueError):
        modulate([+1], 0, [0.1])
    with pytest.raises(ValueError):
        modulate([0], 1, [0.1])
    with pytest.raises(ValueError):
        modulate([+1, -1], 4, [0.1, 0.2, 0.3])  # pool too short


chips_strategy = st.lists(
    st.floats(-1.0, 1.0, allow_nan=False), min_size=1, max_size=8
)


@given(chips_strategy, st.sampled_from([-1, +1]))
@settings(max_examples=100)
def test_frame_sum_and_energy_identities(chips, bit):
    beta = len(chips)
    (s,) = modulate([bit], beta, chips)
    x = np.asarray(chips)
    # whole-frame sum collapses to (1 + d) * sum of reference chips
    assert float(np.sum(s)) == pytest.approx((1 + bit) * float(np.sum(x)), abs=1e-12)
    # squares are blind to the bit
    assert float(np.sum(s * s)) == pytest.approx(2 * float(np.sum(x * x)), abs=1e-12)
    assert float(np.sum(s ** 4)) == pytest.approx(2 * float(np.sum(x ** 4)), abs=1e-12)


def test_expected_frame_energy():
    # E[sum s^2] = beta for unit-power chips, within 1% over 3e4 frames
    beta, n = 4, 30_000
    frames = transmit_frames(np.random.default_rng(17), n, beta, 2, "bypass")
    assert float(np.sum(frames * frames)) / n == pytest.approx(beta, rel=0.01)
