import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from chaoswpt.channel import path_gain, sample_rayleigh
from frame_chain import ChannelDraw, apply_channel, modulate


def test_rayleigh_moments():
    rng = np.random.default_rng(2)
    h = sample_rayleigh(rng, size=1_000_000)
    assert np.all(h >= 0)
    assert float(np.mean(h * h)) == pytest.approx(1.0, abs=0.003)
    assert float(np.mean(h ** 4)) == pytest.approx(2.0, abs=0.02)


def test_path_gain_values():
    assert path_gain(1.0, 4.0) == 1.0
    assert path_gain(20.0, 4.0) == 6.25e-06
    assert path_gain(30.0, 4.0) == pytest.approx(1.2345679012345679e-06, rel=1e-12)


def test_path_gain_rejects_bad_inputs():
    with pytest.raises(ValueError):
        path_gain(0.0, 4.0)
    with pytest.raises(ValueError):
        path_gain(-3.0, 4.0)
    with pytest.raises(ValueError):
        path_gain(10.0, 0.0)


def test_channel_draw_validation():
    ChannelDraw(h_mag=0.0, r=1.0, alpha=4.0)  # zero fade is a legal deep null
    with pytest.raises(ValueError):
        ChannelDraw(h_mag=-0.1, r=1.0, alpha=4.0)
    with pytest.raises(ValueError):
        ChannelDraw(h_mag=1.0, r=0.0, alpha=4.0)


def test_apply_channel_unit():
    out = apply_channel([0.3, 0.3], ChannelDraw(h_mag=1.0, r=1.0, alpha=4.0), 1.0)
    assert out == pytest.approx([0.3, 0.3])


def test_apply_channel_scaling():
    out = apply_channel([0.3, 0.3], ChannelDraw(h_mag=2.0, r=1.0, alpha=4.0), 4.0)
    assert out == pytest.approx([1.2, 1.2])


def test_apply_channel_path_loss_in_power():
    draw = ChannelDraw(h_mag=1.0, r=20.0, alpha=4.0)
    out = apply_channel([1.0], draw, 1.0)
    assert float(out[0] ** 2) == pytest.approx(6.25e-06, rel=1e-12)


def test_apply_channel_accepts_frames():
    frames = modulate([-1, +1], 2, [0.3, -0.82, 0.1, 0.5])
    draw = ChannelDraw(h_mag=2.0, r=1.0, alpha=4.0)
    assert np.array_equal(apply_channel(frames[0], draw, 1.0), 2.0 * frames[0])
    assert np.array_equal(apply_channel(frames, draw, 1.0), 2.0 * frames)


def test_apply_channel_rejects_bad_power():
    draw = ChannelDraw(h_mag=1.0, r=1.0, alpha=4.0)
    with pytest.raises(ValueError):
        apply_channel([1.0], draw, 0.0)


@given(st.floats(-5.0, 5.0), st.lists(st.floats(-2.0, 2.0), min_size=1, max_size=6))
@settings(max_examples=100)
def test_scaling_linearity(c, samples):
    draw = ChannelDraw(h_mag=0.7, r=3.0, alpha=2.5)
    scaled = apply_channel(c * np.asarray(samples), draw, 2.0)
    direct = c * apply_channel(samples, draw, 2.0)
    assert scaled == pytest.approx(direct, abs=1e-12)


def test_power_bookkeeping():
    # mean received power over frames and fades = P_t * r^-alpha * E[h^2] * E[x^2]
    rng = np.random.default_rng(23)
    p_t, r, alpha = 2.0, 5.0, 3.0
    n_frames, width = 100_000, 10
    x = np.cos(np.pi * rng.random((n_frames, width)))
    h = sample_rayleigh(rng, size=n_frames)
    g = path_gain(r, alpha)
    rx = np.sqrt(p_t) * h[:, None] * np.sqrt(g) * x
    measured = float(np.mean(rx * rx))
    assert measured == pytest.approx(p_t * g / 2.0, rel=0.01)


@pytest.mark.parametrize("r, alpha", [(1e-300, 4.0), (20.0, 1e3), (float("nan"), 4.0)])
def test_path_gain_rejects_unrepresentable_gains(r, alpha):
    # 1e-300**-4 overflows, 20**-1000 underflows to 0, nan is no distance
    with pytest.raises(ValueError, match=r"r=.*alpha="):
        path_gain(r, alpha)
