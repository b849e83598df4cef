import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from chaoswpt.harvester import (
    DcAccumulator,
    DcEstimate,
    EhCircuit,
    harvest_dc,
    rho_params,
)


def test_default_circuit_rho_params():
    rho1, rho2 = rho_params(EhCircuit())
    assert rho1 == pytest.approx(0.17, rel=1e-12)
    assert rho2 == pytest.approx(957.25, rel=1e-12)


def test_unit_circuit_rho_params():
    assert rho_params(EhCircuit(k2=1.0, k4=1.0, r_ant=1.0, p_t=1.0)) == (1.0, 1.0)


def test_rho_scaling_with_transmit_power():
    lo = rho_params(EhCircuit(p_t=1.0))
    hi = rho_params(EhCircuit(p_t=2.0))
    assert hi[0] == pytest.approx(2 * lo[0])
    assert hi[1] == pytest.approx(4 * lo[1])


def test_circuit_validation():
    EhCircuit(k4=0.0)  # linear rectifier is a legal limit
    with pytest.raises(ValueError):
        EhCircuit(k2=0.0)
    with pytest.raises(ValueError):
        EhCircuit(k4=-0.1)
    with pytest.raises(ValueError):
        EhCircuit(r_ant=0.0)
    with pytest.raises(ValueError):
        EhCircuit(p_t=-1.0)


@pytest.mark.parametrize("value", ["1", True, None, math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("field", ["k2", "k4", "r_ant", "p_t"])
def test_circuit_rejects_non_finite_reals(field, value):
    with pytest.raises(ValueError, match=f"EhCircuit.{field} must be a finite real"):
        EhCircuit(**{field: value})


def test_estimate_validation():
    DcEstimate(mean=1.0, std_error=0.1, n_frames=10)
    with pytest.raises(ValueError):
        DcEstimate(mean=1.0, std_error=-0.1, n_frames=10)
    with pytest.raises(ValueError):
        DcEstimate(mean=1.0, std_error=0.1, n_frames=0)


def test_constant_frames_exact_dc():
    circuit = EhCircuit(k2=1.0, k4=1.0, r_ant=1.0, p_t=1.0)
    frames = np.full((100, 1), 2.0)
    est = harvest_dc(frames, circuit)
    # each frame: 1*4 + 1*16 = 20
    assert est.mean == pytest.approx(20.0, rel=1e-15)
    assert est.std_error == pytest.approx(0.0, abs=1e-12)
    assert est.n_frames == 100


def test_one_dimensional_input_is_width_one_frames():
    circuit = EhCircuit()
    flat = np.array([0.5, -1.0, 2.0])
    est_flat = harvest_dc(flat, circuit)
    est_cols = harvest_dc(flat[:, None], circuit)
    assert est_flat.mean == pytest.approx(est_cols.mean, rel=1e-15)
    assert est_flat.n_frames == 3


def test_amplitude_scaling():
    circuit = EhCircuit(k2=1.0, k4=0.0, r_ant=1.0, p_t=1.0)
    rng = np.random.default_rng(7)
    frames = rng.normal(size=(50, 4))
    base = harvest_dc(frames, circuit).mean
    scaled = harvest_dc(3.0 * frames, circuit).mean
    assert scaled == pytest.approx(9.0 * base, rel=1e-12)

    quartic = EhCircuit(k2=1e-30, k4=1.0, r_ant=1.0, p_t=1.0)
    base4 = harvest_dc(frames, quartic).mean
    scaled4 = harvest_dc(3.0 * frames, quartic).mean
    assert scaled4 == pytest.approx(81.0 * base4, rel=1e-9)


@given(st.floats(0.001, 0.1), st.floats(0.01, 1.0), st.floats(10.0, 100.0))
@settings(max_examples=50)
def test_dc_monotone_in_circuit_parameters(k2, k4, r_ant):
    rng = np.random.default_rng(11)
    frames = rng.normal(size=(20, 3))
    base = harvest_dc(frames, EhCircuit(k2=k2, k4=k4, r_ant=r_ant)).mean
    more_k2 = harvest_dc(frames, EhCircuit(k2=2 * k2, k4=k4, r_ant=r_ant)).mean
    more_k4 = harvest_dc(frames, EhCircuit(k2=k2, k4=2 * k4, r_ant=r_ant)).mean
    more_r = harvest_dc(frames, EhCircuit(k2=k2, k4=k4, r_ant=2 * r_ant)).mean
    assert more_k2 >= base
    assert more_k4 >= base
    assert more_r >= base


def test_accumulator_chunking_matches_one_shot():
    circuit = EhCircuit()
    rng = np.random.default_rng(3)
    frames = rng.normal(size=(1000, 8))

    one_shot = harvest_dc(frames, circuit)

    acc = DcAccumulator(circuit)
    for chunk in np.array_split(frames, 7):
        acc.add_frames(chunk)
    chunked = acc.result()

    assert chunked.mean == pytest.approx(one_shot.mean, rel=1e-12)
    assert chunked.std_error == pytest.approx(one_shot.std_error, rel=1e-12)
    assert chunked.n_frames == one_shot.n_frames == 1000


def test_accumulator_add_moments_equivalence():
    circuit = EhCircuit(k2=1.0, k4=1.0, r_ant=1.0, p_t=1.0)
    frames = np.array([[1.0], [2.0], [3.0]])
    direct = DcAccumulator(circuit)
    direct.add_frames(frames)

    # per-frame outputs are w = y^2 + y^4
    w = frames[:, 0] ** 2 + frames[:, 0] ** 4
    raw = DcAccumulator(circuit)
    raw.add_moments(len(w), float(w.sum()), float((w * w).sum()))

    assert raw.result().mean == pytest.approx(direct.result().mean, rel=1e-14)
    assert raw.result().std_error == pytest.approx(
        direct.result().std_error, rel=1e-14
    )


def test_accumulator_edge_cases():
    acc = DcAccumulator(EhCircuit())
    with pytest.raises(ValueError):
        acc.result()
    acc.add_frames(np.array([[1.0]]))
    assert np.isnan(acc.result().std_error)
    with pytest.raises(ValueError):
        acc.add_frames(np.zeros((0, 4)))
    with pytest.raises(ValueError):
        acc.add_frames(np.zeros((2, 2, 2)))


def test_std_error_shrinks_like_sqrt_n():
    circuit = EhCircuit()
    rng = np.random.default_rng(19)
    frames = rng.normal(size=(40000, 2))
    half = harvest_dc(frames[:20000], circuit).std_error
    full = harvest_dc(frames, circuit).std_error
    assert 0.65 < full / half < 0.76  # ~1/sqrt(2)
