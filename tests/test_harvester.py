import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from chaoswpt.analytic import beta_crossover, make_oracle, oracle_moment, papr_analytic
from chaoswpt.channel import path_gain
from chaoswpt.chaos import chebyshev_step, generate_sequence
from chaoswpt.distcheck import expected_moments, ks_statistic, sample_family
from chaoswpt.harvester import DcAccumulator, DcEstimate, EhCircuit, rho_params
from chaoswpt.montecarlo import SweepResult, fit_scaling
from frame_chain import FrameAccumulator, harvest_dc

_RNG = np.random.default_rng(0)


def select(beta=None, r=None, psi_mode=None):
    """``SweepResult.select`` on an empty sweep, its filters given by position."""
    return SweepResult([]).select(beta=beta, r=r, psi_mode=psi_mode)


#: inputs that public functions used to accept or to fail on with a
#: TypeError, each with the key its ValueError must name
_MALFORMED = [
    (papr_analytic, ("full", True), "beta"),
    (papr_analytic, ("full", 2.0), "beta"),
    (papr_analytic, ("full", "3"), "beta"),
    (path_gain, ("x", 4), "r"),
    (path_gain, (True, 4), "r"),
    (beta_crossover, ("x", 20, 4, 0.17, 957.25), "r_c"),
    (make_oracle, ("S_clt", 2.5), "beta"),
    (make_oracle, ("Z_b1", None), "beta"),
    (oracle_moment, (make_oracle("Z_b1"), True), "order"),
    (oracle_moment, (make_oracle("Z_b1"), 2.0), "order"),
    (expected_moments, ("S_clt", 2.5), "beta"),
    (sample_family, ("S_clt", 4, _RNG, 2.5), "beta"),
    (sample_family, ("Z_b1", 2.5, _RNG), "n"),
    (ks_statistic, (np.ones(1), make_oracle("Z_b1"), 2.5), "n"),
    (ks_statistic, (np.ones(1), make_oracle("Z_b1"), True), "n"),
    (generate_sequence, (0.3, 2.5), "n"),
    (generate_sequence, (0.3, True), "n"),
    (chebyshev_step, (0.3, 2.0), "xi"),
    # n is checked before the sums and products are read
    (DcAccumulator().add_moments, (2.5, 1.0, 1.0), "n"),
    (DcAccumulator().add_moments, (True, 1.0, 1.0), "n"),
    (DcAccumulator().add_moments, ("3", 1.0, 1.0), "n"),
    (select, (2.7,), "beta"),
    (select, ("2",), "beta"),
    (select, (None, "x"), "r"),
    (select, (None, None, "half"), "psi_mode"),
    (fit_scaling, (SweepResult([]), "x", "full"), "r"),
]


@pytest.mark.parametrize("fn, args, key", _MALFORMED,
                         ids=[f"{fn.__name__}{args[:2]}" for fn, args, _ in _MALFORMED])
def test_malformed_inputs_raise_a_value_error_naming_the_key(fn, args, key):
    with pytest.raises(ValueError, match=rf"\b{key} must be"):
        fn(*args)


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


@pytest.mark.parametrize("kw, bad", [
    ({"r_ant": 1e200}, "k4*r_ant**2=inf"),
    ({"p_t": 1e-320}, "rho2=0.0"),
    ({"p_t": 1e200}, "rho2=inf"),
    ({"k2": 1e-320, "r_ant": 1e-10}, "k2*r_ant=0.0"),
    ({"k4": 1e-300, "r_ant": 1e-20}, "k4*r_ant**2=0.0"),
    ({"k4": 0.0, "r_ant": 1e200}, "k4*r_ant**2=nan"),
    # integers a float holds, whose exact squares it does not
    ({"r_ant": 10**200}, "k4*r_ant**2=inf"),
    ({"p_t": 10**200}, "rho2=inf"),
])
def test_circuit_rejects_scales_that_overflow_or_underflow(kw, bad):
    # a product k2*r_ant or k4*r_ant**2 that leaves float64 takes its rho
    # with it, and the message names the rho
    with pytest.raises(ValueError, match="overflows or underflows to 0") as exc:
        EhCircuit(**kw)
    msg = str(exc.value)
    assert bad.replace("k2*r_ant", "rho1").replace("k4*r_ant**2", "rho2") in msg
    for key, value in kw.items():
        assert f"EhCircuit.{key}={value!r}" in msg


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

    acc = FrameAccumulator(circuit)
    for chunk in np.array_split(frames, 7):
        acc.add_frames(chunk)
    chunked = acc.result()

    assert chunked.mean == pytest.approx(one_shot.mean, rel=1e-12)
    assert chunked.std_error == pytest.approx(one_shot.std_error, rel=1e-12)
    assert chunked.n_frames == one_shot.n_frames == 1000


def test_accumulator_add_moments_equivalence():
    # fed in chunks, the moments of four raw rows give the sample means,
    # standard errors and covariance of two harvests w = a1*r1 + a2*r2 + k
    # on two row pairs with unequal weights: the cross term of their
    # covariance pairs the a1 of one with the a2 of the other, and a form
    # that took the weights as shared would miss it
    rng = np.random.default_rng(4)
    r1 = rng.exponential(size=1000)
    r2 = r1 * r1 + rng.exponential(size=1000)
    r3 = r1 + rng.exponential(size=1000)
    r4 = r2 - 3.0 * r3 + rng.exponential(size=1000)
    rows = np.array([r1, r2, r3, r4])
    acc = DcAccumulator()
    for chunk in np.array_split(rows, 7, axis=1):
        acc.add_moments(chunk.shape[1], chunk.sum(axis=1), chunk @ chunk.T)
    a, k = np.array([[0.17, 957.25], [3e-6, 2e-9]]), np.array([0.0, 4e-6])
    w = np.array([a[0, 0] * r1 + a[0, 1] * r2 + k[0], a[1, 0] * r3 + a[1, 1] * r4 + k[1]])
    got, cov = acc.result([0, 1], a, k)
    assert [est.n_frames for est in got] == [w.shape[1]] * 2
    np.testing.assert_allclose([est.mean for est in got], w.mean(axis=1), rtol=1e-14)
    se = np.array([est.std_error for est in got])
    np.testing.assert_allclose(se, w.std(axis=1, ddof=1) / math.sqrt(w.shape[1]), rtol=1e-12)
    want = np.cov(w) / w.shape[1]
    assert cov[0, 1] == cov[1, 0] == pytest.approx(want[0, 1], rel=1e-12)
    assert list(np.diag(cov)) == list(se * se)
    for n in (2.5, True, "3"):
        with pytest.raises(ValueError, match=r"\bn must be"):
            DcAccumulator().add_moments(n, [1.0] * 2, [[1.0] * 2] * 2)
    with pytest.raises(ValueError, match="no frames accumulated"):
        DcAccumulator().result([0], [[1.0, 0.0]], [0.0])


def test_accumulator_keeps_no_alias_of_the_callers_buffers():
    # _orbit_moments refills one row-sum buffer and one Gram buffer for every
    # batch; the totals must be the batches' sums, not the buffer's last fill
    batches = [np.array([[1.0, 2.0], [3.0, 5.0]]), np.array([[7.0], [11.0]])]
    sums, gram = np.empty(2), np.empty((2, 2))
    acc = DcAccumulator()
    for rows in batches:
        np.sum(rows, axis=1, out=sums)
        np.matmul(rows, rows.T, out=gram)
        acc.add_moments(rows.shape[1], sums, gram)
    rows = np.hstack(batches)
    got, cov = acc.result([0, 0], np.eye(2), [0.0, 0.0])
    assert [est.mean for est in got] == list(rows.mean(axis=1))
    np.testing.assert_allclose(cov, np.cov(rows) / 3, rtol=1e-14)


def test_accumulator_edge_cases():
    acc = FrameAccumulator(EhCircuit())
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
