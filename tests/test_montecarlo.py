import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from chaoswpt.channel import ChannelDraw, apply_channel, sample_rayleigh
from chaoswpt import montecarlo
from chaoswpt.chaos import (
    FIXED_POINT_TOL,
    draw_initial_state,
    generate_sequence,
    map_fixed_points,
)
from chaoswpt.harvester import DcAccumulator, DcEstimate, EhCircuit
from chaoswpt.montecarlo import (
    PSI_MODES,
    FitResult,
    RunConfig,
    SweepResult,
    SweepRow,
    _draw_clean_states,
    _fixed_point_mask,
    _orbit_batch_stats,
    fit_scaling,
    measure_papr,
    run_once,
    sweep_beta,
)
from chaoswpt.receiver import correlate
from chaoswpt.waveform import modulate


def test_run_config_validation():
    RunConfig(beta=1, r=1.0)
    with pytest.raises(ValueError):
        RunConfig(beta=0, r=1.0)
    with pytest.raises(ValueError):
        RunConfig(beta=1, r=-1.0)
    with pytest.raises(ValueError):
        RunConfig(beta=1, r=1.0, alpha=0.0)
    with pytest.raises(ValueError):
        RunConfig(beta=1, r=1.0, psi_mode="half")
    with pytest.raises(ValueError):
        RunConfig(beta=1, r=1.0, n_frames=0)
    with pytest.raises(ValueError):
        RunConfig(beta=1, r=1.0, seed=-1)
    with pytest.raises(ValueError):
        RunConfig(beta=1, r=1.0, seed=2**64)
    with pytest.raises(ValueError):
        RunConfig(beta=1, r=1.0, xi=1)


@pytest.mark.parametrize("field, value", [
    ("beta", 2.0), ("beta", True), ("n_frames", 1e5), ("n_frames", False),
    ("xi", 3.0), ("seed", 4.0), ("seed", True),
])
def test_run_config_integer_fields_reject_bools_and_floats(field, value):
    kw = {"beta": 2, "r": 20.0, field: value}
    with pytest.raises(ValueError, match=field):
        RunConfig(**kw)


def test_run_config_accepts_numpy_integers():
    cfg = RunConfig(beta=np.int64(3), r=20.0, n_frames=np.int32(500),
                    seed=np.uint64(2**64 - 1), xi=np.int8(2))
    assert cfg.beta == 3


@pytest.mark.parametrize("value", ["20", True, None, math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("field", ["r", "alpha"])
def test_run_config_real_fields_reject_non_finite_reals(field, value):
    with pytest.raises(ValueError, match=f"^{field} must be a finite real"):
        RunConfig(beta=2, **{"r": 20.0, field: value})


def test_run_config_accepts_numpy_and_integer_reals():
    cfg = RunConfig(beta=2, r=np.float32(20.0), alpha=3)
    assert cfg.closed_form().r == 20.0


def test_run_once_rejects_an_overflowing_harvest():
    # the gain 1e200 is a finite float, the rectifier's quartic term is not
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=r"r=1e-50, alpha=4\.0"):
            run_once(RunConfig(beta=2, r=1e-50, n_frames=500))


def test_one_frame_run_is_not_an_overflow():
    with pytest.warns(UserWarning):
        cfg = RunConfig(beta=2, r=20.0, n_frames=1)
    est = run_once(cfg).estimate
    assert math.isfinite(est.mean)
    assert math.isnan(est.std_error)  # one frame has no spread


@pytest.mark.parametrize("value", [2.0, True])
def test_measure_papr_rejects_non_integer_beta(value):
    with pytest.raises(ValueError, match="beta"):
        measure_papr(value, "full", n_frames=200)


def test_run_config_warns_on_tiny_runs():
    with pytest.warns(UserWarning):
        RunConfig(beta=1, r=1.0, n_frames=50)


def test_run_config_closed_form_inputs():
    ci = RunConfig(beta=7, r=20.0).closed_form()
    assert ci.beta == 7
    assert ci.rho1 == pytest.approx(0.17)
    assert ci.rho2 == pytest.approx(957.25)


def test_run_once_is_deterministic():
    cfg = RunConfig(beta=3, r=20.0, n_frames=2000, seed=11)
    a = run_once(cfg)
    b = run_once(cfg)
    assert a.estimate.mean == b.estimate.mean
    assert a.estimate.std_error == b.estimate.std_error
    assert a.papr_empirical == b.papr_empirical


def test_independent_seeds_agree_statistically():
    kw = dict(beta=4, r=20.0, n_frames=50_000)
    a = run_once(RunConfig(seed=1, **kw))
    b = run_once(RunConfig(seed=2, **kw))
    assert a.estimate.mean != b.estimate.mean
    sigma = math.hypot(a.estimate.std_error, b.estimate.std_error)
    assert abs(a.estimate.mean - b.estimate.mean) < 4 * sigma


def _reference_path(cfg: RunConfig):
    """Re-run one config through the composable per-frame pipeline."""
    rng = np.random.default_rng(cfg.seed)
    x0 = _draw_clean_states(rng, cfg.n_frames, cfg.xi)
    d = rng.integers(0, 2, size=cfg.n_frames) * 2 - 1
    h = sample_rayleigh(rng, size=cfg.n_frames)
    pool = np.concatenate(
        [generate_sequence(x0[i], cfg.beta, cfg.xi).samples
         for i in range(cfg.n_frames)]
    )
    frames = modulate(d, cfg.beta, pool)
    received = [
        apply_channel(frame, ChannelDraw(h_mag=h[i], r=cfg.r, alpha=cfg.alpha),
                      cfg.circuit.p_t)
        for i, frame in enumerate(frames)
    ]
    acc = DcAccumulator(cfg.circuit)
    if cfg.psi_mode == "full":
        outs = np.array([correlate(y, 2 * cfg.beta)[0] for y in received])
        acc.add_frames(outs)
    else:
        acc.add_frames(np.vstack(received))
    return acc.result()


def test_full_mode_matches_composed_pipeline():
    cfg = RunConfig(beta=4, r=20.0, psi_mode="full", n_frames=400, seed=99)
    fast = run_once(cfg)
    ref = _reference_path(cfg)
    assert fast.estimate.mean == pytest.approx(ref.mean, rel=1e-12)
    assert fast.estimate.std_error == pytest.approx(ref.std_error, rel=1e-12)


def test_bypass_mode_matches_composed_pipeline():
    cfg = RunConfig(beta=3, r=15.0, psi_mode="bypass", n_frames=400, seed=7)
    fast = run_once(cfg)
    ref = _reference_path(cfg)
    assert fast.estimate.mean == pytest.approx(ref.mean, rel=1e-12)
    assert fast.estimate.std_error == pytest.approx(ref.std_error, rel=1e-12)


@pytest.mark.parametrize("mode", PSI_MODES)
def test_orbit_batch_stats_match_sequence_sums_for_degree_three(mode):
    x0 = _draw_clean_states(np.random.default_rng(5), 300, 3)
    chips = np.array([generate_sequence(float(a), 6, 3).samples for a in x0])
    stats = _orbit_batch_stats(x0, 6, 3, mode)
    if mode == "full":
        expected = (chips.sum(axis=1),)
    else:
        expected = ((chips ** 2).sum(axis=1), (chips ** 4).sum(axis=1),
                    (chips ** 2).max(axis=1))
    assert len(stats) == len(expected)
    for got, want in zip(stats, expected):
        assert np.max(np.abs(got - want)) < 1e-12


@pytest.mark.parametrize("mode", PSI_MODES)
def test_kernel_steps_beta_minus_one_times_per_batch(monkeypatch, mode):
    # the kernel must call the step through montecarlo's own name
    real = montecarlo.chebyshev_step
    sizes = []

    def counting(x, xi=2, out=None):
        sizes.append(x.size)
        return real(x, xi, out=out)

    monkeypatch.setattr(montecarlo, "chebyshev_step", counting)
    n = montecarlo._BATCH + 10  # one full batch and a short one
    for beta in (1, 2, 5):
        sizes.clear()
        run_once(RunConfig(beta=beta, r=20.0, psi_mode=mode, n_frames=n, seed=1))
        assert sizes == [montecarlo._BATCH] * (beta - 1) + [10] * (beta - 1)
    sizes.clear()
    measure_papr(3, mode, n_frames=500, seed=1)
    assert sizes == [500, 500]


@pytest.mark.parametrize("xi", [2, 3, 5])
def test_fixed_point_mask_matches_broadcast_form(xi):
    rng = np.random.default_rng(xi)
    x0 = draw_initial_state(rng, size=100_000)
    fps = map_fixed_points(xi)
    # plant exact hits, near misses on both sides of the band, and zeros
    offsets = [0.0, 0.5 * FIXED_POINT_TOL, -0.5 * FIXED_POINT_TOL,
               2 * FIXED_POINT_TOL, -2 * FIXED_POINT_TOL]
    planted = np.clip([fp + o for fp in fps for o in offsets], -1.0, 1.0)
    idx = rng.choice(x0.size, size=planted.size + 5, replace=False)
    x0[idx[:planted.size]] = planted
    x0[idx[planted.size:]] = 0.0
    broadcast = np.min(np.abs(x0[:, None] - fps[None, :]), axis=1) < FIXED_POINT_TOL
    broadcast |= x0 == 0.0
    mask = _fixed_point_mask(x0, fps)
    assert np.array_equal(mask, broadcast)
    assert np.count_nonzero(mask) >= 3 * len(fps) + 5


def test_run_result_deviation_fields():
    res = run_once(RunConfig(beta=2, r=20.0, n_frames=20_000, seed=5))
    assert res.rel_dev == pytest.approx(
        (res.estimate.mean - res.z_analytic) / res.z_analytic
    )
    assert res.excess_sigma == pytest.approx(
        (res.estimate.mean - res.z_analytic) / res.estimate.std_error
    )
    assert res.papr_bound == 8.0  # integrate-then-rectify, beta=2


def test_integrated_receiver_beats_raw_stream_at_same_distance():
    kw = dict(beta=10, r=20.0, n_frames=20_000)
    full = run_once(RunConfig(psi_mode="full", seed=3, **kw))
    bypass = run_once(RunConfig(psi_mode="bypass", seed=4, **kw))
    sigma = math.hypot(full.estimate.std_error, bypass.estimate.std_error)
    assert full.estimate.mean > bypass.estimate.mean - 3 * sigma
    # analytically a factor ~4 apart at beta=10; the MC margin is wide
    assert full.estimate.mean > 2 * bypass.estimate.mean


def test_harvested_dc_grows_with_spreading_factor():
    base = RunConfig(beta=1, r=1.0, n_frames=20_000, seed=42)
    res = sweep_beta([1, 2, 5, 10, 30, 100], [20.0, 30.0],
                     ["full", "bypass"], base)
    for r in (20.0, 30.0):
        for mode in ("full", "bypass"):
            series = res.select(r=r, psi_mode=mode)
            means = [row.estimate.mean for row in series]
            assert means == sorted(means), (r, mode)


def test_crossover_behavior_straddles_the_analytic_bound():
    # analytic crossover for (r_c=30, r_nc=20) sits in (51, 52.5); with
    # Monte-Carlo noise the empirical comparison is only held to 3 sigma
    base = RunConfig(beta=1, r=1.0, n_frames=100_000, seed=42)
    res = sweep_beta([51, 53], [20.0, 30.0], ["full", "bypass"], base)
    for beta, must_hold_above in ((51, False), (53, True)):
        zc = res.select(beta=beta, r=30.0, psi_mode="full")[0]
        znc = res.select(beta=beta, r=20.0, psi_mode="bypass")[0]
        diff = zc.estimate.mean - znc.estimate.mean
        sigma = math.hypot(zc.estimate.std_error, znc.estimate.std_error)
        if must_hold_above:
            assert diff > -3 * sigma
        else:
            assert diff < 3 * sigma


def test_std_error_scales_like_sqrt_n():
    # linear rectifier keeps the per-frame tail light enough that the
    # variance estimate itself is stable at this sample size; the default
    # quartic term needs far more frames before the 1/sqrt(n) law shows
    circuit = EhCircuit(k2=0.0034, k4=0.0, r_ant=50.0, p_t=1.0)
    kw = dict(beta=5, r=20.0, psi_mode="bypass", circuit=circuit)
    half = run_once(RunConfig(n_frames=50_000, seed=8, **kw))
    full = run_once(RunConfig(n_frames=100_000, seed=8, **kw))
    ratio = full.estimate.std_error / half.estimate.std_error
    assert 0.65 < ratio < 0.76


def test_sweep_rows_and_selection():
    base = RunConfig(beta=1, r=1.0, n_frames=500, seed=2)
    res = sweep_beta([1, 2], [10.0], ["full", "bypass"], base)
    assert [(s.beta, s.r, s.psi_mode) for s in res.rows] == [
        (1, 10.0, "full"),
        (1, 10.0, "bypass"),
        (2, 10.0, "full"),
        (2, 10.0, "bypass"),
    ]
    assert len(res.select(psi_mode="full")) == 2
    assert len(res.select(beta=2, psi_mode="bypass")) == 1
    row = res.select(beta=2, psi_mode="bypass")[0]
    assert row.rel_dev >= 0.0  # magnitude, recomputed from stored fields
    assert row.rel_dev == pytest.approx(
        abs(row.estimate.mean - row.z_analytic) / row.z_analytic
    )


def test_sweep_validation():
    base = RunConfig(beta=1, r=1.0, n_frames=500, seed=2)
    with pytest.raises(ValueError):
        sweep_beta([], [10.0], ["full"], base)
    with pytest.raises(ValueError):
        sweep_beta([1], [], ["full"], base)
    with pytest.raises(ValueError):
        sweep_beta([1], [10.0], [], base)


def test_sweep_cells_do_not_depend_on_grid_composition():
    base = RunConfig(beta=1, r=1.0, n_frames=2000, seed=13)
    small = sweep_beta([5], [20.0], ["full"], base)
    large = sweep_beta([2, 5, 9], [20.0, 40.0], ["full", "bypass"], base)
    a = small.select(beta=5, r=20.0, psi_mode="full")[0]
    b = large.select(beta=5, r=20.0, psi_mode="full")[0]
    assert a.estimate.mean == b.estimate.mean
    assert a.estimate.std_error == b.estimate.std_error


def test_sweep_is_reproducible():
    base = RunConfig(beta=1, r=1.0, n_frames=2000, seed=21)
    a = sweep_beta([2, 3], [20.0], ["full"], base)
    b = sweep_beta([2, 3], [20.0], ["full"], base)
    assert [s.estimate.mean for s in a.rows] == [s.estimate.mean for s in b.rows]


def _synthetic_sweep(betas, r, psi_mode, fn, se=1e-12):
    rows = [
        SweepRow(beta=b, r=r, psi_mode=psi_mode,
                 estimate=DcEstimate(mean=fn(b), std_error=se, n_frames=1000),
                 z_analytic=fn(b), papr_bound=2.0)
        for b in betas
    ]
    return SweepResult(rows=rows)


def test_fit_recovers_exact_quadratic_series():
    g = 20.0 ** -4.0
    c1_true, c2_true = g * 0.17, 12.0 * g * g * 957.25
    res = _synthetic_sweep(range(2, 21, 2), 20.0, "full",
                           lambda b: c1_true * b + c2_true * b * b)
    fit = fit_scaling(res, 20.0, "full")
    assert fit.n_points == 10
    assert fit.c2 == pytest.approx(c2_true, rel=1e-9)
    assert fit.c1 == pytest.approx(c1_true, rel=1e-9)
    assert fit.c0 == pytest.approx(0.0, abs=1e-15)
    assert fit.c2_stderr > 0.0


def test_fit_sees_no_quadratic_term_in_linear_series():
    slope = 1.1185888671875e-06  # raw-stream law at r=20
    res = _synthetic_sweep(range(2, 21, 2), 20.0, "bypass", lambda b: slope * b)
    fit = fit_scaling(res, 20.0, "bypass")
    assert fit.c1 == pytest.approx(slope, rel=1e-9)
    assert abs(fit.c2) < 1e-15


def test_fit_needs_five_points():
    res = _synthetic_sweep([2, 4, 6, 8], 20.0, "full", lambda b: float(b))
    with pytest.raises(ValueError):
        fit_scaling(res, 20.0, "full")
    # filtering happens before counting: plenty of rows, wrong series
    res10 = _synthetic_sweep(range(2, 22, 2), 20.0, "full", lambda b: float(b))
    with pytest.raises(ValueError):
        fit_scaling(res10, 30.0, "full")


def test_fit_quadratic_term_is_null_on_raw_stream_mc_data():
    base = RunConfig(beta=1, r=1.0, n_frames=20_000, seed=42)
    res = sweep_beta([2, 4, 6, 8, 10], [20.0], ["bypass"], base)
    fit = fit_scaling(res, 20.0, "bypass")
    assert abs(fit.c2) < 4 * fit.c2_stderr


def test_measure_papr_fields_and_bounds():
    for mode in PSI_MODES:
        m = measure_papr(4, mode, n_frames=20_000, seed=6)
        assert m.psi_mode == mode
        assert m.beta == 4
        assert m.n_frames == 20_000
        assert m.analytic_bound == (16.0 if mode == "full" else 2.0)
        assert 0.0 < m.expectation_normalized <= m.analytic_bound
        assert m.plain > 0.0


def test_measure_papr_is_deterministic():
    a = measure_papr(2, "full", n_frames=5000, seed=9)
    b = measure_papr(2, "full", n_frames=5000, seed=9)
    assert a.plain == b.plain
    assert a.expectation_normalized == b.expectation_normalized


@given(st.integers(1, 8), st.sampled_from(PSI_MODES))
@settings(max_examples=10, deadline=None)
def test_papr_normalized_ratio_never_exceeds_bound(beta, mode):
    m = measure_papr(beta, mode, n_frames=2000, seed=beta)
    assert m.expectation_normalized <= m.analytic_bound * (1 + 1e-12)


def test_linear_rectifier_equalizes_the_two_receivers():
    circuit = EhCircuit(k2=0.0034, k4=0.0, r_ant=50.0, p_t=1.0)
    kw = dict(beta=4, r=20.0, n_frames=50_000, circuit=circuit)
    full = run_once(RunConfig(psi_mode="full", seed=17, **kw))
    bypass = run_once(RunConfig(psi_mode="bypass", seed=18, **kw))
    assert full.z_analytic == pytest.approx(bypass.z_analytic, rel=1e-12)
    sigma = math.hypot(full.estimate.std_error, bypass.estimate.std_error)
    assert abs(full.estimate.mean - bypass.estimate.mean) < 4 * sigma
