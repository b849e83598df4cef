import dataclasses
import math
import os
import subprocess
import sys
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import chaoswpt
from chaoswpt import montecarlo
from chaoswpt.analytic import _weights, z_with_correlator, z_without_correlator
from chaoswpt.chaos import _step_rows, draw_initial_state
from chaoswpt.harvester import DcAccumulator, DcEstimate, EhCircuit, rho_params
from chaoswpt.montecarlo import (
    PSI_MODES,
    RunConfig,
    RunResult,
    SweepResult,
    SweepRow,
    _correlator_drives,
    _power_sums,
    _subseed,
    fit_scaling,
    measure_papr,
    run_once,
    sweep_beta,
)
from frame_chain import (ChannelDraw, FrameAccumulator, apply_channel, empirical_papr,
                         orbits, transmit_frames)


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


@pytest.mark.parametrize("circuit", [None, {"p_t": 1.0}])
def test_run_config_rejects_a_circuit_that_is_not_an_eh_circuit(circuit):
    with pytest.raises(ValueError, match="^circuit must be an EhCircuit"):
        RunConfig(beta=2, r=20.0, circuit=circuit)


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
    assert z_with_correlator(cfg.beta, cfg.r, cfg.alpha, *rho_params(cfg.circuit)) > 0


def _no_frames(*args, **kwargs):
    raise AssertionError("a frame was simulated")


def test_run_once_rejects_an_overflowing_harvest(monkeypatch):
    # the gain 1e200 is a finite float, the rectifier's quartic weight is not:
    # the run is refused when it is built, before a frame is simulated
    monkeypatch.setattr(montecarlo, "_orbit_moments", _no_frames)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=r"c4=inf .* r=1e-50, alpha=4\.0"):
            RunConfig(beta=2, r=1e-50, n_frames=500)


def test_one_frame_run_is_not_an_overflow():
    cfg = RunConfig(beta=2, r=20.0, n_frames=1)
    with pytest.warns(UserWarning):
        est = run_once(cfg).estimate
    assert math.isfinite(est.mean)
    assert math.isnan(est.std_error)  # one frame has no spread


@pytest.mark.parametrize("value", [2.0, True])
def test_measure_papr_rejects_non_integer_beta(value):
    with pytest.raises(ValueError, match="beta"):
        measure_papr(value, "full", n_frames=200)


def test_run_config_warns_on_tiny_runs():
    # building the config is silent; each run of it warns once, at the
    # caller's line, and so does a sweep from it, however many cells it has
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        cfg = RunConfig(beta=1, r=1.0, n_frames=50)
        dataclasses.replace(cfg, beta=2)
    for run in (lambda: run_once(cfg),
                lambda: sweep_beta([1, 2], [1.0, 2.0], PSI_MODES, cfg)):
        with pytest.warns(UserWarning, match="^n_frames=50 gives a very noisy estimate$") \
                as caught:
            run()
        assert [w.filename for w in caught] == [__file__]


def test_run_once_reports_the_closed_form_at_its_own_point():
    circuit = EhCircuit(k2=0.002, k4=0.5, r_ant=40.0, p_t=2.0)
    for mode, closed_form in (("full", z_with_correlator), ("bypass", z_without_correlator)):
        cfg = RunConfig(beta=7, r=15.0, alpha=3.5, psi_mode=mode, n_frames=200,
                        circuit=circuit)
        assert run_once(cfg).z_analytic == closed_form(7, 15.0, 3.5, *rho_params(circuit))


def test_run_once_is_deterministic():
    cfg = RunConfig(beta=3, r=20.0, n_frames=2000, seed=11)
    a = run_once(cfg)
    b = run_once(cfg)
    assert a.estimate.mean == b.estimate.mean
    assert a.estimate.std_error == b.estimate.std_error


def test_independent_seeds_agree_statistically():
    kw = dict(beta=4, r=20.0, n_frames=50_000)
    a = run_once(RunConfig(seed=1, **kw))
    b = run_once(RunConfig(seed=2, **kw))
    assert a.estimate.mean != b.estimate.mean
    sigma = math.hypot(a.estimate.std_error, b.estimate.std_error)
    assert abs(a.estimate.mean - b.estimate.mean) < 4 * sigma


def _reference_path(cfg: RunConfig):
    """Re-run one config through the composable per-frame pipeline.

    The frames pass the link unfaded, and the accumulator integrates the
    Rayleigh gain out of each (E[|h|^4] = 2), as ``run_once`` does.
    """
    rng = np.random.default_rng(cfg.seed)
    frames = transmit_frames(rng, cfg.n_frames, cfg.beta, cfg.xi, cfg.psi_mode)
    unfaded = ChannelDraw(h_mag=1.0, r=cfg.r, alpha=cfg.alpha)
    received = apply_channel(frames, unfaded, cfg.circuit.p_t)
    acc = FrameAccumulator(cfg.circuit, mean_h4=2.0)
    if cfg.psi_mode == "full":
        # the full-symbol correlator hands the rectifier one sum per frame
        acc.add_frames(received.sum(axis=1))
    else:
        acc.add_frames(received)
    return acc.result()


def test_full_mode_matches_composed_pipeline():
    for xi in (2, 6):
        cfg = RunConfig(beta=4, r=20.0, psi_mode="full", n_frames=400, seed=99, xi=xi)
        fast = run_once(cfg)
        ref = _reference_path(cfg)
        assert fast.estimate.mean == pytest.approx(ref.mean, rel=1e-12)
        assert fast.estimate.std_error == pytest.approx(ref.std_error, rel=1e-12)


def test_bypass_mode_matches_composed_pipeline():
    for xi in (2, 6):
        cfg = RunConfig(beta=3, r=15.0, psi_mode="bypass", n_frames=400, seed=7, xi=xi)
        fast = run_once(cfg)
        ref = _reference_path(cfg)
        assert fast.estimate.mean == pytest.approx(ref.mean, rel=1e-12)
        assert fast.estimate.std_error == pytest.approx(ref.std_error, rel=1e-12)


def _single_chip_frame_variance(a_g: float, b_g: float, mean_h: list[int]) -> float:
    """Exact variance of a beta = 1 full-mode frame's w = D * (a_g*H2*u + b_g*H4*u^2).

    D is the bit's factor, 1 with probability 1/2 (a d = -1 frame harvests
    0); u = 4x^2 for x arcsine on [-1, 1], so E[u^j] = 4^j E[x^(2j)] =
    C(2j, j); H2^i H4^j is h^(2i + 4j), whose moment is mean_h[i + 2j].
    """
    eu = [math.comb(2 * j, j) for j in range(5)]
    mean = 0.5 * (a_g * mean_h[1] * eu[1] + b_g * mean_h[2] * eu[2])
    square = 0.5 * (a_g * a_g * mean_h[2] * eu[2] + 2 * a_g * b_g * mean_h[3] * eu[3]
                    + b_g * b_g * mean_h[4] * eu[4])
    return square - mean * mean


def test_integrating_the_gain_out_gives_the_exact_conditional_variance():
    # conditional Monte Carlo: w = c2*u + c4*u^2 is the expectation of the
    # drawn-gain harvest c2*h^2*u + c4/2*h^4*u^2 over h^2 ~ Exp(1), whose
    # moments are E[h^(2k)] = k!
    cfg = RunConfig(beta=1, r=20.0, psi_mode="full", n_frames=2_000_000, seed=7)
    c2, c4 = _weights(cfg.r, cfg.alpha, *rho_params(cfg.circuit))
    conditional = math.sqrt(_single_chip_frame_variance(c2, c4, [1] * 5) / cfg.n_frames)
    drawn = math.sqrt(_single_chip_frame_variance(c2, c4 / 2,
                                                  [math.factorial(k) for k in range(5)])
                      / cfg.n_frames)
    assert (conditional, drawn) == (pytest.approx(1.3258e-9, rel=1e-4),
                                    pytest.approx(2.3515e-9, rel=1e-4))
    se = run_once(cfg).estimate.std_error
    assert se == pytest.approx(conditional, rel=0.03)
    assert se < 0.6 * drawn


@pytest.mark.parametrize("xi", [2, 3, 4, 6])
@pytest.mark.parametrize("beta", [1, 4, 5])
@pytest.mark.parametrize("mode", PSI_MODES)
def test_measure_papr_matches_per_frame_chain(mode, beta, xi):
    n = 3000
    frames = transmit_frames(np.random.default_rng(23), n, beta, xi, mode)
    stream = frames.sum(axis=1) if mode == "full" else frames.ravel()
    got = measure_papr(beta, mode, n_frames=n, seed=23, xi=xi)
    assert got.plain == pytest.approx(empirical_papr(stream), rel=1e-12)
    assert got.expectation_normalized == pytest.approx(
        empirical_papr(stream, mean_power=beta if mode == "full" else 0.5), rel=1e-12)


@pytest.mark.parametrize("beta, n, seed", [(2, 1000, 31), (3, 1000, 31), (17, 1000, 31),
                                           (100, 1000, 31), (2, 1, 2)],
                         ids=["2", "3", "17", "100", "2-1-2"])
def test_bypass_papr_from_orbit_sums_matches_per_frame_chain(beta, n, seed):
    # the orbit-sum kernel's peak is the largest chip power bit for bit; its
    # mean power rounds in its own order; seed 2's one frame has y_2 and y_3
    # both negative, so a peak that started at 0 rather than below every
    # state would read 2/4 here
    stream = transmit_frames(np.random.default_rng(seed), n, beta, 2, "bypass").ravel()
    got = measure_papr(beta, "bypass", n_frames=n, seed=seed)
    assert got.expectation_normalized == empirical_papr(stream, mean_power=0.5)
    assert got.plain == pytest.approx(empirical_papr(stream), rel=1e-12)


def test_measure_papr_rejects_zero_mean_power():
    # seed 3 is the first seed from 1 up whose count of d = +1 frames among 2
    # is 0 (a chance of 1/4), so every full-mode symbol is erased
    assert _plus_frames(2, seed=3) == [0]
    with pytest.raises(ValueError, match="realized mean power is 0; PAPR undefined"):
        measure_papr(2, "full", n_frames=2, seed=3)
    assert measure_papr(2, "bypass", n_frames=2, seed=3).plain > 0.0


def _kernel_rows(xi, size):
    """NaN-filled rows for ``_kernel_stats``: the kernel's two output rows,
    y, the three kernel rows and the map step's scratch rows."""
    return np.full((2 + 4 + _step_rows(xi), size), np.nan)


def _frame_drives(a, b, beta, xi):
    """Each frame's bypass drives (sum x^2, sum x^4 over both halves) from
    ``_power_sums``' raw rows (a, b), as ``_harvest_weights`` weights them:
    the squared chips' sums of y^2 and y^4 times 1/2 and 1/8, or at xi = 2
    and beta >= 2 the walk's orbit sum T = y_2 + ... + y_{beta+1} and
    D = y_{beta+2} - y_2 in s2 = T/2 + beta and s4 = 5T/8 + D/8 + 3 beta/4."""
    if xi == 2 and beta >= 2:
        return 0.5 * a + beta, 0.625 * a + 0.125 * b + 0.75 * beta
    return 0.5 * a, 0.125 * b


def _kernel_stats(x0, beta, xi, mode, peak=True, rows=None, raw=False):
    """The mode's kernel on the Dickson states y = 2 x0, read at one beta:
    ``_correlator_drives``' running sum 2v or each frame's two bypass drives
    (``_power_sums``' raw rows themselves with ``raw``), then its scalar
    peak (0.0 without ``peak``): the largest u = (2v)^2 in full mode, the
    largest chip power in bypass mode, as ``measure_papr`` reads them.

    ``rows`` (``_kernel_rows`` when not given) holds the kernel's two output
    rows, then y, the kernel's rows and the map step's scratch rows; x0 is
    not written.  At beta = 1 full mode's sum is y itself.
    """
    if rows is None:
        rows = _kernel_rows(xi, x0.size)
    out, y, kernel, work = rows[:2], rows[2], rows[3:6], rows[6:]
    np.multiply(x0, 2.0, out=y)
    if mode == "full":
        top = _correlator_drives(y, (beta,), xi, out=out, rows=kernel, work=work, peak=peak)
        out = (y if beta == 1 else kernel[0],)
    else:
        top = _power_sums(y, (beta,), xi, out=out, rows=kernel, work=work, peak=peak)
        if not raw:
            out = _frame_drives(*out, beta, xi)
    return (*out, top)


@pytest.mark.parametrize("mode", PSI_MODES)
def test_orbit_batch_stats_match_sequence_sums_for_degree_three(mode):
    # the Dickson chip sum is 2v, and the power sums run over both halves;
    # the peak is the largest u = (2v)^2 in full mode, the largest chip power
    # in bypass mode, over all frames
    x0 = draw_initial_state(np.random.default_rng(5), size=300)
    chips = orbits(x0, 6, 3)
    stats = _kernel_stats(x0, 6, 3, mode)
    if mode == "full":
        expected = (2.0 * chips.sum(axis=1), ((2.0 * chips.sum(axis=1)) ** 2).max())
    else:
        expected = (2.0 * (chips ** 2).sum(axis=1), 2.0 * (chips ** 4).sum(axis=1),
                    (chips ** 2).max())
    assert len(stats) == len(expected)
    assert isinstance(stats[-1], float)
    for got, want in zip(stats, expected):
        assert np.max(np.abs(got - want)) < 1e-12


def _chip_order_stats(x0, beta, xi, mode):
    """The kernel's statistics as running sums over scalar orbits, chip by
    chip, times the exact 2 of the Dickson chip sum and of the two halves,
    then the peak over all frames: the largest u = (2v)^2 in full mode, the
    largest chip power in bypass mode."""
    chips = orbits(x0, beta, xi)
    if mode == "full":
        v = chips[:, 0].copy()
        for k in range(1, beta):
            v += chips[:, k]
        return 2.0 * v, float(np.max((2.0 * v) ** 2))
    sq = chips * chips
    e2, e4 = sq[:, 0].copy(), sq[:, 0] * sq[:, 0]
    for k in range(1, beta):
        e2 += sq[:, k]
        e4 += sq[:, k] * sq[:, k]
    return 2.0 * e2, 2.0 * e4, sq.max()


def _orbit_sum_rows(x0, beta):
    """Bypass raw rows at xi = 2 and beta >= 2 in the kernel's order:
    T = y_2 + ... + y_{beta+1} over the scalar orbit of y = 2x, and
    D = y_{beta+2} - y_2."""
    y = 2.0 * orbits(x0, beta + 2, 2)
    t = y[:, 1].copy()
    for k in range(2, beta + 1):
        t += y[:, k]
    return t, y[:, beta + 1] - y[:, 1]


@pytest.mark.parametrize("xi", [2, 3])
@pytest.mark.parametrize("mode", PSI_MODES)
@pytest.mark.parametrize("beta", [1, 2, 17])
def test_orbit_batch_stats_are_bit_identical_to_chip_order_sums(xi, mode, beta):
    # the Dickson-form kernel and the squared chips' map scale by powers of
    # two only, so nothing rounds differently from the unscaled orbit summed
    # in chip order
    x0 = draw_initial_state(np.random.default_rng(beta), size=400)
    want = _chip_order_stats(x0, beta, xi, mode)
    got = _kernel_stats(x0, beta, xi, mode)
    assert len(got) == len(want) and isinstance(got[-1], float)
    # without the peak, each kernel fills the same sums, same bits
    alone = _kernel_stats(x0, beta, xi, mode, peak=False)
    assert type(alone[-1]) is float and alone[-1] == 0.0
    assert all(np.array_equal(a, g) for a, g in zip(alone[:-1], got[:-1]))
    if mode == "bypass" and xi == 2 and beta >= 2:
        # bypass at xi = 2 sums the orbit instead of the chip powers: its
        # raw rows are that form's bits, its drives a few ulp from the
        # chip-order ones, and its peak is still the chip-order peak
        rows = _kernel_stats(x0, beta, xi, mode, raw=True)[:2]
        assert all(np.array_equal(g, w) for g, w in zip(rows, _orbit_sum_rows(x0, beta)))
        for g, w in zip(got[:2], want[:2]):
            assert np.max(np.abs(g - w) / w) <= 1e-14
        got, want = got[2:], want[2:]
    assert all(np.array_equal(g, w) for g, w in zip(got, want))


@pytest.mark.parametrize("k4", [0.0, 0.3829])
@pytest.mark.parametrize("xi", [2, 3])
def test_harvest_weights_give_the_chip_order_moments(xi, k4):
    # bypass over two column blocks, at xi = 2 one beta read from squared
    # chips and three from the orbit sum in one run: the weights on the raw
    # rows give each beta's mean and standard error, and the covariance
    # across betas, of each frame's harvest from its chip-order drives, sum
    # x^2 and sum x^4 over both halves, with a linear rectifier and without
    betas, n, r = [1, 2, 5, 17], montecarlo._BLOCK + 100, 20.0
    base = RunConfig(beta=1, r=1.0, n_frames=n, seed=4, xi=xi, circuit=EhCircuit(k4=k4))
    res = sweep_beta(betas, [r], ["bypass"], base)
    c2, c4 = _weights(r, base.alpha, *rho_params(base.circuit))
    x0 = draw_initial_state(np.random.default_rng(_subseed(4, "bypass")), size=n)
    w = np.array([c2 * s2 + c4 * s4 for s2, s4, _ in
                  (_chip_order_stats(x0, beta, xi, "bypass") for beta in betas)])
    rows = res.select(r=r, psi_mode="bypass")
    np.testing.assert_allclose([row.estimate.mean for row in rows], w.mean(axis=1),
                               rtol=1e-12, atol=0)
    np.testing.assert_allclose([row.estimate.std_error for row in rows],
                               w.std(axis=1, ddof=1) / math.sqrt(n), rtol=1e-12, atol=0)
    cov = res.covariance[r, "bypass"]
    assert np.array_equal(cov, cov.T)
    np.testing.assert_allclose(cov, np.cov(w) / n, rtol=1e-12, atol=0)


def _blocks(k: int) -> list[int]:
    """The widths of the kernel's column blocks over k states: 2^14 each,
    whatever the betas, and the rest."""
    return [min(1 << 14, k - j) for j in range(0, k, 1 << 14)]


@pytest.mark.parametrize("mode", PSI_MODES)
def test_kernel_steps_beta_minus_one_times_per_batch(monkeypatch, mode):
    # the kernel must call the step through montecarlo's own name; it steps
    # each column block of a batch's states in turn, to the largest beta,
    # and every step is taken while the orbit walk runs
    real, real_orbit = montecarlo.chebyshev_step, montecarlo._orbit
    sizes, walking = [], [False]

    def counting(x, xi=2, out=None, **kw):
        assert walking[0], "a map step was taken outside _orbit"
        sizes.append(x.size)
        return real(x, xi, out=out, **kw)

    def orbit(*args, **kw):
        # the flag is up only while the walk itself runs, not between yields
        walk = real_orbit(*args, **kw)
        while True:
            walking[0] = True
            try:
                n = next(walk)
            except StopIteration:
                return
            finally:
                walking[0] = False
            yield n

    monkeypatch.setattr(montecarlo, "chebyshev_step", counting)
    monkeypatch.setattr(montecarlo, "_orbit", orbit)
    n = montecarlo._BATCH + 10  # one full batch and a short one
    # full mode steps only the states of a batch's d = +1 frames: the count
    # of the mode group's stream in a sweep
    drawn = {"full": _plus_frames(n, seed=1), "bypass": [montecarlo._BATCH, 10]}
    base = RunConfig(beta=1, r=20.0, psi_mode=mode, n_frames=n, seed=1)
    sweep = dataclasses.replace(base, seed=_subseed(1, mode))
    drawn_sweep = {"full": _plus_frames(n, seed=sweep.seed), "bypass": drawn["bypass"]}
    for betas in ([1], [2], [5], [1, 2, 5], [5, 3]):
        sizes.clear()
        if len(betas) == 1:
            run_once(dataclasses.replace(base, beta=betas[0]))
            counts = drawn[mode]
        else:
            sweep_beta(betas, [20.0], [mode], base)
            counts = drawn_sweep[mode]
        top = max(betas)
        # at xi = 2 bypass mode steps past the last chip: beta + 1 steps
        steps = (top + 1 if top > 1 else 0) if mode == "bypass" else top - 1
        assert sizes == [w for k in counts for w in _blocks(k) for _ in range(steps)]
        assert len(_blocks(counts[0])) > 1
    sizes.clear()
    measure_papr(3, mode, n_frames=500, seed=1)
    if mode == "bypass":
        assert sizes == [500] * 4
    else:
        (k,) = _plus_frames(500, seed=1)
        assert 0 < k < 500 and sizes == [k, k]


def _plus_frames(n_frames: int, seed: int) -> list[int]:
    """Each full-mode batch's count k of d = +1 frames, from a replay of the
    batch loop's draws: k, then k seed states."""
    rng = np.random.default_rng(seed)
    counts = []
    for start in range(0, n_frames, montecarlo._BATCH):
        k = int(rng.binomial(min(montecarlo._BATCH, n_frames - start), 0.5))
        draw_initial_state(rng, size=k)
        counts.append(k)
    return counts


@pytest.mark.parametrize("xi", [2, 3])
@pytest.mark.parametrize("beta", [1, 2, 17])
def test_full_mode_symbols_are_the_all_frame_formula(xi, beta):
    # over a batch's m frames the squared correlator output is ((1 + d) v)^2
    # with v the chip sum, half the Dickson sum: a batch's drives are it and
    # its square, and the run's five sums and peak are those over all its
    # frames, whose frames with d = -1 are 0 whatever their states; seed 2's
    # one-frame batches have k = 0, and a one-frame run gives five zeros
    other = np.random.default_rng(99)
    for n, seed in ((1, 2), (montecarlo._BATCH + 1, 2), (montecarlo._BATCH + 10, 3)):
        replay = np.random.default_rng(seed)
        counts, want, peak = [], np.zeros(5), 0.0
        for start in range(0, n, montecarlo._BATCH):
            m = min(montecarlo._BATCH, n - start)
            k = int(replay.binomial(m, 0.5))
            x0 = np.concatenate([draw_initial_state(replay, size=k),
                                 draw_initial_state(other, size=m - k)])
            d = np.repeat([1, -1], [k, m - k])
            v = 0.5 * _kernel_stats(x0, beta, xi, "full")[0]
            s2 = ((1 + d) * v) ** 2
            s4 = s2 * s2
            want += [s2.sum(), s4.sum(), (s2 * s2).sum(), (s2 * s4).sum(), (s4 * s4).sum()]
            peak = max(peak, float(np.max(s2)))
            counts.append((m, k))
        acc, top = montecarlo._orbit_moments(seed, n, (beta,), xi, "full", peak=True)
        assert acc._n == n and top == peak
        if n == 1:
            assert _moments(acc) == [0.0] * 5 and top == 0.0
        else:
            np.testing.assert_allclose(_moments(acc), want, rtol=1e-12, atol=0)
        if seed == 2:
            assert counts[-1] == (1, 0)
        else:
            assert all(0 < k < m for m, k in counts)


def _moments(acc) -> list[float]:
    """A one-beta run's sums of s2, s4, s2*s2, s2*s4 and s4*s4: its
    accumulator's two row sums and its Gram's entries."""
    return [*acc._sums.tolist(), acc._gram[0, 0], acc._gram[0, 1], acc._gram[1, 1]]


#: full-mode results of a run whose last batch has no d = +1 frame: (beta,
#: xi, run mean, run standard error, PAPR plain) at n_frames = _BATCH + 1 and
#: seed 2, the first seed whose one-frame last batch has k = 0 (run_once and
#: measure_papr draw the same counts at every xi); named by (beta, xi)
_PINNED_EMPTY_BATCH = [
    (2, 2, '0x1.d3b3647d59994p-19', '0x1.01b2683203671p-25', '0x1.fe94102937d2ap+2'),
    (2, 3, '0x1.fefcfa585bef0p-19', '0x1.2c141b872c290p-25', '0x1.fb94dba9b0af1p+2'),
    (17, 2, '0x1.4b2ff09c13ca2p-13', '0x1.c6afb8b8bb4d8p-19', '0x1.5c13d2acbd989p+5'),
    (17, 3, '0x1.38b500eb0ea1ap-13', '0x1.5b7c0a4caae4ap-19', '0x1.49ac7796c9772p+5'),
]


@pytest.mark.parametrize("beta, xi, mean, std_error, plain", _PINNED_EMPTY_BATCH,
                         ids=[f"{beta}-{xi}" for beta, xi, *_ in _PINNED_EMPTY_BATCH])
def test_full_mode_batch_without_plus_frames_keeps_the_bits(beta, xi, mean, std_error,
                                                            plain):
    n = montecarlo._BATCH + 1
    assert _plus_frames(n, seed=2)[-1] == 0
    # the one-frame last batch adds a frame and five zeros to the run's sums
    (acc, top), (first, first_top) = (
        montecarlo._orbit_moments(2, size, (beta,), xi, "full", peak=True) for size in (n, n - 1))
    assert (acc._n, first._n) == (n, n - 1)
    assert _moments(acc) == _moments(first) and top == first_top
    est = run_once(RunConfig(beta=beta, r=20.0, n_frames=n, seed=2, xi=xi)).estimate
    assert (est.mean.hex(), est.std_error.hex()) == (mean, std_error)
    assert measure_papr(beta, "full", n_frames=n, seed=2, xi=xi).plain.hex() == plain
    # the first batch's draws are those of a one-batch run, and the empty
    # batch adds one frame of zero harvest
    first = run_once(RunConfig(beta=beta, r=20.0, n_frames=n - 1, seed=2, xi=xi)).estimate
    assert est.n_frames == n
    assert est.mean == pytest.approx(first.mean * (n - 1) / n, rel=1e-14)
    # a one-frame run at seed 2 is that empty batch alone
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # a one-frame run's noise warning
        one = run_once(RunConfig(beta=beta, r=20.0, n_frames=1, seed=2, xi=xi)).estimate
    assert one.mean == 0.0 and math.isnan(one.std_error)


#: (xi, mode, beta, float.hex() of run_once's mean and standard error, and of
#: measure_papr's plain ratio) at seed 42, r = 20 and one full batch plus a
#: short one; a change that means to keep every bit must keep these (the
#: bypass rows at xi = 2 and beta >= 2 pin the orbit-sum kernel's rounding,
#: and that of its weights on the raw rows);
#: a row's test is named by its inputs, so a re-pinned row keeps its name
_PINNED_BITS = [
    (2, 'full', 1, '0x1.56fb5fb8946acp-20', '0x1.f5767342efb73p-28', '0x1.01be79f78bfdbp+2'),
    (2, 'full', 2, '0x1.cd6c72469054ep-19', '0x1.fece5f508151bp-26', '0x1.02148e5cac993p+3'),
    (2, 'full', 17, '0x1.506d78095473bp-13', '0x1.d0ed5d69d139fp-19', '0x1.6d9cbcaa32be5p+5'),
    (2, 'bypass', 1, '0x1.2c3c7dfc4c5d4p-20', '0x1.af0d58fe5997ep-29', '0x1.000375ee993e8p+1'),
    (2, 'bypass', 2, '0x1.2bc1a32caffc1p-19', '0x1.33885af421f2dp-28', '0x1.006d9c8f333b5p+1'),
    (2, 'bypass', 17, '0x1.3f46ac2893150p-16', '0x1.c5a6dc846b89dp-27', '0x1.ffa086851c6f4p+0'),
    (3, 'full', 1, '0x1.56fb5fb8946acp-20', '0x1.f5767342efb73p-28', '0x1.01be79f78bfdbp+2'),
    (3, 'full', 2, '0x1.f2b6c67d34b5fp-19', '0x1.295e668182652p-25', '0x1.03be53000d1b1p+3'),
    (3, 'full', 17, '0x1.32607c92fc026p-13', '0x1.4620e2dde356ap-19', '0x1.d5f04b54aa7b8p+4'),
    (3, 'bypass', 1, '0x1.2c3c7dfc4c5d4p-20', '0x1.af0d58fe5997ep-29', '0x1.000375ee993e8p+1'),
    (3, 'bypass', 2, '0x1.2c132cdb6ed3cp-19', '0x1.30e7d224f1a1cp-28', '0x1.00280c1d1389ep+1'),
    (3, 'bypass', 17, '0x1.3f237a0a98736p-16', '0x1.bda9344d8c386p-27', '0x1.ffd36dd456d96p+0'),
]


@pytest.mark.parametrize("xi, mode, beta, mean, std_error, plain", _PINNED_BITS,
                         ids=["{}-{}-{}".format(*row) for row in _PINNED_BITS])
def test_batch_loop_bits_are_pinned(xi, mode, beta, mean, std_error, plain):
    n = montecarlo._BATCH + 10
    est = run_once(RunConfig(beta=beta, r=20.0, psi_mode=mode, n_frames=n, xi=xi)).estimate
    assert (est.mean.hex(), est.std_error.hex()) == (mean, std_error)
    assert measure_papr(beta, mode, n_frames=n, xi=xi).plain.hex() == plain


@pytest.mark.parametrize("xi", [2, 3])
@pytest.mark.parametrize("mode", PSI_MODES)
@pytest.mark.parametrize("beta", [1, 5])
def test_orbit_batch_stats_into_buffers_keep_the_bits(xi, mode, beta):
    # the sums are written into views of the given rows, and the peak is a
    # float: that of the short batch's frames alone
    x0 = draw_initial_state(np.random.default_rng(beta), size=1000)
    want = _kernel_stats(x0, beta, xi, mode, raw=True)
    short = _kernel_stats(x0[:600], beta, xi, mode, raw=True)
    rows = _kernel_rows(xi, x0.size)
    # a full batch, then a short one in views of the same rows
    for m, top in ((x0.size, want[-1]), (600, short[-1])):
        *sums, peak = _kernel_stats(x0[:m], beta, xi, mode, rows=rows[:, :m], raw=True)
        assert all(np.shares_memory(s, rows) for s in sums)
        assert all(np.array_equal(s, w[:m]) for s, w in zip(sums, want))
        assert type(peak) is float and peak == top


def test_draws_into_buffers_keep_the_bits_and_the_stream():
    rng, rng_out = np.random.default_rng(8), np.random.default_rng(8)
    want = draw_initial_state(rng, size=1000)
    rows = np.full((3, 1500), np.nan)
    got = draw_initial_state(rng_out, size=1000, out=rows[0, :1000], work=rows[1:, :1000])
    assert np.shares_memory(got, rows[0])
    assert np.array_equal(got, want)
    # the same stream was consumed, so the next draw matches too
    assert rng_out.random() == rng.random()


@pytest.mark.parametrize("mode", PSI_MODES)
def test_frame_batches_write_into_one_workspace(mode):
    # the workspace is allocated once per run and no batch allocates an
    # array, so a four-batch run holds no more memory at its peak than a
    # one-batch run, nor that more than the workspace; no array leaves it
    def traced(n, betas, peak):
        tracemalloc.start()
        try:
            run = montecarlo._orbit_moments(1, n, betas, 2, mode, peak=peak)
            return run, tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    for betas in ((3,), (2, 3, 7, 11)):
        for peak in (False, True):
            one, one_peak = traced(montecarlo._BATCH, betas, peak)
            four, four_peak = traced(3 * montecarlo._BATCH + 10, betas, peak)
            assert (one[0]._n, four[0]._n) == (montecarlo._BATCH, 3 * montecarlo._BATCH + 10)
            # the state row, then the larger of the draw's two scratch rows
            # and the block rows: two drives per beta and three kernel rows,
            # 2^14 wide whatever the betas, with or without the peak
            rows = max(2 * montecarlo._BATCH, (2 * len(betas) + 3) * (1 << 14))
            workspace = 8 * (montecarlo._BATCH + rows)
            assert workspace <= one_peak <= workspace + 64 * 1024
            assert abs(four_peak - one_peak) <= 64 * 1024
            for acc, top in (one, four):
                # the run keeps the sums and the products of all its rows, at
                # any number of betas, and the products are exactly symmetric
                assert acc._sums.shape == (2 * len(betas),)
                assert acc._gram.shape == (2 * len(betas),) * 2
                assert np.array_equal(acc._gram, acc._gram.T)
                assert type(top) is float and (top > 0.0) == peak


@pytest.mark.parametrize("mode", PSI_MODES)
def test_workspace_rows_start_on_a_cache_line(monkeypatch, mode):
    # a row that straddles 64-byte cache lines slows every pass over it: the
    # seed row and every row the kernel steps through start on a line (the
    # draw's second scratch row starts k floats in, wherever that is)
    seen = []

    def spy(name, keys):
        real = getattr(montecarlo, name)

        def call(*args, **kw):
            for key in keys:
                if kw[key].size:
                    seen.extend(row.ctypes.data % 64 for row in np.atleast_2d(kw[key]))
            return real(*args, **kw)

        monkeypatch.setattr(montecarlo, name, call)

    spy("draw_initial_state", ("out",))
    for name in ("_power_sums", "_correlator_drives"):
        spy(name, ("out", "rows", "work"))
    n = montecarlo._BATCH + (1 << 14) + 10
    for xi in (2, 3):
        montecarlo._orbit_moments(1, n, (1, 2, 5), xi, mode)
    assert len(seen) > 20 and set(seen) == {0}


def _count_sizes(monkeypatch, name: str) -> list[int]:
    """The ``size`` of every call to montecarlo's ``name``."""
    real = getattr(montecarlo, name)
    sizes = []

    def counting(rng, size, **buffers):
        sizes.append(size)
        return real(rng, size=size, **buffers)

    monkeypatch.setattr(montecarlo, name, counting)
    return sizes


class _RecordingGenerator:
    """A numpy Generator that records the name of each method asked of it."""

    def __init__(self, rng: np.random.Generator, calls: list[str]) -> None:
        self._rng, self._calls = rng, calls

    def __getattr__(self, name):
        self._calls.append(name)
        return getattr(self._rng, name)


@pytest.mark.parametrize("beta", [1, 5])
@pytest.mark.parametrize("mode", PSI_MODES)
def test_full_mode_draws_only_the_plus_frames(monkeypatch, mode, beta):
    # full mode draws one count k per batch, then k seed states; bypass mode
    # draws m seed states and no data bit; neither draws a fading gain
    n = montecarlo._BATCH + 10
    drawn = _plus_frames(n, seed=1) if mode == "full" else [montecarlo._BATCH, 10]
    states = _count_sizes(monkeypatch, "draw_initial_state")
    gains = _count_sizes(monkeypatch, "sample_rayleigh")
    calls = []
    real = np.random.default_rng
    monkeypatch.setattr(np.random, "default_rng",
                        lambda seed: _RecordingGenerator(real(seed), calls))
    run_once(RunConfig(beta=beta, r=20.0, psi_mode=mode, n_frames=n, seed=1))
    assert states == drawn and gains == []
    assert "integers" not in calls
    assert calls.count("binomial") == (2 if mode == "full" else 0)
    if mode == "full":
        # about half of each batch
        assert all(abs(k - m / 2) < 3 * math.sqrt(m) for k, m in zip(drawn, (n - 10, 10)))


def test_run_result_deviation_fields():
    res = run_once(RunConfig(beta=2, r=20.0, n_frames=20_000, seed=5))
    assert res.rel_dev == pytest.approx(
        (res.estimate.mean - res.z_analytic) / res.z_analytic
    )
    assert res.excess_sigma == pytest.approx(
        (res.estimate.mean - res.z_analytic) / res.estimate.std_error
    )
    assert res.papr_bound == 8.0  # integrate-then-rectify, beta=2


def test_excess_sigma_of_a_zero_standard_error():
    # both frames carry bit -1, so both harvest exactly 0: mean 0, SE 0
    cfg = RunConfig(beta=2, r=20.0, n_frames=2, seed=3)
    with pytest.warns(UserWarning):
        res = run_once(cfg)
    assert (res.estimate.mean, res.estimate.std_error) == (0.0, 0.0)
    assert res.excess_sigma == -math.inf
    estimate = DcEstimate(mean=1.0, std_error=0.0, n_frames=2)
    rows = [RunResult(beta=2, r=20.0, psi_mode="full", estimate=estimate, z_analytic=z,
                      papr_bound=8.0) for z in (0.5, 1.0)]
    assert rows[0].excess_sigma == math.inf
    assert math.isnan(rows[1].excess_sigma)


def test_run_result_is_frozen_through_its_estimate():
    cfg = RunConfig(beta=2, r=20.0, n_frames=1000)
    res = run_once(cfg)
    with pytest.raises(dataclasses.FrozenInstanceError):
        res.estimate.mean = 0.0
    assert hash(res) == hash(run_once(cfg))


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
    assert res.select(r=10) == res.select(r=10.0) == res.rows
    row = res.select(beta=2, psi_mode="bypass")[0]
    # signed, as for run_once; only the CLI columns print its magnitude
    assert row.rel_dev == pytest.approx(
        (row.estimate.mean - row.z_analytic) / row.z_analytic
    )


def test_sweep_validation():
    base = RunConfig(beta=1, r=1.0, n_frames=500, seed=2)
    with pytest.raises(ValueError, match="^betas must be nonempty"):
        sweep_beta([], [10.0], ["full"], base)
    with pytest.raises(ValueError, match="^distances must be nonempty"):
        sweep_beta([1], [], ["full"], base)
    with pytest.raises(ValueError, match="^modes must be nonempty"):
        sweep_beta([1], [10.0], [], base)
    # axis values are validated as given, not truncated or coerced first
    for betas in ([2.7], [True], [2, 2.0]):
        with pytest.raises(ValueError, match="^beta must be an integer"):
            sweep_beta(betas, [20.0], ["full"], base)
    with pytest.raises(ValueError, match="^r must be a finite real"):
        sweep_beta([2], [True], ["full"], base)


def test_sweep_keeps_integer_distances_as_floats():
    base = RunConfig(beta=1, r=1.0, n_frames=500, seed=2)
    (row,) = sweep_beta([np.int64(2)], [20], ["full"], base).rows
    assert type(row.beta) is int and type(row.r) is float
    assert row == sweep_beta([2], [20.0], ["full"], base).rows[0]


@pytest.mark.parametrize("mode", PSI_MODES)
def test_sweep_cell_is_run_once_at_its_subseed(mode):
    # one mode group's rows share its seed at every beta and distance, and
    # each is the one-beta run at that seed, bit for bit
    betas, distances = [1, 2, 5, 17], [25.0, 40.0]
    for xi in (2, 3):
        base = RunConfig(beta=1, r=1.0, n_frames=3000, seed=23, xi=xi)
        rows = sweep_beta(betas, distances, [mode], base).rows
        assert rows == [run_once(dataclasses.replace(base, beta=beta, r=r, psi_mode=mode,
                                                     seed=_subseed(23, mode)))
                        for beta in betas for r in distances]


@pytest.mark.parametrize("mode", PSI_MODES)
def test_sweep_simulates_each_orbit_run_once(monkeypatch, mode):
    # one mode group runs serially; the serial map makes sure that every
    # step, in any number of jobs, is counted in this process
    monkeypatch.setattr(montecarlo, "fork_map", lambda fn, items: [fn(x) for x in items])
    real = montecarlo.chebyshev_step
    chips = []

    def counting(x, xi=2, out=None, **kw):
        chips.append(x.size)
        return real(x, xi, out=out, **kw)

    monkeypatch.setattr(montecarlo, "chebyshev_step", counting)
    base = RunConfig(beta=1, r=1.0, n_frames=3000, seed=5)
    counts = []
    # a second distance and a smaller beta each read the one orbit run
    for betas, distances in (([6], [20.0]), ([6], [20.0, 30.0]), ([2, 6], [20.0])):
        chips.clear()
        sweep_beta(betas, distances, [mode], base)
        counts.append(sum(chips))
    assert counts[0] > 0 and counts[1:] == [counts[0]] * 2


def test_one_batch_loop_owns_every_stream(monkeypatch):
    # every Monte-Carlo generator is opened inside the batch loop, one per
    # orbit run at that run's seed, and each run adds one batch's moments per
    # _BATCH frames (the count perfbench reads as harvester.add_moments_calls);
    # the serial map keeps a sweep's mode jobs in this process
    monkeypatch.setattr(montecarlo, "fork_map", lambda fn, items: [fn(x) for x in items])
    real_rng, real_add = np.random.default_rng, DcAccumulator.add_moments
    real_loop = montecarlo._orbit_moments
    events, looping = [], [False]

    def rng(seed):
        assert looping[0], "a generator was opened outside the batch loop"
        events.append(("rng", seed))
        return real_rng(seed)

    def add(self, n, sums, gram):
        events.append(("add", n))
        return real_add(self, n, sums, gram)

    def loop(*args, **kw):
        looping[0] = True
        try:
            return real_loop(*args, **kw)
        finally:
            looping[0] = False

    monkeypatch.setattr(np.random, "default_rng", rng)
    monkeypatch.setattr(DcAccumulator, "add_moments", add)
    monkeypatch.setattr(montecarlo, "_orbit_moments", loop)
    n = 2 * montecarlo._BATCH + 10
    batches = [("add", montecarlo._BATCH)] * 2 + [("add", 10)]
    base = RunConfig(beta=3, r=20.0, n_frames=n, seed=5)
    run_once(base)
    assert events == [("rng", 5), *batches]
    events.clear()
    sweep_beta([2, 3], [20.0, 30.0], ["full", "bypass"], base)
    assert events == [event for mode in ("full", "bypass")
                      for event in (("rng", _subseed(5, mode)), *batches)]
    events.clear()
    measure_papr(3, "bypass", n_frames=n, seed=8)
    assert events == [("rng", 8), *batches]


@pytest.mark.parametrize("mode", PSI_MODES)
def test_linear_rectifier_rows_scale_with_the_path_gain(mode):
    # with k4 = 0 a frame's harvest is a*g*s2, and both rows weight one orbit
    # run's moments, so they differ by the ratio of their gains alone
    circuit = EhCircuit(k2=0.0034, k4=0.0, r_ant=50.0, p_t=1.0)
    base = RunConfig(beta=1, r=1.0, alpha=3.5, n_frames=3000, seed=9, circuit=circuit)
    near, far = sweep_beta([5], [20.0, 30.0], [mode], base).rows
    ratio = 1.5 ** 3.5
    assert near.estimate.mean / far.estimate.mean == pytest.approx(ratio, rel=1e-14)
    assert near.estimate.std_error / far.estimate.std_error == pytest.approx(ratio,
                                                                            rel=1e-14)


def test_one_result_type():
    assert RunResult is SweepRow
    assert chaoswpt.RunResult is chaoswpt.SweepRow is RunResult
    res = run_once(RunConfig(beta=2, r=20.0, psi_mode="bypass", n_frames=500))
    assert (res.beta, res.r, res.psi_mode) == (2, 20.0, "bypass")


def test_run_config_rejects_a_received_scale_that_underflows():
    # the path gain 1e-312 is a float, rho1 = 1.7e-21 times it is not
    with pytest.raises(ValueError, match=r"^the harvest weights c2=0\.0, c4=0\.0 .* "
                                         r"for r=1e\+78, alpha=4\.0$"):
        RunConfig(beta=2, r=1e78, circuit=EhCircuit(p_t=1e-20))


def test_run_once_rejects_a_closed_form_that_underflows(monkeypatch):
    # the closed form is c2*beta + c4*E[s4] >= c2, so a run whose linear
    # weight underflows is refused when it is built, before a frame is simulated
    monkeypatch.setattr(montecarlo, "_orbit_moments", _no_frames)
    circuit = EhCircuit(k2=1e-300, k4=0.0, r_ant=1.0, p_t=1.0)
    with pytest.raises(ValueError, match=r"c2=0\.0, c4=0\.0 .* r=1e\+78, alpha=4\.0"):
        run_once(RunConfig(beta=1, r=1e78, n_frames=500, circuit=circuit))


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


@pytest.mark.parametrize("betas", [[10, 10, 10, 20, 20], [10, 20] * 3])
def test_fit_needs_five_distinct_betas(betas):
    # a repeated beta shares its seed, so its rows are one point counted
    # again, and the quadratic stays rank-deficient
    base = RunConfig(beta=1, r=1.0, n_frames=2000, seed=3)
    res = sweep_beta(betas, [20.0], ["full"], base)
    assert len(res.rows) == len(betas)
    with pytest.raises(ValueError, match=r"5 distinct betas .* got \[10, 20\]$"):
        fit_scaling(res, 20.0, "full")


def _frame_harvests(seed, n, betas, xi, mode, c2, c4):
    """Each frame's harvest w = c2*s2 + c4*s4 at every beta, one row per
    frame, from drives built chip by chip over the draws of a mode group's
    run at ``seed``: k and k seed states in full mode, whose other n - k
    frames harvest 0, or n seed states in bypass mode."""
    rng = np.random.default_rng(seed)
    k = int(rng.binomial(n, 0.5)) if mode == "full" else n
    chips = orbits(draw_initial_state(rng, size=k), max(betas), xi)
    w = np.zeros((n, len(betas)))
    for i, beta in enumerate(betas):
        head = chips[:, :beta]
        if mode == "full":
            s2 = (2.0 * head.sum(axis=1)) ** 2  # the correlator output (1 + d) v, d = +1
            s4 = s2 * s2
        else:
            s2, s4 = 2.0 * (head ** 2).sum(axis=1), 2.0 * (head ** 4).sum(axis=1)
        w[:k, i] = c2 * s2 + c4 * s4
    return w


@pytest.mark.parametrize("mode", PSI_MODES)
def test_fit_carries_the_rows_covariance(mode):
    # the rows of one mode share one run, so the fit's coefficients are the
    # frame mean of the projection P w of each frame's harvests, and their
    # standard errors are its sample spread, which a fit that took the rows
    # as independent would miss
    betas, n, r = [1, 2, 3, 5, 8], 3000, 20.0
    base = RunConfig(beta=1, r=1.0, n_frames=n, seed=31)
    res = sweep_beta(betas, [r], [mode], base)
    rows = res.select(r=r, psi_mode=mode)
    cov = res.covariance[r, mode]
    se = np.array([row.estimate.std_error for row in rows])
    np.testing.assert_allclose(np.diag(cov), se * se, rtol=1e-12, atol=0)
    c2, c4 = _weights(r, base.alpha, *rho_params(base.circuit))
    w = _frame_harvests(_subseed(31, mode), n, betas, 2, mode, c2, c4)
    np.testing.assert_allclose([row.estimate.mean for row in rows], w.mean(axis=0),
                               rtol=1e-12)
    coef = w @ np.linalg.pinv(np.vander(np.array(betas, dtype=float), 3)).T
    want = np.sqrt(coef.var(axis=0, ddof=1) / n)
    fit = fit_scaling(res, r, mode)
    np.testing.assert_allclose([fit.c2_stderr, fit.c1_stderr, fit.c0_stderr], want,
                               rtol=1e-10, atol=0)
    # the rows are correlated, so the diagonal alone gives other errors
    bare = fit_scaling(SweepResult(rows=res.rows), r, mode)
    assert (bare.c2, bare.c1, bare.c0) == (fit.c2, fit.c1, fit.c0)
    assert abs(bare.c2_stderr / fit.c2_stderr - 1) > 0.01


def test_repeated_beta_rows_are_fully_correlated():
    # the second grid runs one beta, and every entry of its covariance is
    # se_i * se_j
    base = RunConfig(beta=1, r=1.0, n_frames=2000, seed=3)
    for betas, distances in (([4, 9, 4], [20.0, 20.0]), ([4, 4], [20.0, 30.0])):
        res = sweep_beta(betas, distances, ["bypass"], base)
        assert sorted(res.covariance) == [(r, "bypass") for r in sorted(set(distances))]
        for r in set(distances):
            cov = res.covariance[r, "bypass"]
            rows = res.select(r=r, psi_mode="bypass")
            n = len(betas) * distances.count(r)
            assert cov.shape == (n, n) and np.array_equal(cov, cov.T)
            for i, a in enumerate(rows):
                for j, b in enumerate(rows):
                    if a.beta == b.beta:
                        assert cov[i, j] == a.estimate.std_error ** 2
                        assert cov[i, j] == a.estimate.std_error * b.estimate.std_error
                    else:
                        assert 0.0 < cov[i, j] < a.estimate.std_error * b.estimate.std_error


def test_fit_does_not_depend_on_the_blas_thread_count():
    # each block's products are one BLAS call, and every row's standard
    # error, the covariance and the fit come from them: all must read the
    # same at any thread count, and so must a one-beta run
    code = ("from chaoswpt.montecarlo import RunConfig, run_once, sweep_beta, fit_scaling\n"
            "base = RunConfig(beta=1, r=1.0, n_frames=40_000, seed=5)\n"
            "res = sweep_beta(range(1, 90, 11), [20.0, 30.0], ['full', 'bypass'], base)\n"
            "for mode in ('full', 'bypass'):\n"
            "    for r in (20.0, 30.0):\n"
            "        fit = fit_scaling(res, r, mode)\n"
            "        print(*(float(v).hex() for v in vars(fit).values()))\n"
            "for row in res.rows:\n"
            "    print(row.estimate.mean.hex(), row.estimate.std_error.hex())\n"
            "for cov in res.covariance.values():\n"
            "    print(*(float(v).hex() for v in cov.ravel()))\n"
            "est = run_once(base).estimate\n"
            "print(est.mean.hex(), est.std_error.hex())\n")
    src = os.path.dirname(os.path.dirname(montecarlo.__file__))
    outs = []
    for threads in ("1", "2"):
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads,
               "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
        proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                              text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        outs.append(proc.stdout)
    # four fits, 9 betas x 2 distances x 2 modes rows, four covariances and
    # the one-beta run
    assert outs[0] == outs[1] and len(outs[0].splitlines()) == 4 + 36 + 4 + 1


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
