"""Acceptance gate: every release-blocking check, one test per criterion.

Each test prints a single PASS/FAIL line (visible with -s, or in the captured
output of a failing test) and then asserts.  Tolerances and runtime budgets
are part of the assertions.
"""

import functools
import math
import time
from fractions import Fraction

import numpy as np

from chaoswpt.analytic import _weights, beta_crossover, papr_analytic, z_with_correlator_exact
from chaoswpt.chaos import draw_initial_state, generate_sequence
from chaoswpt.distcheck import verify_distributions
from chaoswpt.harvester import EhCircuit, rho_params
from chaoswpt.montecarlo import (
    RunConfig,
    fit_scaling,
    measure_papr,
    run_once,
    sweep_beta,
)
from chip_moments import chip_sum_moment

N_FULL = 1_000_000


def _report(num: int, ok: bool, detail: str) -> None:
    print(f"criterion {num}: {'PASS' if ok else 'FAIL'} — {detail}")


def test_criterion_1_papr_bounds():
    t0 = time.perf_counter()
    exact = True
    for beta in (1, 10, 256):
        exact &= papr_analytic("bypass", beta) == 2.0
        exact &= papr_analytic("full", beta) == 4.0 * beta
    worst_margin = math.inf
    for beta in (1, 10, 256):
        for mode in ("bypass", "full"):
            m = measure_papr(beta, mode, n_frames=100_000, seed=42)
            worst_margin = min(worst_margin,
                               m.analytic_bound - m.expectation_normalized)
    elapsed = time.perf_counter() - t0
    ok = exact and worst_margin >= 0.0 and elapsed < 10.0
    _report(1, ok, f"analytic ratios exact, empirical margin to bound "
                   f">= {worst_margin:.3f} over 1e5 frames, {elapsed:.1f}s")
    assert exact
    assert worst_margin >= 0.0
    assert elapsed < 10.0


def test_criterion_2_raw_stream_harvest_matches_closed_form():
    sigmas = {}
    per_point_ok = True
    for beta in (1, 4, 16):
        t0 = time.perf_counter()
        res = run_once(RunConfig(beta=beta, r=20.0, alpha=4.0,
                                 psi_mode="bypass", n_frames=N_FULL, seed=42))
        per_point_ok &= (time.perf_counter() - t0) < 60.0
        sigmas[beta] = res.excess_sigma
    ok = per_point_ok and all(abs(s) <= 3.0 for s in sigmas.values())
    detail = ", ".join(f"beta={b}: {s:+.2f} SE" for b, s in sigmas.items())
    _report(2, ok, f"raw-stream z at r=20 within 3 SE of closed form ({detail})")
    assert per_point_ok
    for beta, s in sigmas.items():
        assert abs(s) <= 3.0, (beta, s)


def test_criterion_3_single_symbol_harvest_matches_exact_form():
    t0 = time.perf_counter()
    sigmas = {}
    for r in (1.0, 20.0):
        res = run_once(RunConfig(beta=1, r=r, alpha=4.0,
                                 psi_mode="full", n_frames=N_FULL, seed=42))
        sigmas[r] = res.excess_sigma
    elapsed = time.perf_counter() - t0
    ok = elapsed < 60.0 and all(abs(s) <= 3.0 for s in sigmas.values())
    detail = ", ".join(f"r={r:g}: {s:+.2f} SE" for r, s in sigmas.items())
    _report(3, ok, f"integrated receiver at beta=1 within 3 SE ({detail}), "
                   f"{elapsed:.1f}s")
    assert elapsed < 60.0
    for r, s in sigmas.items():
        assert abs(s) <= 3.0, (r, s)


def test_criterion_4_asymptotic_branch_within_five_percent():
    t0 = time.perf_counter()
    devs = {}
    for beta in (2, 5, 10, 50, 100):
        res = run_once(RunConfig(beta=beta, r=20.0, alpha=4.0,
                                 psi_mode="full", n_frames=N_FULL, seed=42))
        devs[beta] = res.rel_dev
    elapsed = time.perf_counter() - t0
    worst = max(abs(v) for v in devs.values())
    ok = worst <= 0.05 and elapsed < 300.0
    detail = ", ".join(f"beta={b}: {100 * v:+.2f}%" for b, v in devs.items())
    _report(4, ok, f"integrated receiver vs asymptotic closed form ({detail}), "
                   f"{elapsed:.1f}s")
    assert elapsed < 300.0
    # Known red: the closed form's quadratic branch is a large-beta limit.
    # The exact fourth moment of a chaotic chip sum carries O(beta) terms the
    # limit drops, and at small beta they are nowhere near 5% of the total
    # (quantified in scripts/clt_gap.py).  Asserted as stated anyway.
    assert worst <= 0.05, (
        "5% agreement with the asymptotic branch does not hold at small "
        f"spreading factors: {detail}; run scripts/clt_gap.py for the "
        "noise-free gap decomposition"
    )


@functools.cache
def _exact_form_runs() -> dict:
    """Criterion 4's runs at two map degrees, run once for both exact-form gates."""
    return {(xi, beta): run_once(RunConfig(beta=beta, r=20.0, alpha=4.0, psi_mode="full",
                                           n_frames=N_FULL, seed=42, xi=xi)).estimate
            for xi in (2, 3) for beta in (2, 5, 10, 50, 100)}


def test_exact_finite_beta_harvest_within_three_se():
    # criterion 4's runs, held to the exact form instead of the asymptotic
    # branch, at two map degrees: a gate that sees model error, not only noise
    t0 = time.perf_counter()
    rho1, rho2 = rho_params(EhCircuit())
    sigmas = {}
    for (xi, beta), est in _exact_form_runs().items():
        z = z_with_correlator_exact(beta, 20.0, 4.0, rho1, rho2, xi)
        sigmas[xi, beta] = (est.mean - z) / est.std_error
    elapsed = time.perf_counter() - t0
    ok = elapsed < 300.0 and all(abs(s) <= 3.0 for s in sigmas.values())
    detail = ", ".join(f"xi={xi} beta={b}: {s:+.2f} SE" for (xi, b), s in sigmas.items())
    print(f"exact form: {'PASS' if ok else 'FAIL'} — integrated receiver within 3 SE "
          f"of the exact finite-beta harvest ({detail}), {elapsed:.1f}s")
    assert elapsed < 300.0
    for cell, s in sigmas.items():
        assert abs(s) <= 3.0, (cell, s)


def _exact_harvest_moments(beta: int, xi: int, c2: float, c4: float) -> list[Fraction]:
    """E[w^j] for j = 1 ... 4, exactly, of one full-mode frame's harvest
    w = c2 u + c4 u^2: u = 4 V^2 for the chip sum V when d = +1 (probability
    1/2), and u = 0 otherwise."""
    ev = {m: chip_sum_moment(m, beta, xi) for m in range(2, 17, 2)}
    a, b = 4 * Fraction(c2), 16 * Fraction(c4)
    # (a V^2 + b V^4)^j = sum_i C(j, i) a^(j - i) b^i V^(2j + 2i)
    return [sum(math.comb(j, i) * a ** (j - i) * b ** i * ev[2 * j + 2 * i]
                for i in range(j + 1)) / 2 for j in range(1, 5)]


def test_exact_finite_beta_standard_errors_are_calibrated():
    # a defect that inflates its own standard error passes every "within
    # k SE" gate, so the run's SE is held to the exact one, sqrt(Var w / n),
    # within 3 spreads of the sample SD's own relative error,
    # sqrt((kappa - 1) / 4n) for the harvest's kurtosis kappa
    rho = rho_params(EhCircuit())
    c2, c4 = _weights(20.0, 4.0, *rho)
    units, failed = {}, []
    for (xi, beta), est in _exact_form_runs().items():
        m1, m2, m3, m4 = _exact_harvest_moments(beta, xi, c2, c4)
        z = z_with_correlator_exact(beta, 20.0, 4.0, *rho, xi)
        assert math.isclose(m1, z, rel_tol=1e-12), (xi, beta, float(m1), z)
        var = m2 - m1 * m1
        kappa = (m4 - 4 * m1 * m3 + 6 * m1 * m1 * m2 - 3 * m1 ** 4) / var ** 2
        n = est.n_frames
        unit = math.sqrt((float(kappa) - 1.0) / (4 * n))
        units[xi, beta] = (est.std_error / math.sqrt(float(var) / n) - 1.0) / unit
        if abs(units[xi, beta]) > 3.0:
            failed.append((xi, beta))
    detail = ", ".join(f"xi={xi} beta={b}: {u:+.2f}" for (xi, b), u in units.items())
    print(f"exact SE: {'FAIL' if failed else 'PASS'} — run's SE over the exact SE, "
          f"in spreads of the sample SD ({detail})")
    assert not failed, (failed, detail)


def test_criterion_5_crossover_location():
    t0 = time.perf_counter()
    bound = beta_crossover(30.0, 20.0, 4.0, 0.17, 957.25)
    bound_ok = 51.0 < bound < 52.5

    betas = [45, 48, 50, 51, 53, 56, 60, 70, 100]
    base = RunConfig(beta=1, r=1.0, alpha=4.0, n_frames=N_FULL, seed=42)
    far = sweep_beta(betas, [30.0], ["full"], base)
    near = sweep_beta(betas, [20.0], ["bypass"], base)

    margins = {}
    for beta in betas:
        zc = far.select(beta=beta)[0].estimate
        znc = near.select(beta=beta)[0].estimate
        sigma = math.hypot(zc.std_error, znc.std_error)
        margins[beta] = (zc.mean - znc.mean) / sigma
    above_ok = all(margins[b] > -3.0 for b in betas if b >= 53)
    below_ok = all(margins[b] < 3.0 for b in betas if b <= 51)
    elapsed = time.perf_counter() - t0
    ok = bound_ok and above_ok and below_ok and elapsed < 300.0
    detail = ", ".join(f"beta={b}: {m:+.1f}σ" for b, m in margins.items())
    _report(5, ok, f"analytic bound {bound:.3f}; far-link-minus-near-link "
                   f"margins ({detail}), {elapsed:.1f}s")
    assert bound_ok
    assert above_ok
    assert below_ok
    assert elapsed < 300.0


def test_criterion_6_reference_distribution_battery():
    t0 = time.perf_counter()
    reports = verify_distributions(n_samples=N_FULL, seed=0)
    elapsed = time.perf_counter() - t0
    norm_ok = all(rep.norm_abs_err < 1e-6 for rep in reports)
    mom_ok = all(rep.max_moment_rel_err < 1e-4 for rep in reports)
    ks_ok = all(rep.ks_stat < 0.005 for rep in reports)
    ok = norm_ok and mom_ok and ks_ok and elapsed < 120.0
    worst_ks = max(rep.ks_stat for rep in reports)
    _report(6, ok, f"7 distribution checks: worst KS {worst_ks:.5f}, "
                   f"norm/moment errors at quadrature precision, {elapsed:.1f}s")
    assert norm_ok
    assert mom_ok
    assert ks_ok
    assert elapsed < 120.0


def test_criterion_7_scaling_fit_recovers_quadratic_law():
    t0 = time.perf_counter()
    betas = list(range(10, 101, 10))
    base = RunConfig(beta=1, r=20.0, alpha=4.0, n_frames=N_FULL, seed=42)
    res = sweep_beta(betas, [20.0], ["full", "bypass"], base)

    g = 20.0 ** -4.0
    c2_target = 12.0 * g * g * 957.25
    fit_full = fit_scaling(res, 20.0, "full")
    full_err = (fit_full.c2 - c2_target) / c2_target

    fit_bypass = fit_scaling(res, 20.0, "bypass")
    null_sigma = abs(fit_bypass.c2) / fit_bypass.c2_stderr
    small_vs_linear = abs(fit_bypass.c2) < 0.05 * fit_bypass.c1 * max(betas)

    elapsed = time.perf_counter() - t0
    ok = (abs(full_err) <= 0.10 and null_sigma < 3.0 and small_vs_linear
          and elapsed < 120.0)
    _report(7, ok, f"integrated-receiver c2 off by {100 * full_err:+.1f}% "
                   f"(tol 10%); raw-stream c2 at {null_sigma:.2f}σ from zero, "
                   f"{elapsed:.1f}s")
    assert abs(full_err) <= 0.10
    assert null_sigma < 3.0
    assert small_vs_linear
    assert elapsed < 120.0


def test_criterion_8_chaotic_orbit_statistics():
    t0 = time.perf_counter()
    rng = np.random.default_rng(42)
    x = generate_sequence(float(draw_initial_state(rng, size=1)[0]), N_FULL, 2)
    mean = float(np.mean(x))
    m2 = float(np.mean(x * x))
    m4 = float(np.mean(x ** 4))
    lag1 = float(np.corrcoef(x[:-1], x[1:])[0, 1])
    elapsed = time.perf_counter() - t0
    ok = (abs(mean) < 0.005 and abs(m2 - 0.5) < 0.005
          and abs(m4 - 0.375) < 0.005 and abs(lag1) < 0.01 and elapsed < 5.0)
    _report(8, ok, f"orbit mean {mean:+.5f}, m2 {m2:.5f}, m4 {m4:.5f}, "
                   f"lag-1 corr {lag1:+.5f}, {elapsed:.1f}s")
    assert abs(mean) < 0.005
    assert abs(m2 - 0.5) < 0.005
    assert abs(m4 - 0.375) < 0.005
    assert abs(lag1) < 0.01
    assert elapsed < 5.0
