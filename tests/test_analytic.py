import itertools
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from scipy.special import erf

from chaoswpt import analytic
from chaoswpt.analytic import (
    FAMILIES,
    PdfOracle,
    beta_crossover,
    make_oracle,
    oracle_cdf,
    oracle_moment,
    oracle_normalization,
    papr_analytic,
    pdf_eval,
    z_with_correlator,
    z_with_correlator_exact,
    z_without_correlator,
)
from chaoswpt.harvester import EhCircuit, rho_params
from chip_moments import chip_sum_moment

CLOSED_FORMS = (z_with_correlator, z_with_correlator_exact, z_without_correlator)


def test_inputs_validation():
    for z in CLOSED_FORMS:
        z(beta=1, r=1.0, alpha=2.0, rho1=0.17, rho2=0.0)
        with pytest.raises(ValueError):
            z(beta=0, r=1.0, alpha=2.0, rho1=0.17, rho2=957.25)
        with pytest.raises(ValueError):
            z(beta=1, r=-1.0, alpha=2.0, rho1=0.17, rho2=957.25)
        with pytest.raises(ValueError):
            z(beta=1, r=1.0, alpha=2.0, rho1=0.0, rho2=957.25)
        with pytest.raises(ValueError):
            z(beta=1, r=1.0, alpha=2.0, rho1=0.17, rho2=-1.0)


@pytest.mark.parametrize("beta", [2.7, 2.0, True])
def test_closed_forms_validate_beta_as_given(beta):
    # no truncation: 2.7 is not beta = 2, and True is not beta = 1
    for z in CLOSED_FORMS:
        with pytest.raises(ValueError, match="^beta must be an integer"):
            z(beta, 20, 4, *rho_params(EhCircuit()))


def test_papr_analytic_values():
    assert papr_analytic("bypass", 1) == 2.0
    assert papr_analytic("bypass", 100) == 2.0
    assert papr_analytic("full", 1) == 4.0
    assert papr_analytic("full", 10) == 40.0
    assert papr_analytic("full", 256) == 1024.0
    with pytest.raises(ValueError):
        papr_analytic("sideways", 4)
    with pytest.raises(ValueError):
        papr_analytic("full", 0)


def _inputs(beta, r):
    return (beta, r, 4.0, *rho_params(EhCircuit()))


def test_harvest_closed_forms_frozen():
    # unit path gain, default circuit
    assert z_with_correlator(*_inputs(1, 1.0)) == pytest.approx(5743.67, rel=1e-12)
    assert z_without_correlator(*_inputs(1, 1.0)) == pytest.approx(1436.045, rel=1e-12)
    # r = 20 → gain 6.25e-6
    assert z_with_correlator(*_inputs(1, 20.0)) == pytest.approx(
        1.28685546875e-06, rel=1e-12
    )
    assert z_without_correlator(*_inputs(16, 20.0)) == pytest.approx(
        1.7897421875e-05, rel=1e-12
    )
    assert z_without_correlator(*_inputs(4, 20.0)) == pytest.approx(
        4.47435546875e-06, rel=1e-12
    )
    assert z_with_correlator(*_inputs(100, 30.0)) == pytest.approx(
        0.00019606767261088248, rel=1e-12
    )


def test_single_symbol_branch_is_not_the_generic_formula():
    # at beta=1 the correlated form keeps the exact fourth-moment constant (6),
    # not the asymptotic 12 the generic branch would give
    exact = z_with_correlator(*_inputs(1, 20.0))
    g = 20.0**-4.0
    generic = g * 0.17 + 12.0 * g * g * 957.25
    assert exact < generic
    assert exact == pytest.approx(g * 0.17 + 6.0 * g * g * 957.25, rel=1e-12)


def _chip_sum_fourth_moment(beta: int, xi: int) -> float:
    """E[(x_1 + ... + x_beta)^4] for x_k = cos(xi^k theta), theta uniform on
    [0, pi], by brute force: E[cos(a) cos(b) cos(c) cos(d)] is 1/16 times the
    number of sign patterns of the four frequencies that sum to 0."""
    freq = np.array([xi ** k for k in range(1, beta + 1)], dtype=np.int64)
    signs = np.array([[1, s1, s2, s3] for s1 in (1, -1) for s2 in (1, -1)
                      for s3 in (1, -1)])
    # the first sign fixed to +1 counts each zero-sum pattern and its negation once
    quads = np.stack(np.meshgrid(freq, freq, freq, freq, indexing="ij"), -1).reshape(-1, 4)
    zero = (quads @ signs.T) == 0
    return 2.0 * np.count_nonzero(zero) / 16.0


@pytest.mark.parametrize("xi", [2, 3, 4, 5])
@pytest.mark.parametrize("beta", [1, 2, 3, 4, 7])
def test_exact_form_counts_every_relation_of_the_chip_frequencies(beta, xi):
    g = 20.0 ** -4.0
    rho1, rho2 = rho_params(EhCircuit())
    want = g * rho1 * beta + 16.0 * g * g * rho2 * _chip_sum_fourth_moment(beta, xi)
    assert z_with_correlator_exact(beta, 20.0, 4.0, rho1, rho2, xi) == pytest.approx(
        want, rel=1e-12)


@pytest.mark.parametrize("m", [3, 4])
@pytest.mark.parametrize("xi", [2, 3, 4])
@pytest.mark.parametrize("beta", [1, 2, 3, 4])
def test_chip_sum_moment_counts_every_signed_frequency_sum(beta, xi, m):
    # the digit-by-digit count against every choice of a chip and a sign
    # for each of the m slots, whose signed frequencies sum to 0
    freq = [xi ** k for k in range(beta)]
    zero = sum(sum(s * f for s, f in zip(signs, chips)) == 0
               for chips in itertools.product(freq, repeat=m)
               for signs in itertools.product((1, -1), repeat=m))
    assert chip_sum_moment(m, beta, xi) == Fraction(zero, 2 ** m)


@pytest.mark.parametrize("xi", [2, 3, 4, 5, 6])
def test_exact_form_is_the_counted_fourth_moment(xi):
    # at r = alpha = rho1 = 1 and rho2 = 1/2 both weights are 1, so the form
    # is beta + 8 E[V^4], and every term of it is dyadic: the hand-derived
    # relations of the chip frequencies are every relation the count finds
    for beta in range(1, 18):
        z = z_with_correlator_exact(beta, 1.0, 1.0, 1.0, 0.5, xi)
        assert Fraction(z) == beta + 8 * chip_sum_moment(4, beta, xi), beta


@pytest.mark.parametrize("xi", [2, 3, 4, 5])
def test_chip_sum_second_and_third_moments(xi):
    # chips are uncorrelated, E[x^2] = 1/2; the sum is skewed only at xi = 2,
    # where 2n = n + n gives each pair of consecutive chips a third moment
    for beta in range(1, 18):
        assert chip_sum_moment(2, beta, xi) == Fraction(beta, 2)
        skew = Fraction(3, 4) * (beta - 1) if xi == 2 else 0
        assert chip_sum_moment(3, beta, xi) == skew, beta


def test_exact_form_meets_both_branches_of_the_paper_form():
    point = _inputs(1, 20.0)
    for xi in (2, 3, 4, 9):
        # beta = 1: the paper's exact single-symbol value, at every degree
        assert z_with_correlator_exact(*point, xi=xi) == pytest.approx(
            z_with_correlator(*point), rel=1e-12)
        # large beta: the Gaussian chip-sum model's limit
        far = _inputs(10 ** 6, 20.0)
        assert z_with_correlator_exact(*far, xi=xi) == pytest.approx(
            z_with_correlator(*far), rel=1e-5)
    with pytest.raises(ValueError, match="^xi "):
        z_with_correlator_exact(*point, xi=1)


def test_map_degree_sets_the_quartic_harvest_at_beta_ten():
    # E[V^4] at beta = 10 is 83.25 (xi = 2), 75.75 (xi = 3) and 71.25
    # (xi >= 4), against the Gaussian model's 75
    g, (rho1, rho2) = 20.0 ** -4.0, rho_params(EhCircuit())
    for xi, v4 in ((2, 83.25), (3, 75.75), (4, 71.25), (7, 71.25)):
        z = z_with_correlator_exact(10, 20.0, 4.0, rho1, rho2, xi)
        assert (z - g * rho1 * 10) / (16.0 * g * g * rho2) == pytest.approx(v4, rel=1e-9)


@given(st.integers(1, 300), st.floats(1.0, 100.0), st.floats(2.0, 6.0))
@settings(max_examples=100)
def test_linear_rectifier_makes_both_links_equal(beta, r, alpha):
    circuit = EhCircuit(k2=0.0034, k4=0.0, r_ant=50.0, p_t=1.0)
    point = (beta, r, alpha, *rho_params(circuit))
    assert z_with_correlator(*point) == pytest.approx(z_without_correlator(*point), rel=1e-12)


def test_beta_crossover_frozen():
    bound = beta_crossover(30.0, 20.0, 4.0, 0.17, 957.25)
    assert bound == pytest.approx(51.90268614622781, rel=1e-12)
    assert 51.0 < bound < 52.5


def test_beta_crossover_equal_distances():
    # gains cancel: bound = 1.5/12 regardless of geometry
    assert beta_crossover(10.0, 10.0, 4.0, 0.17, 957.25) == pytest.approx(0.125)
    assert beta_crossover(7.0, 7.0, 2.0, 1.0, 2.0) == pytest.approx(0.125)


def test_beta_crossover_consistency_with_closed_forms():
    bound = beta_crossover(30.0, 20.0, 4.0, 0.17, 957.25)
    above = math.ceil(bound)  # 52
    below = above - 1  # 51
    assert z_with_correlator(*_inputs(above, 30.0)) >= z_without_correlator(
        *_inputs(above, 20.0)
    )
    assert z_with_correlator(*_inputs(below, 30.0)) < z_without_correlator(
        *_inputs(below, 20.0)
    )


def test_beta_crossover_validation():
    with pytest.raises(ValueError):
        beta_crossover(0.0, 20.0, 4.0, 0.17, 957.25)
    with pytest.raises(ValueError):
        beta_crossover(30.0, 20.0, 4.0, 0.17, 0.0)
    with pytest.raises(ValueError):
        beta_crossover(30.0, -20.0, 4.0, 0.17, 957.25)
    # the gain 1e-320 is a float, its square is 0
    with pytest.raises(ValueError, match=r"r_c=1e\+80, alpha=4\.0"):
        beta_crossover(1e80, 20.0, 4.0, 0.17, 957.25)


@given(
    st.floats(5.0, 80.0),
    st.floats(5.0, 80.0),
    st.floats(2.0, 5.0),
    st.floats(0.01, 1.0),
    st.floats(1.0, 2000.0),
)
@settings(max_examples=200)
def test_crossover_bound_property(r_c, r_nc, alpha, rho1, rho2):
    bound = beta_crossover(r_c, r_nc, alpha, rho1, rho2)
    assume(bound > 1.0)  # the beta=1 branch has its own constant
    beta_star = math.ceil(bound)
    z_c = z_with_correlator(beta_star, r_c, alpha, rho1, rho2)
    z_nc = z_without_correlator(beta_star, r_nc, alpha, rho1, rho2)
    assert z_c >= z_nc * (1.0 - 1e-9)


# ---------------------------------------------------------------------------
# Reference distributions
# ---------------------------------------------------------------------------


def test_oracle_fields():
    assert FAMILIES == ("S_b1", "Z_b1", "P_b1", "S_clt", "Delta_b1", "Theta_b1")
    atoms = {f: make_oracle(f, beta=4 if f == "S_clt" else 1).atom_at_zero
             for f in FAMILIES}
    assert atoms == {
        "S_b1": 0.5,
        "Z_b1": 0.5,
        "P_b1": 0.5,
        "S_clt": 0.5,
        "Delta_b1": 0.0,
        "Theta_b1": 0.0,
    }
    assert make_oracle("S_b1").support == (-math.inf, math.inf)
    assert make_oracle("S_clt", beta=9).support == (-math.inf, math.inf)
    assert make_oracle("Z_b1").support == (0.0, math.inf)
    assert make_oracle("Theta_b1").support == (0.0, math.inf)
    assert PdfOracle("S_b1") == make_oracle("S_b1")
    # a single-chip family's beta is 1, not left unset
    assert PdfOracle("Z_b1") == PdfOracle("Z_b1", 1)
    assert make_oracle("Z_b1").beta == 1


def test_oracle_validation():
    with pytest.raises(ValueError):
        make_oracle("W_b1")
    with pytest.raises(ValueError):
        make_oracle("S_clt")  # spreading factor required
    with pytest.raises(ValueError):
        make_oracle("S_clt", beta=1)  # asymptotic law needs beta >= 2
    with pytest.raises(ValueError):
        make_oracle("Z_b1", beta=5)  # single-symbol law only
    make_oracle("Z_b1", beta=1)
    # the atom and the support follow from the family; neither can be set
    with pytest.raises(TypeError):
        PdfOracle(family="S_b1", atom_at_zero=0.1)
    with pytest.raises(TypeError):
        PdfOracle(family="Z_b1", support=(-5.0, 3.0))


def test_pdf_frozen_values():
    # each verified against the erf-form antiderivatives
    assert pdf_eval(make_oracle("S_b1"), 0.0) == pytest.approx(
        0.14104739588693907, rel=1e-14
    )
    assert pdf_eval(make_oracle("Z_b1"), 1.0) == pytest.approx(
        0.10984782236693061, rel=1e-14
    )
    assert pdf_eval(make_oracle("P_b1"), 1.0) == pytest.approx(
        0.054923911183465304, rel=1e-14
    )
    assert pdf_eval(make_oracle("Delta_b1"), 1.0) == pytest.approx(
        0.24197072451914337, rel=1e-14
    )
    assert pdf_eval(make_oracle("Theta_b1"), 2.0) == pytest.approx(
        0.05188843717757435, rel=1e-14
    )
    assert pdf_eval(make_oracle("S_clt", beta=4), 0.0) == pytest.approx(0.125)
    assert pdf_eval(make_oracle("S_clt", beta=4), 1.0) == pytest.approx(
        0.07581633246407918, rel=1e-14
    )


def test_pdf_near_the_origin_keeps_the_bits_of_a_subnormal_point():
    # at x = 2**-1072 the exponential factor is 1, so each density is its
    # power-law limit, with x**-0.5 = 2**536 and x**-0.75 = 2**804 exact
    x = 2.0 ** -1072
    limits = {
        "Z_b1": 2.0 ** 536 / (4.0 * math.sqrt(math.pi)),
        "P_b1": 2.0 ** 804 / (8.0 * math.sqrt(math.pi)),
        "Delta_b1": 2.0 ** 536 / math.sqrt(2.0 * math.pi),
        "Theta_b1": 2.0 ** 804 / (2.0 ** 1.25 * math.sqrt(math.pi)),
    }
    for family, limit in limits.items():
        assert pdf_eval(make_oracle(family), x) == pytest.approx(limit, rel=1e-14), family


def test_pdf_outside_support_is_zero():
    assert pdf_eval(make_oracle("Z_b1"), -1.0) == 0.0
    assert pdf_eval(make_oracle("P_b1"), -0.5) == 0.0
    assert pdf_eval(make_oracle("Delta_b1"), -2.0) == 0.0
    assert pdf_eval(make_oracle("Delta_b1"), 1.0) > 0.0


def test_pdf_singular_families_reject_origin():
    for family in ("Z_b1", "P_b1", "Delta_b1", "Theta_b1"):
        with pytest.raises(ValueError):
            pdf_eval(make_oracle(family), 0.0)
    # the two-sided laws are finite there
    assert pdf_eval(make_oracle("S_b1"), 0.0) > 0.0


@pytest.mark.parametrize("family", FAMILIES)
def test_oracles_refuse_a_nan_point(family):
    oracle = make_oracle(family, beta=4 if family == "S_clt" else 1)
    with pytest.raises(ValueError, match=rf"^{family}: the point x is NaN$"):
        pdf_eval(oracle, math.nan)
    with pytest.raises(ValueError, match=rf"^{family}: the point x is NaN$"):
        oracle_cdf(oracle, math.nan)
    with pytest.raises(ValueError, match=rf"^{family}: the point x\[2\] is NaN$"):
        oracle_cdf(oracle, np.array([0.5, 1.0, math.nan, 2.0]))


def test_cdf_frozen_values():
    assert oracle_cdf(make_oracle("Z_b1"), 0.0) == pytest.approx(0.5)
    assert oracle_cdf(make_oracle("S_b1"), 0.0) == pytest.approx(0.75)
    assert oracle_cdf(make_oracle("S_b1"), -1e-4) == pytest.approx(
        0.24998589526042306, rel=1e-12
    )
    assert oracle_cdf(make_oracle("Delta_b1"), 0.0) == pytest.approx(0.0, abs=1e-15)


@given(st.sampled_from(FAMILIES), st.floats(-30.0, 60.0), st.floats(0.0, 30.0))
@settings(max_examples=200)
def test_cdf_is_monotone_and_bounded(family, x, step):
    beta = 4 if family == "S_clt" else 1
    oracle = make_oracle(family, beta=beta)
    lo = float(oracle_cdf(oracle, x))
    hi = float(oracle_cdf(oracle, x + step))
    assert 0.0 <= lo <= hi <= 1.0


@pytest.mark.parametrize("family", ["Z_b1", "P_b1", "Delta_b1", "Theta_b1"])
def test_one_sided_cdf_is_built_in_its_result(family):
    # the plain expression's bits, with no full-length temporary beside the
    # array returned; a scalar point gets the array's bits too
    x = 3.0 * np.random.default_rng(4).standard_normal(1_000_000)
    x[:4] = [0.0, -0.0, 5e-324, -5e-324]
    oracle = make_oracle(family)
    atom, s, p = analytic._LAWS[family]
    want = np.where(x < 0.0, 0.0, atom + (1.0 - atom) * erf((np.maximum(x, 0.0) / s) ** (1.0 / p)))
    tracemalloc.start()
    try:
        got = oracle_cdf(oracle, x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(got, want)
    assert peak <= 2 * x.nbytes  # the three temporaries took 3 * x.nbytes
    assert [oracle_cdf(oracle, float(v)) for v in x[:200]] == got[:200].tolist()


def test_cdf_limits():
    for family in FAMILIES:
        beta = 4 if family == "S_clt" else 1
        oracle = make_oracle(family, beta=beta)
        assert oracle_cdf(oracle, 1e6) == pytest.approx(1.0, abs=1e-9)
        assert oracle_cdf(oracle, -1e6) == pytest.approx(0.0, abs=1e-9)


def test_normalization_targets():
    targets = {
        "S_b1": 0.5,
        "Z_b1": 0.5,
        "P_b1": 0.5,
        "S_clt": 0.5,
        "Delta_b1": 1.0,
        "Theta_b1": 1.0,
    }
    for family, target in targets.items():
        beta = 4 if family == "S_clt" else 1
        oracle = make_oracle(family, beta=beta)
        assert oracle_normalization(oracle) == pytest.approx(target, abs=1e-9)


@pytest.mark.parametrize("family", ["Z_b1", "P_b1", "Delta_b1", "Theta_b1"])
def test_battery_integrates_the_served_density(monkeypatch, family):
    # a density that no longer integrates to 1 - atom must show in the
    # battery's rows, so the quadrature has to read the density pdf_eval serves
    oracle = make_oracle(family)
    norm, first = oracle_normalization(oracle), oracle_moment(oracle, 1)
    served = analytic._density
    monkeypatch.setattr(analytic, "_density", lambda o, x: 1.01 * served(o, x))
    assert pdf_eval(oracle, 1.0) == pytest.approx(1.01 * float(served(oracle, 1.0)))
    assert oracle_normalization(oracle) == pytest.approx(1.01 * norm, rel=1e-9)
    assert oracle_moment(oracle, 1) == pytest.approx(1.01 * first, rel=1e-9)


@pytest.mark.parametrize("family", FAMILIES)
def test_density_is_the_derivative_of_the_cdf(family):
    oracle = make_oracle(family, beta=4 if family == "S_clt" else 1)
    points = [0.3, 1.0, 2.5, 7.0]
    if oracle.support[0] < 0.0:
        points += [-0.7, -2.5]
    for x in points:
        h = 1e-5 * abs(x)
        slope = (oracle_cdf(oracle, x + h) - oracle_cdf(oracle, x - h)) / (2.0 * h)
        assert pdf_eval(oracle, x) == pytest.approx(slope, rel=1e-6), x


def test_moment_targets():
    cases = [
        ("S_b1", 1, 2, 1.0),
        ("S_b1", 1, 4, 6.0),
        ("Z_b1", 1, 1, 1.0),
        ("Z_b1", 1, 2, 6.0),
        ("P_b1", 1, 1, 6.0),
        ("S_clt", 4, 2, 4.0),
        ("S_clt", 4, 4, 192.0),
        ("S_clt", 25, 2, 25.0),
        ("S_clt", 25, 4, 7500.0),
        ("Delta_b1", 1, 1, 1.0),
        ("Delta_b1", 1, 2, 3.0),
        ("Theta_b1", 1, 1, 1.5),
    ]
    for family, beta, order, target in cases:
        oracle = make_oracle(family, beta=beta)
        got = oracle_moment(oracle, order)
        assert got == pytest.approx(target, rel=1e-9), (family, order)


def test_moment_order_validation():
    oracle = make_oracle("Z_b1")
    with pytest.raises(ValueError):
        oracle_moment(oracle, 0)
    with pytest.raises(ValueError):
        oracle_moment(oracle, -1)
    with pytest.raises(ValueError):
        oracle_moment(oracle, 1.5)
