import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from ks_reference import ks_reference

from chaoswpt.analytic import make_oracle
from chaoswpt.distcheck import (
    DEFAULT_BATTERY,
    expected_moments,
    ks_statistic,
    sample_family,
    verify_distributions,
    verify_family,
)


def test_expected_moment_table():
    assert expected_moments("S_b1") == [(2, 1.0), (4, 6.0)]
    assert expected_moments("Z_b1") == [(1, 1.0), (2, 6.0)]
    assert expected_moments("P_b1") == [(1, 6.0)]
    assert expected_moments("S_clt", beta=4) == [(2, 4.0), (4, 192.0)]
    assert expected_moments("Delta_b1") == [(1, 1.0), (2, 3.0)]
    assert expected_moments("Theta_b1") == [(1, 1.5)]


def test_sample_family_shapes_and_determinism():
    a = sample_family("Z_b1", 500, np.random.default_rng(5))
    b = sample_family("Z_b1", 500, np.random.default_rng(5))
    np.testing.assert_array_equal(a, b)
    # only the d = +1 symbols are drawn, roughly half of them; the erased
    # rest are the zero atom, which the array does not hold
    assert a.ndim == 1
    assert 200 < a.size < 300
    assert np.all(a > 0)
    assert sample_family("Delta_b1", 500, np.random.default_rng(5)).shape == (500,)


def test_sample_family_validation():
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError):
        sample_family("S_clt", 10, rng)  # beta required
    with pytest.raises(ValueError):
        sample_family("Z_b1", 10, rng, beta=5)
    with pytest.raises(ValueError):
        sample_family("nonsense", 10, rng)
    with pytest.raises(ValueError):
        sample_family("Z_b1", 0, rng)


def test_ks_statistic_against_matching_oracle():
    rng = np.random.default_rng(42)
    samples = sample_family("Delta_b1", 100_000, rng)
    assert ks_statistic(samples, make_oracle("Delta_b1")) < 0.01


def test_ks_statistic_flags_wrong_family():
    rng = np.random.default_rng(42)
    samples = sample_family("Delta_b1", 50_000, rng)
    assert ks_statistic(samples, make_oracle("Theta_b1")) > 0.05


def test_ks_statistic_handles_zero_atom():
    rng = np.random.default_rng(7)
    samples = sample_family("S_b1", 100_000, rng)
    # half the mass sits exactly at 0, counted from n; a correct two-sided KS
    # still stays small
    assert ks_statistic(samples, make_oracle("S_b1"), 100_000) < 0.01
    # without the erased symbols the atom is missing, and the distance shows it
    assert ks_statistic(samples, make_oracle("S_b1")) > 0.2


def test_ks_statistic_rejects_fewer_symbols_than_samples():
    samples = np.array([0.5, -1.0, 2.0])
    with pytest.raises(ValueError, match="^n must be at least the 3 samples given, got 2"):
        ks_statistic(samples, make_oracle("S_b1"), 2)
    with pytest.raises(ValueError, match="^n must be >= 1"):
        ks_statistic(np.empty(0), make_oracle("S_b1"))
    with pytest.raises(ValueError, match="^samples must be a 1-D array"):
        ks_statistic(np.ones((2, 2)), make_oracle("S_b1"), 4)


_VALUES = st.one_of(st.floats(-50.0, 50.0, allow_nan=False),
                    st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, 4.0]))


@settings(max_examples=300)
@given(family=st.sampled_from(DEFAULT_BATTERY),
       values=st.lists(_VALUES, max_size=40), erased=st.integers(0, 20))
def test_ks_statistic_matches_the_distinct_value_form(family, values, erased):
    # every battery oracle, atom or not, on arrays with and without zeros and
    # negatives; the erased symbols are zeros given as a count to
    # ks_statistic and in the array to the reference
    n = len(values) + erased
    if n == 0:
        return
    oracle = make_oracle(family[0], beta=family[1])
    expected = ks_reference(np.array(values + [0.0] * erased), oracle)
    counted = ks_statistic(np.array(values), oracle, n)
    held = ks_statistic(np.array(values + [0.0] * erased), oracle)
    assert counted == held
    nonzero = [v for v in values if v != 0.0]
    if len(set(nonzero)) == len(nonzero):
        assert counted == expected
    else:
        assert abs(counted - expected) <= 4 * math.ulp(1.0)


@pytest.mark.parametrize("n_samples", [1, 2])
def test_battery_with_no_or_only_off_atom_draws(n_samples):
    # at n = 1 or 2 an atom family draws k = 0 off-atom samples at some
    # seeds and k = n at others; every report stays finite either way
    sizes = set()
    for seed in range(4):
        reports = verify_distributions(n_samples=n_samples, seed=seed)
        for i, ((family, beta), report) in enumerate(zip(DEFAULT_BATTERY, reports)):
            assert report.n_samples == n_samples
            assert all(math.isfinite(getattr(report, name)) for name in (
                "atom_mass", "norm_integral", "norm_target", "norm_abs_err",
                "max_moment_rel_err", "ks_stat"))
            if report.atom_mass:
                sizes.add(sample_family(family, n_samples, np.random.default_rng((seed, i)),
                                        beta=beta).size)
    assert sizes == {0, n_samples} | ({1} if n_samples == 2 else set())


def test_verify_family_report_fields():
    report = verify_family("Z_b1", n_samples=50_000, rng=np.random.default_rng(3))
    assert report.family == "Z_b1"
    assert report.norm_target == 0.5
    assert report.atom_mass == 0.5
    assert report.n_samples == 50_000
    assert report.norm_abs_err < 1e-9
    assert report.max_moment_rel_err < 1e-6
    assert report.passed()


def test_default_battery_covers_all_families():
    families = [row[0] for row in DEFAULT_BATTERY]
    assert families == ["S_b1", "Z_b1", "P_b1", "S_clt", "S_clt",
                        "Delta_b1", "Theta_b1"]
    betas = [row[1] for row in DEFAULT_BATTERY]
    assert betas[3:5] == [4, 25]


def test_verify_distributions_small_run():
    reports = verify_distributions(n_samples=100_000, seed=1)
    assert len(reports) == 7
    for report in reports:
        assert report.norm_abs_err < 1e-6
        assert report.max_moment_rel_err < 1e-5
        assert report.ks_stat < 0.02  # loose at this sample size
        assert report.passed()


def test_fourth_powers_square_the_second_powers_bit_for_bit():
    # each pair draws the same chain at the same seed, so P_b1 = Z_b1^2 and
    # Theta_b1 = Delta_b1^2 / 2 must hold exactly, not to a tolerance
    def draw(family):
        return sample_family(family, 20_000, np.random.default_rng(11))

    z, delta = draw("Z_b1"), draw("Delta_b1")
    assert np.array_equal(draw("P_b1"), z * z)
    assert np.array_equal(draw("Theta_b1"), delta * delta / 2.0)


#: the battery's KS distances at n = 20,000 and seed 0, bit for bit; the
#: last bits of P_b1 and Theta_b1 samples may move, these may not
_PINNED_KS = [
    ("S_b1", 1, "0x1.d26ef9bb64280p-8"),
    ("Z_b1", 1, "0x1.425cca7ef9680p-8"),
    ("P_b1", 1, "0x1.27360294e4800p-8"),
    ("S_clt", 4, "0x1.d13cd8cfafcc0p-9"),
    ("S_clt", 25, "0x1.14855672e6b20p-8"),
    ("Delta_b1", 1, "0x1.f9b646516cd80p-8"),
    ("Theta_b1", 1, "0x1.1601ec72dc220p-7"),
]


def test_battery_ks_distances_are_pinned():
    got = [(r.family, r.beta, r.ks_stat.hex())
           for r in verify_distributions(n_samples=20_000, seed=0)]
    assert got == _PINNED_KS
