"""Independence tests: closed-form cases, oracles, symmetry, calibration."""

import warnings

import numpy as np
import pytest
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st

from envcausal.citest import (
    FLAG_NUMERICAL_DEGENERACY,
    FLAG_ZERO_VARIANCE,
    CITestResult,
    InsufficientSamples,
    TestMethod,
    conditional_independence_test,
    marginal_independence_test,
)

PARAMETRIC = [TestMethod.FISHER_Z, TestMethod.SPEARMAN_Z]
ALL_METHODS = list(TestMethod)


# ---------------------------------------------------------------------------
# Marginal test: exact cases and oracles.


def test_perfect_dependence_gives_vanishing_p():
    x = np.linspace(0.0, 1.0, 100)
    res = marginal_independence_test(x, x)
    assert res.p_value < 1e-12


def test_constant_input_reports_independence_with_flag():
    x = np.full(50, 3.0)
    y = np.arange(50.0)
    for method in ALL_METHODS:
        res = marginal_independence_test(x, y, method)
        assert res.p_value == 1.0
        assert FLAG_ZERO_VARIANCE in res.flags


def test_fisher_p_tracks_a_large_permutation_oracle():
    rng = np.random.default_rng(4242)
    x = rng.standard_normal(1000)
    y = rng.standard_normal(1000)
    fisher_p = marginal_independence_test(x, y).p_value

    xc = x - x.mean()
    yc = y - y.mean()
    denom = np.sqrt((xc * xc).sum() * (yc * yc).sum())
    observed = abs(float(np.dot(xc, yc)) / denom)
    n_shuffles = 100_000
    exceed = 0
    done = 0
    prng = np.random.default_rng(0)
    while done < n_shuffles:
        batch = min(2000, n_shuffles - done)
        perms = np.argsort(prng.random((batch, x.size)), axis=1)
        r_values = (yc[perms] @ xc) / denom
        exceed += int(np.sum(np.abs(r_values) >= observed))
        done += batch
    oracle_p = (exceed + 1) / (n_shuffles + 1)
    assert fisher_p == pytest.approx(oracle_p, abs=0.02)


def test_marginal_statistic_matches_textbook_formula():
    rng = np.random.default_rng(8)
    x = rng.standard_normal(120)
    y = 0.4 * x + rng.standard_normal(120)
    res = marginal_independence_test(x, y)
    r = np.corrcoef(x, y)[0, 1]
    expected = np.sqrt(120 - 3) * np.arctanh(r)
    assert res.statistic == pytest.approx(expected, rel=1e-10)
    assert res.p_value == pytest.approx(2 * scipy.stats.norm.sf(abs(expected)), rel=1e-10)
    assert res.n == 120
    assert res.n_permutations == 0


def test_minimum_sample_counts():
    ok8 = np.arange(8.0)
    with pytest.raises(InsufficientSamples):
        marginal_independence_test(ok8[:7], ok8[:7])
    marginal_independence_test(ok8, ok8[::-1])
    with pytest.raises(InsufficientSamples):
        marginal_independence_test(
            np.arange(19.0), np.arange(19.0), TestMethod.RESIDUAL_PERMUTATION
        )
    z10 = np.arange(10.0)
    with pytest.raises(InsufficientSamples):
        conditional_independence_test(z10[:9], z10[:9], z10[:9])
    conditional_independence_test(z10, z10[::-1], z10 * 2 % 3)
    with pytest.raises(InsufficientSamples):
        conditional_independence_test(
            np.arange(29.0), np.arange(29.0), np.arange(29.0), TestMethod.RESIDUAL_PERMUTATION
        )
    z20 = np.arange(20.0)
    for n in (19, 20):
        units = z20[:n, None] * [1.0, -1.0]  # the gcm counts units, not entries
        call = lambda: marginal_independence_test(units, units**2, TestMethod.GCM)
        call_c = lambda: conditional_independence_test(
            units, units**2, units % 3, TestMethod.GCM
        )
        if n < 20:
            pytest.raises(InsufficientSamples, call)
            pytest.raises(InsufficientSamples, call_c)
        else:
            call()
            call_c()


def test_length_mismatch_rejected():
    with pytest.raises(ValueError, match="equal length"):
        marginal_independence_test(np.arange(10.0), np.arange(11.0))


def test_non_finite_rejected():
    x = np.arange(10.0)
    bad = x.copy()
    bad[3] = np.nan
    with pytest.raises(ValueError, match="non-finite"):
        marginal_independence_test(x, bad)


# ---------------------------------------------------------------------------
# Conditional test.


def test_common_cause_null_keeps_p_high():
    kept = 0
    for s in range(100):
        rng = np.random.default_rng(3000 + s)
        z = rng.standard_normal(2000)
        x = z + rng.standard_normal(2000)
        y = z + rng.standard_normal(2000)
        kept += conditional_independence_test(x, y, z).p_value > 0.01
    assert kept >= 95


def test_chain_alternative_drives_p_down():
    rejected = 0
    for s in range(100):
        rng = np.random.default_rng(5000 + s)
        z = rng.standard_normal(2000)
        x = z + rng.standard_normal(2000)
        y = x + rng.standard_normal(2000)
        rejected += conditional_independence_test(x, y, z).p_value < 0.01
    assert rejected >= 95


def test_identical_pair_conditioned_on_noise():
    rng = np.random.default_rng(12)
    x = rng.standard_normal(200)
    z = rng.standard_normal(200)
    res = conditional_independence_test(x, x, z)
    assert res.p_value < 1e-10


def test_conditioner_equal_to_input_flags_degeneracy():
    rng = np.random.default_rng(13)
    x = rng.standard_normal(100)
    y = rng.standard_normal(100)
    res = conditional_independence_test(x, y, x)
    assert res.p_value == 1.0
    assert FLAG_NUMERICAL_DEGENERACY in res.flags


def test_constant_conditioner_flags_zero_variance():
    rng = np.random.default_rng(14)
    res = conditional_independence_test(
        rng.standard_normal(50), rng.standard_normal(50), np.zeros(50)
    )
    assert res.p_value == 1.0
    assert FLAG_ZERO_VARIANCE in res.flags


def test_conditional_statistic_matches_partial_correlation_formula():
    rng = np.random.default_rng(15)
    z = rng.standard_normal(300)
    x = z + rng.standard_normal(300)
    y = z + rng.standard_normal(300)
    res = conditional_independence_test(x, y, z)
    r_xy = np.corrcoef(x, y)[0, 1]
    r_xz = np.corrcoef(x, z)[0, 1]
    r_yz = np.corrcoef(y, z)[0, 1]
    partial = (r_xy - r_xz * r_yz) / np.sqrt((1 - r_xz**2) * (1 - r_yz**2))
    expected = np.sqrt(300 - 4) * np.arctanh(partial)
    assert res.statistic == pytest.approx(expected, rel=1e-9)


# ---------------------------------------------------------------------------
# Permutation method.


def test_residual_perm_marginal_null_and_power():
    high_under_null = 0
    low_under_dependence = 0
    for s in range(20):
        rng = np.random.default_rng(1000 + s)
        x = rng.standard_normal(100)
        y = rng.standard_normal(100)
        p_null = marginal_independence_test(
            x, y, TestMethod.RESIDUAL_PERMUTATION, seed=s
        ).p_value
        high_under_null += p_null > 0.01
        y_dep = x + 0.5 * rng.standard_normal(100)
        p_dep = marginal_independence_test(
            x, y_dep, TestMethod.RESIDUAL_PERMUTATION, seed=s
        ).p_value
        low_under_dependence += p_dep <= 0.01
    assert high_under_null >= 17
    assert low_under_dependence >= 17


def test_residual_perm_conditional_null_and_power():
    high_under_null = 0
    low_under_chain = 0
    for s in range(20):
        rng = np.random.default_rng(2000 + s)
        z = rng.standard_normal(100)
        x = z + rng.standard_normal(100)
        y = z + rng.standard_normal(100)
        p_null = conditional_independence_test(
            x, y, z, TestMethod.RESIDUAL_PERMUTATION, seed=s
        ).p_value
        high_under_null += p_null > 0.01
        y_chain = x + rng.standard_normal(100)
        p_chain = conditional_independence_test(
            x, y_chain, z, TestMethod.RESIDUAL_PERMUTATION, seed=s
        ).p_value
        low_under_chain += p_chain <= 0.01
    assert high_under_null >= 17
    assert low_under_chain >= 17


def test_permutation_p_uses_add_one_estimator():
    rng = np.random.default_rng(21)
    x = rng.standard_normal(60)
    res = marginal_independence_test(
        x, x + 0.01 * rng.standard_normal(60), TestMethod.RESIDUAL_PERMUTATION, seed=1
    )
    assert res.p_value == pytest.approx(1 / 201)
    assert res.n_permutations == 200
    assert 0.0 < res.p_value <= 1.0


def test_permutation_seed_and_count_are_respected():
    rng = np.random.default_rng(22)
    x = rng.standard_normal(40)
    y = rng.standard_normal(40)
    a = marginal_independence_test(x, y, TestMethod.RESIDUAL_PERMUTATION, seed=3)
    b = marginal_independence_test(x, y, TestMethod.RESIDUAL_PERMUTATION, seed=3)
    assert a == b
    c = marginal_independence_test(
        x, y, TestMethod.RESIDUAL_PERMUTATION, n_permutations=400, seed=3
    )
    assert c.n_permutations == 400


# ---------------------------------------------------------------------------
# Invariants.


@pytest.mark.parametrize("method", ALL_METHODS)
def test_marginal_symmetry_is_exact(method):
    rng = np.random.default_rng(31)
    x = rng.standard_normal(60)
    y = 0.3 * x + rng.standard_normal(60)
    a = marginal_independence_test(x, y, method, seed=5)
    b = marginal_independence_test(y, x, method, seed=5)
    assert a.p_value == b.p_value
    assert a.statistic == b.statistic


@pytest.mark.parametrize("method", ALL_METHODS)
def test_conditional_symmetry_is_exact(method):
    rng = np.random.default_rng(32)
    z = rng.standard_normal(60)
    x = z + rng.standard_normal(60)
    y = z + rng.standard_normal(60)
    a = conditional_independence_test(x, y, z, method, seed=5)
    b = conditional_independence_test(y, x, z, method, seed=5)
    assert a.p_value == b.p_value


def test_gcm_sees_dependence_whose_sign_flips_between_units():
    # y = s * x + noise with a random sign s per unit: the correlation is
    # zero, the magnitudes are dependent.
    rng = np.random.default_rng(34)
    x = rng.standard_normal(500)
    y = rng.choice([-1.0, 1.0], 500) * x + 0.5 * rng.standard_normal(500)
    assert marginal_independence_test(x, y).p_value > 0.01
    assert marginal_independence_test(x, y, TestMethod.GCM).p_value < 1e-6
    z = rng.standard_normal(500)
    assert conditional_independence_test(x, y, z, TestMethod.GCM).p_value < 1e-6


def test_gcm_sums_replicates_within_a_unit():
    # Two columns per unit: p-values use one variance term per unit, and a
    # unit's columns may be dependent (here they are identical).
    rng = np.random.default_rng(35)
    x = rng.standard_normal(200)
    y = rng.standard_normal(200)
    twice = marginal_independence_test(np.c_[x, x], np.c_[y, y], TestMethod.GCM)
    once = marginal_independence_test(x, y, TestMethod.GCM)
    assert twice.n == once.n == 200
    assert twice.statistic == pytest.approx(once.statistic, rel=1e-9)
    with pytest.raises(ValueError, match="one-dimensional"):
        marginal_independence_test(np.c_[x, x], np.c_[y, y])


def test_gcm_components_separate_linear_from_sign_flipping_dependence():
    rng = np.random.default_rng(36)
    x = rng.standard_normal(500)
    noise = 0.5 * rng.standard_normal(500)
    shared = marginal_independence_test(x, x + noise, TestMethod.GCM)
    flipping = marginal_independence_test(
        x, rng.choice([-1.0, 1.0], 500) * x + noise, TestMethod.GCM
    )
    assert len(shared.components) == len(flipping.components) == 2
    assert shared.components[0] > 100.0 and flipping.components[0] < 10.0
    assert flipping.components[1] > 30.0
    z = rng.standard_normal(500)
    conditional = conditional_independence_test(x, x + noise, z, TestMethod.GCM)
    assert len(conditional.components) == 2 and conditional.components[0] > 100.0


def test_gcm_linear_only_keeps_one_symmetric_degree_of_freedom():
    rng = np.random.default_rng(37)
    z = rng.standard_normal(200)
    x = z + rng.standard_normal(200)
    y = z + 0.6 * x + rng.standard_normal(200)
    a = conditional_independence_test(x, y, z, TestMethod.GCM, linear_only=True)
    b = conditional_independence_test(y, x, z, TestMethod.GCM, linear_only=True)
    assert a.p_value == b.p_value and a.p_value < 1e-3
    assert len(a.components) == 1
    assert a.statistic == pytest.approx(a.components[0], rel=1e-12)
    assert a.p_value == pytest.approx(scipy.stats.chi2.sf(a.statistic, 1), rel=1e-12)
    # Sign-flipping dependence has no linear component to find.
    flip = rng.choice([-1.0, 1.0], 200) * x + 0.5 * rng.standard_normal(200)
    both = conditional_independence_test(x, flip, z, TestMethod.GCM)
    linear = conditional_independence_test(x, flip, z, TestMethod.GCM, linear_only=True)
    assert both.p_value < 1e-3 < linear.p_value
    with pytest.raises(ValueError, match="gcm"):
        conditional_independence_test(x, y, z, TestMethod.FISHER_Z, linear_only=True)


def test_gcm_linear_only_null_p_values_are_calibrated():
    # Laplace noise: the heavy tails the uniform scores are chosen for.
    rng = np.random.default_rng(125)
    p_values = []
    for _ in range(1000):
        z = rng.laplace(size=500)
        x = z + rng.laplace(size=500)
        y = np.abs(z) + rng.laplace(size=500)
        p_values.append(
            conditional_independence_test(x, y, z, TestMethod.GCM, linear_only=True).p_value
        )
    assert scipy.stats.kstest(p_values, "uniform").statistic < 0.06


def test_gcm_squares_only_rejects_the_explaining_away_sign_alone():
    rng = np.random.default_rng(38)
    n = 1000
    # z is a common effect of the cause and a per-unit gain of either sign;
    # given z, a large |cause| means a small |gain|, hence a small |other|.
    gain = rng.choice([-1.0, 1.0], n) * rng.uniform(0.5, 2.0, n)
    cause = rng.laplace(size=n)
    z = gain * cause + 0.5 * rng.laplace(size=n)
    other = gain * rng.laplace(size=n) + 0.5 * rng.laplace(size=n)
    a = conditional_independence_test(cause, other, z, TestMethod.GCM, squares_only=True)
    b = conditional_independence_test(other, cause, z, TestMethod.GCM, squares_only=True)
    assert a.p_value == b.p_value and a.statistic == b.statistic
    assert a.statistic < 0.0 and a.p_value < 1e-3
    assert a.p_value == pytest.approx(scipy.stats.norm.cdf(a.statistic), rel=1e-12)
    assert len(a.components) == 1
    assert a.components[0] == pytest.approx(a.statistic**2, rel=1e-12)
    # A shared scale makes the squares positively dependent: the two-sided
    # test rejects, the one-sided one does not.
    scale = np.exp(rng.standard_normal(n))
    u, v, w = scale * rng.laplace(size=n), scale * rng.laplace(size=n), rng.laplace(size=n)
    positive = conditional_independence_test(u, v, w, TestMethod.GCM, squares_only=True)
    assert positive.statistic > 0.0 and positive.p_value > 0.5
    assert conditional_independence_test(u, v, w, TestMethod.GCM).p_value < 1e-3
    with pytest.raises(ValueError, match="gcm"):
        conditional_independence_test(u, v, w, TestMethod.FISHER_Z, squares_only=True)
    with pytest.raises(ValueError, match="exclude"):
        conditional_independence_test(
            u, v, w, TestMethod.GCM, linear_only=True, squares_only=True
        )


def test_gcm_squares_only_null_p_values_are_calibrated():
    rng = np.random.default_rng(126)
    p_values = []
    for _ in range(1000):
        z = rng.laplace(size=500)
        x = z + rng.laplace(size=500)
        y = np.abs(z) + rng.laplace(size=500)
        p_values.append(
            conditional_independence_test(x, y, z, TestMethod.GCM, squares_only=True).p_value
        )
    assert scipy.stats.kstest(p_values, "uniform").statistic < 0.06


def test_spearman_ignores_monotone_reparameterization():
    rng = np.random.default_rng(33)
    x = rng.standard_normal(80)
    y = 0.5 * x + rng.standard_normal(80)
    plain = marginal_independence_test(x, y, TestMethod.SPEARMAN_Z)
    warped = marginal_independence_test(np.exp(x), y, TestMethod.SPEARMAN_Z)
    assert plain.statistic == warped.statistic
    assert plain.p_value == warped.p_value
    z = rng.standard_normal(80)
    plain_c = conditional_independence_test(x, y, z, TestMethod.SPEARMAN_Z)
    warped_c = conditional_independence_test(x**3, y, z, TestMethod.SPEARMAN_Z)
    assert plain_c.p_value == warped_c.p_value


def test_fisher_null_p_values_are_calibrated():
    rng = np.random.default_rng(123)
    p_values = []
    for _ in range(1000):
        x = rng.standard_normal(60)
        y = rng.standard_normal(60)
        p_values.append(marginal_independence_test(x, y).p_value)
    ks = scipy.stats.kstest(p_values, "uniform").statistic
    assert ks < 0.06


def test_gcm_null_p_values_are_calibrated():
    # The conditional test estimates its variance from heavy-tailed
    # products, so it is checked at the environment counts it is built
    # for; the marginal test's null-based variance holds at 60 samples.
    rng = np.random.default_rng(124)
    marginal, conditional = [], []
    for _ in range(1000):
        marginal.append(
            marginal_independence_test(
                rng.standard_normal(60), rng.standard_normal(60), TestMethod.GCM
            ).p_value
        )
        z = rng.standard_normal(500)
        x = z + rng.standard_normal(500)
        y = z**2 + rng.standard_normal(500)
        conditional.append(conditional_independence_test(x, y, z, TestMethod.GCM).p_value)
    assert scipy.stats.kstest(marginal, "uniform").statistic < 0.06
    assert scipy.stats.kstest(conditional, "uniform").statistic < 0.06


@given(
    st.lists(
        st.tuples(
            st.floats(-1e6, 1e6, allow_nan=False, width=64),
            st.floats(-1e6, 1e6, allow_nan=False, width=64),
        ),
        min_size=8,
        max_size=40,
    )
)
@settings(max_examples=150, deadline=None)
def test_parametric_p_in_unit_interval_and_symmetric(pairs):
    x = np.array([a for a, _ in pairs])
    y = np.array([b for _, b in pairs])
    for method in PARAMETRIC:
        res = marginal_independence_test(x, y, method)
        mirrored = marginal_independence_test(y, x, method)
        assert 0.0 <= res.p_value <= 1.0
        assert res.p_value == mirrored.p_value


@given(
    st.integers(0, 2**32 - 1),
    st.integers(40, 80),
    st.integers(-700, 700),
    st.integers(-700, 700),
    st.integers(-700, 700),
)
@settings(max_examples=30, deadline=None)
def test_p_values_are_exactly_invariant_to_power_of_two_scales(seed, n, ka, kb, kc):
    # Scaling by 2^k is exact in floating point, so every test must return
    # the very same p-value, even where products of the raw inputs would
    # under- or overflow.
    rng = np.random.default_rng(seed)
    x, y, z = rng.standard_normal((3, n))
    sx, sy, sz = np.ldexp(x, ka), np.ldexp(y, kb), np.ldexp(z, kc)
    for method in ALL_METHODS:
        kw = {"n_permutations": 99, "seed": seed}
        assert (
            marginal_independence_test(sx, sy, method, **kw).p_value
            == marginal_independence_test(x, y, method, **kw).p_value
        ), method
        assert (
            conditional_independence_test(sx, sy, sz, method, **kw).p_value
            == conditional_independence_test(x, y, z, method, **kw).p_value
        ), method


@given(
    st.integers(0, 2**32 - 1),
    st.integers(40, 80),
    *[st.floats(-150.0, 150.0).map(lambda k: 10.0**k)] * 3,
)
@settings(max_examples=40, deadline=None)
def test_parametric_p_values_are_invariant_to_positive_scales(seed, n, a, b, c):
    rng = np.random.default_rng(seed)
    x, y, z = rng.standard_normal((3, n))
    for method in PARAMETRIC:
        assert marginal_independence_test(a * x, b * y, method).p_value == pytest.approx(
            marginal_independence_test(x, y, method).p_value, rel=1e-9
        ), method
        assert conditional_independence_test(a * x, b * y, c * z, method).p_value == pytest.approx(
            conditional_independence_test(x, y, z, method).p_value, rel=1e-9
        ), method


@pytest.mark.parametrize("method", ALL_METHODS)
def test_inputs_near_the_float_maximum_keep_their_p_values(method):
    # Summing values near 1.7e308 overflows unless the inputs are scaled
    # first, and an overflowed mean turns into p = 0 or p = 1.
    x, y, z = np.random.default_rng(3).random((3, 200))
    big = 1.7e308
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        marginal = marginal_independence_test(big * x, big * y, method).p_value
        conditional = conditional_independence_test(big * x, big * y, big * z, method).p_value
    assert 0.0 < marginal <= 1.0 and 0.0 <= conditional <= 1.0
    assert marginal == pytest.approx(marginal_independence_test(x, y, method).p_value, rel=1e-9)
    assert conditional == pytest.approx(
        conditional_independence_test(x, y, z, method).p_value, rel=1e-9
    )


def test_result_type_rejects_out_of_range_p():
    with pytest.raises(ValueError):
        CITestResult(0.0, 1.5, TestMethod.FISHER_Z, 10)
