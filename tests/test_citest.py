"""Independence tests: closed-form cases, oracles, symmetry, calibration."""

import math
import warnings

import numpy as np
import pytest
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import chdtrc, ndtr, ndtri

from envcausal import citest
from envcausal.citest import (
    FLAG_NUMERICAL_DEGENERACY,
    FLAG_ZERO_VARIANCE,
    MIN_UNITS,
    CITestResult,
    InsufficientSamples,
    RankScores,
    _mid_ranks,
    _residualize,
    _spline_basis,
    _spline_factor,
    conditional_independence_test,
    marginal_independence_test,
)
from envcausal.dgp import (
    CausalStructure,
    DGPConfig,
    VariabilityRegime,
    simulate_dataset,
    simulate_with_params,
)
from envcausal.discovery import discover_structure

# The conditional test's three forms: both moment pairs, the linear pair
# alone, the squares pair alone.
MOMENTS = {
    "gcm": {},
    "linear_only": {"linear_only": True},
    "squares_only": {"squares_only": True},
}


# ---------------------------------------------------------------------------
# Marginal test: exact cases and oracles.


def test_perfect_dependence_gives_vanishing_p():
    x = np.linspace(0.0, 1.0, 100)
    res = marginal_independence_test(x, x)
    assert res.p_value < 1e-12


def test_constant_input_reports_independence_with_flag():
    x = np.full(50, 3.0)
    y = np.arange(50.0)
    res = marginal_independence_test(x, y)
    assert res.p_value == 1.0
    assert FLAG_ZERO_VARIANCE in res.flags


def test_minimum_sample_counts():
    z20 = np.arange(20.0)
    for n in (19, 20):
        units = z20[:n, None] * [1.0, -1.0]  # the tests count units, not entries
        call = lambda: marginal_independence_test(units, units**2)
        call_c = lambda: conditional_independence_test(units, units**2, units % 3)
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


# ---------------------------------------------------------------------------
# Invariants.


def test_marginal_symmetry_is_exact():
    rng = np.random.default_rng(31)
    x = rng.standard_normal(60)
    y = 0.3 * x + rng.standard_normal(60)
    a = marginal_independence_test(x, y)
    b = marginal_independence_test(y, x)
    assert a.p_value == b.p_value
    assert a.statistic == b.statistic


@pytest.mark.parametrize("moments", list(MOMENTS))
def test_conditional_symmetry_is_exact(moments):
    rng = np.random.default_rng(32)
    z = rng.standard_normal(60)
    x = z + rng.standard_normal(60)
    y = z + rng.standard_normal(60)
    a = conditional_independence_test(x, y, z, **MOMENTS[moments])
    b = conditional_independence_test(y, x, z, **MOMENTS[moments])
    assert a.p_value == b.p_value


def test_gcm_sees_dependence_whose_sign_flips_between_units():
    # y = s * x + noise with a random sign s per unit: the correlation is
    # zero, the magnitudes are dependent.
    rng = np.random.default_rng(34)
    x = rng.standard_normal(500)
    y = rng.choice([-1.0, 1.0], 500) * x + 0.5 * rng.standard_normal(500)
    marginal = marginal_independence_test(x, y)
    assert chdtrc(1, marginal.components[0]) > 0.01  # the linear pair alone
    assert marginal.p_value < 1e-6
    z = rng.standard_normal(500)
    assert conditional_independence_test(x, y, z).p_value < 1e-6


def test_gcm_sums_replicates_within_a_unit():
    # Two columns per unit: p-values use one variance term per unit, and a
    # unit's columns may be dependent (here they are identical).
    rng = np.random.default_rng(35)
    x = rng.standard_normal(200)
    y = rng.standard_normal(200)
    twice = marginal_independence_test(np.c_[x, x], np.c_[y, y])
    once = marginal_independence_test(x, y)
    assert twice.n == once.n == 200
    assert twice.statistic == pytest.approx(once.statistic, rel=1e-9)
    with pytest.raises(ValueError, match="two-dimensional"):
        marginal_independence_test(np.c_[x, x][..., None], np.c_[y, y][..., None])


def test_gcm_components_separate_linear_from_sign_flipping_dependence():
    rng = np.random.default_rng(36)
    x = rng.standard_normal(500)
    noise = 0.5 * rng.standard_normal(500)
    shared = marginal_independence_test(x, x + noise)
    flipping = marginal_independence_test(
        x, rng.choice([-1.0, 1.0], 500) * x + noise
    )
    assert len(shared.components) == len(flipping.components) == 2
    assert shared.components[0] > 100.0 and flipping.components[0] < 10.0
    assert flipping.components[1] > 30.0
    z = rng.standard_normal(500)
    conditional = conditional_independence_test(x, x + noise, z)
    assert len(conditional.components) == 2 and conditional.components[0] > 100.0


def test_gcm_linear_only_keeps_one_symmetric_degree_of_freedom():
    rng = np.random.default_rng(37)
    z = rng.standard_normal(200)
    x = z + rng.standard_normal(200)
    y = z + 0.6 * x + rng.standard_normal(200)
    a = conditional_independence_test(x, y, z, linear_only=True)
    b = conditional_independence_test(y, x, z, linear_only=True)
    assert a.p_value == b.p_value and a.p_value < 1e-3
    assert len(a.components) == 1
    assert a.statistic == pytest.approx(a.components[0], rel=1e-12)
    assert a.p_value == pytest.approx(scipy.stats.chi2.sf(a.statistic, 1), rel=1e-12)
    # Sign-flipping dependence has no linear component to find.
    flip = rng.choice([-1.0, 1.0], 200) * x + 0.5 * rng.standard_normal(200)
    both = conditional_independence_test(x, flip, z)
    linear = conditional_independence_test(x, flip, z, linear_only=True)
    assert both.p_value < 1e-3 < linear.p_value


def test_gcm_linear_only_null_p_values_are_calibrated():
    # Laplace noise: the heavy tails the uniform scores are chosen for.
    rng = np.random.default_rng(125)
    p_values = []
    for _ in range(1000):
        z = rng.laplace(size=500)
        x = z + rng.laplace(size=500)
        y = np.abs(z) + rng.laplace(size=500)
        p_values.append(
            conditional_independence_test(x, y, z, linear_only=True).p_value
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
    a = conditional_independence_test(cause, other, z, squares_only=True)
    b = conditional_independence_test(other, cause, z, squares_only=True)
    assert a.p_value == b.p_value and a.statistic == b.statistic
    assert a.statistic < 0.0 and a.p_value < 1e-3
    assert a.p_value == pytest.approx(scipy.stats.norm.cdf(a.statistic), rel=1e-12)
    assert len(a.components) == 1
    assert a.components[0] == pytest.approx(a.statistic**2, rel=1e-12)
    # A shared scale makes the squares positively dependent: the two-sided
    # test rejects, the one-sided one does not.
    scale = np.exp(rng.standard_normal(n))
    u, v, w = scale * rng.laplace(size=n), scale * rng.laplace(size=n), rng.laplace(size=n)
    positive = conditional_independence_test(u, v, w, squares_only=True)
    assert positive.statistic > 0.0 and positive.p_value > 0.5
    assert conditional_independence_test(u, v, w).p_value < 1e-3
    with pytest.raises(ValueError, match="exclude"):
        conditional_independence_test(u, v, w, linear_only=True, squares_only=True)


def test_gcm_squares_only_null_p_values_are_calibrated():
    rng = np.random.default_rng(126)
    p_values = []
    for _ in range(1000):
        z = rng.laplace(size=500)
        x = z + rng.laplace(size=500)
        y = np.abs(z) + rng.laplace(size=500)
        p_values.append(
            conditional_independence_test(x, y, z, squares_only=True).p_value
        )
    assert scipy.stats.kstest(p_values, "uniform").statistic < 0.06


def test_gcm_ignores_monotone_reparameterization():
    # Both tests see their inputs through ranks alone.
    for seed in (33, 1, 2, 3):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal(80)
        y = 0.5 * x + rng.standard_normal(80)
        plain = marginal_independence_test(x, y)
        warped = marginal_independence_test(np.exp(x), y)
        assert plain.statistic == warped.statistic, seed
        assert plain.p_value == warped.p_value, seed
        z = rng.standard_normal(80)
        plain_c = conditional_independence_test(x, y, z)
        warped_c = conditional_independence_test(x**3, y, np.exp(z))
        assert plain_c.p_value == warped_c.p_value, seed


def test_gcm_null_p_values_are_calibrated():
    # The conditional test estimates its variance from heavy-tailed
    # products, so it is checked at the environment counts it is built
    # for; the marginal test's null-based variance holds at 60 samples.
    rng = np.random.default_rng(124)
    marginal, conditional = [], []
    for _ in range(1000):
        marginal.append(
            marginal_independence_test(rng.standard_normal(60), rng.standard_normal(60)).p_value
        )
        z = rng.standard_normal(500)
        x = z + rng.standard_normal(500)
        y = z**2 + rng.standard_normal(500)
        conditional.append(conditional_independence_test(x, y, z).p_value)
    assert scipy.stats.kstest(marginal, "uniform").statistic < 0.06
    assert scipy.stats.kstest(conditional, "uniform").statistic < 0.06


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
    assert marginal_independence_test(sx, sy).p_value == marginal_independence_test(x, y).p_value
    assert (
        conditional_independence_test(sx, sy, sz).p_value
        == conditional_independence_test(x, y, z).p_value
    )


@pytest.mark.parametrize("moments", list(MOMENTS))
def test_inputs_near_the_float_maximum_keep_their_p_values(moments):
    # Summing values near 1.7e308 overflows unless the inputs are scaled
    # first, and an overflowed mean turns into p = 0 or p = 1.
    x, y, z = np.random.default_rng(3).random((3, 200))
    big = 1.7e308
    kw = MOMENTS[moments]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        marginal = marginal_independence_test(big * x, big * y).p_value
        conditional = conditional_independence_test(big * x, big * y, big * z, **kw).p_value
    assert 0.0 < marginal <= 1.0 and 0.0 <= conditional <= 1.0
    assert marginal == pytest.approx(marginal_independence_test(x, y).p_value, rel=1e-9)
    assert conditional == pytest.approx(
        conditional_independence_test(x, y, z, **kw).p_value, rel=1e-9
    )


def test_result_type_rejects_out_of_range_p():
    with pytest.raises(ValueError):
        CITestResult(0.0, 1.5, 10)


# ---------------------------------------------------------------------------
# Scoring primitives against their scipy.stats reference.


def _same_bits(a, b) -> bool:
    a, b = np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def _tied_values(shape, distinct, seed):
    # Values drawn with replacement from a small pool force ties; the pool
    # holds both signed zeros, which compare equal and so share a rank.
    rng = np.random.default_rng(seed)
    pool = np.concatenate([[0.0, -0.0], rng.standard_normal(distinct)])
    return rng.choice(pool, size=shape)


SHAPES = st.one_of(
    st.tuples(st.integers(1, 2000)),
    st.tuples(st.integers(1, 1000), st.just(2)),
    st.tuples(st.integers(1, 50), st.integers(1, 40)),
)


@given(SHAPES, st.integers(1, 2000), st.integers(0, 2**32 - 1))
@settings(max_examples=200, deadline=None)
def test_mid_ranks_equal_scipy_rankdata_bit_for_bit(shape, distinct, seed):
    values = _tied_values(shape, distinct, seed)
    ranks, order = _mid_ranks(values)
    assert _same_bits(ranks, scipy.stats.rankdata(values.ravel()))
    assert np.all(np.diff(values.ravel()[order]) >= 0.0)


@given(st.integers(1, 2000), st.integers(1, 2000), st.integers(0, 2**32 - 1))
@settings(max_examples=100, deadline=None)
def test_normal_scores_equal_norm_ppf_bit_for_bit(n, distinct, seed):
    # Mid-ranks are half-integers in [1, n], so these are every quantile
    # level a score of n entries can take.
    levels = (np.arange(2, 2 * n + 1) / 2.0 - 0.5) / n
    assert _same_bits(ndtri(levels), scipy.stats.norm.ppf(levels))
    values = _tied_values(n, distinct, seed)
    scores = RankScores.of(values)
    levels = (scipy.stats.rankdata(values) - 0.5) / n
    assert _same_bits(scores.normal, scipy.stats.norm.ppf(levels))
    assert _same_bits(scores.uniform, math.sqrt(12.0) * (levels - 0.5))


@given(SHAPES, st.integers(1, 2000), st.integers(0, 2**32 - 1))
@settings(max_examples=100, deadline=None)
def test_rank_scores_of_a_reversed_view_equal_those_of_the_reversed_array(shape, distinct, seed):
    values = _tied_values(shape, distinct, seed)
    scores = RankScores.of(values)
    assert _same_bits(scores.sorted_normal, np.sort(scores.normal.ravel()))
    view, direct = scores.reversed(), RankScores.of(values[..., ::-1])
    for field in ("normal", "uniform", "sorted_normal"):
        assert _same_bits(getattr(view, field), getattr(direct, field)), field
    # Tied entries may take each other's places, so position is checked
    # through the scores it gathers.
    for held in (scores, view, direct):
        assert held.position.shape == values.shape
        assert np.array_equal(np.sort(held.position.ravel()), np.arange(values.size))
        assert _same_bits(held.sorted_normal[held.position], held.normal)


def test_rank_scores_are_checked_like_arrays():
    with pytest.raises(ValueError, match="^x contains non-finite values$"):
        RankScores.of([1.0, np.inf], "x")
    with pytest.raises(ValueError, match="^values must be one- or two-dimensional$"):
        RankScores.of(np.zeros((2, 2, 2)))
    # Rows without columns used to pass the sample minimum and then raise an IndexError.
    with pytest.raises(InsufficientSamples, match="^x has no entries$"):
        marginal_independence_test(np.zeros((25, 0)), np.zeros((25, 0)))
    with pytest.raises(InsufficientSamples, match="^z has no entries$"):
        RankScores.of([], "z")
    x = RankScores.of(np.arange(30.0))
    with pytest.raises(ValueError, match="equal length"):
        marginal_independence_test(x, np.arange(31.0))


def test_direct_p_value_functions_equal_scipy_stats_over_the_statistic_range():
    z = np.concatenate(
        [np.linspace(-40.0, 40.0, 20001), np.logspace(-300.0, 1.6, 400), [0.0, -0.0]]
    )
    z = np.concatenate([z, -z])
    assert _same_bits(ndtr(z), scipy.stats.norm.cdf(z))
    assert _same_bits(ndtr(-np.abs(z)), scipy.stats.norm.sf(np.abs(z)))
    wald = np.concatenate([[-1.0, -1e-300, 0.0], np.linspace(0.0, 2000.0, 20001)])
    for dof in (1, 2):
        assert _same_bits(
            chdtrc(dof, np.maximum(wald, 0.0)), scipy.stats.chi2.sf(wald, dof)
        )


# ---------------------------------------------------------------------------
# The least-squares residualizer against the Gram-Schmidt loop it replaced.


def _gram_schmidt_residuals(features, basis):
    """Modified Gram-Schmidt over the basis columns, skipping a column
    that the earlier ones already span."""
    residuals = features.copy()
    spanned = []
    for column in basis.T:
        q = column.copy()
        for prev in spanned:
            q -= prev * float(prev @ q)
        size = math.sqrt(float(q @ q))
        if size <= citest._DEGENERACY_EPS * math.sqrt(float(column @ column)):
            continue
        q /= size
        spanned.append(q)
        residuals -= np.outer(q, q @ residuals)
    return residuals


def _collapsed_noise_triple():
    # Collapsed effect noise and one decreasing mechanism: y is a fixed
    # function of x in every environment. The y_to_x test's arguments.
    e = 100
    cause = VariabilityRegime.CAUSE_VARIABILITY
    config = DGPConfig(e, cause, CausalStructure.Y_TO_X, collapse_noise=True)
    params = np.zeros((e, 4))
    params[:, 0] = np.linspace(-1.0, 1.0, e)
    params[:, 1:3] = 0.5, -0.8
    pairs = simulate_with_params(config, CausalStructure.Y_TO_X, params, seed=1).samples
    x1, y1 = pairs[..., 0], pairs[..., 1]
    return x1, y1[:, ::-1], y1


def _residualizer_cases():
    rng = np.random.default_rng(29)
    z = rng.standard_normal((400, 2))
    yield "random", (z + rng.standard_normal((400, 2)), z * z + rng.standard_normal((400, 2)), z)
    # Three values: knots coincide and the top knot's column is all zero.
    z = rng.integers(3, size=(400, 2)).astype(float)
    yield "three_valued", (z + rng.standard_normal((400, 2)), z - rng.standard_normal((400, 2)), z)
    yield "minimum", tuple(rng.standard_normal((3, 20, 2)))
    yield "collapsed_noise", _collapsed_noise_triple()


RESIDUALIZER_CASES = dict(_residualizer_cases())


def _input_order_basis(z):
    """The spline basis with a row per entry of z, in z's raveled order:
    each row is looked up by the entry's score, not by z.position."""
    rows = np.searchsorted(z.sorted_normal, z.normal.ravel())
    return _spline_basis(z.sorted_normal)[rows]


@pytest.mark.parametrize("case", list(RESIDUALIZER_CASES))
def test_least_squares_residuals_match_gram_schmidt(case, monkeypatch):
    x, y, z = RESIDUALIZER_CASES[case]
    z = RankScores.of(z)
    # As scored, and column-reversed as a decision's second samples are.
    for x, y, z in ((x, y, z), (x[..., ::-1], y[..., ::-1], z.reversed())):
        sa, sb = RankScores.of(x).normal.ravel(), RankScores.of(y).normal.ravel()
        features = np.stack([sa, sb, sa * sa, sb * sb], axis=1)
        basis = _input_order_basis(z)
        if case == "three_valued":
            assert not np.all(np.linalg.norm(basis, axis=0) > 0.0)
        reference = _gram_schmidt_residuals(features, basis)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            residuals = _residualize(features, z)
        np.testing.assert_allclose(residuals, reference, rtol=0.0, atol=1e-11)
        for moments in ({}, {"linear_only": True}, {"squares_only": True}):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                result = conditional_independence_test(x, y, z, **moments)
            with monkeypatch.context() as patch:
                patch.setattr(
                    citest,
                    "_residualize",
                    lambda f, scores: _gram_schmidt_residuals(f, _input_order_basis(scores)),
                )
                expected = conditional_independence_test(x, y, z, **moments)
            assert result.p_value == pytest.approx(expected.p_value, rel=0.0, abs=1e-11)
            assert result.flags == expected.flags


# ---------------------------------------------------------------------------
# The spline factor cache.


@pytest.mark.parametrize("n_envs, seed", [(100, 3), (300, 8)])
def test_decisions_from_a_cold_and_a_warm_factor_cache_are_identical(n_envs, seed):
    config = DGPConfig(n_envs, VariabilityRegime.MECHANISM_VARIABILITY, CausalStructure.X_TO_Y)
    samples = simulate_dataset(config, seed).samples
    _spline_factor.cache_clear()
    cold = discover_structure(samples)
    assert _spline_factor.cache_info().misses == 1  # both tests share the one factor
    warm = discover_structure(samples)
    assert _spline_factor.cache_info().misses == 1
    assert warm == cold
    _spline_factor.cache_clear()
    assert discover_structure(samples) == cold


def test_tied_and_tie_free_conditioners_of_one_size_get_their_own_factors():
    rng = np.random.default_rng(5)
    free = RankScores.of(rng.standard_normal(400))
    tied = RankScores.of(rng.integers(3, size=400).astype(float))
    _spline_factor.cache_clear()
    factors = [_spline_factor(z.sorted_normal.tobytes()) for z in (free, tied, free)]
    assert _spline_factor.cache_info().misses == 2
    assert factors[2] is factors[0]
    assert factors[1].shape[0] == factors[0].shape[0] == 400
    # Three values span three directions; the tie-free spline spans all 12.
    assert factors[1].shape[1] == 3 and factors[0].shape[1] == 12
    for q in factors[:2]:
        np.testing.assert_allclose(q.T @ q, np.eye(q.shape[1]), rtol=0.0, atol=1e-12)


def test_cached_factors_are_read_only():
    z = RankScores.of(np.random.default_rng(6).standard_normal((50, 2)))
    factor = _spline_factor(z.sorted_normal.tobytes())
    assert not factor.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        factor[0, 0] = 0.0


def test_factor_cache_keeps_its_size_after_more_sizes_than_it_holds():
    rng = np.random.default_rng(7)
    _spline_factor.cache_clear()
    for n in range(MIN_UNITS, MIN_UNITS + citest._FACTOR_CACHE_SIZE + 3):
        x, y, z = rng.standard_normal((3, n, 2))
        conditional_independence_test(x, y, z)
    info = _spline_factor.cache_info()
    assert info.misses == citest._FACTOR_CACHE_SIZE + 3
    assert info.currsize == info.maxsize == citest._FACTOR_CACHE_SIZE


# ---------------------------------------------------------------------------
# The pair-mask gcm core against the list-based one it replaced.


def _gcm_reference(a, b, z, linear_only=False, squares_only=False):
    """The gcm core as it was when it kept its moment pairs in a list of
    column pairs, one np.stack per pair side and a dict of components."""
    units = a.normal.shape[0]
    if a.constant or b.constant or (z is not None and z.constant):
        return CITestResult(0.0, 1.0, units, (FLAG_ZERO_VARIANCE,))
    if linear_only:
        features = np.stack([a.uniform.ravel(), b.uniform.ravel()], axis=1)
    else:
        sa, sb = a.normal.ravel(), b.normal.ravel()
        columns = [sa * sa, sb * sb] if squares_only else [sa, sb, sa * sa, sb * sb]
        features = np.stack(columns, axis=1)
    centered = features - features.mean(axis=0)
    if z is None:
        residuals = centered
    else:
        residuals = citest._residualize(features, z)
    kept = np.sum(residuals * residuals, axis=0) > citest._DEGENERACY_EPS * np.sum(
        centered * centered, axis=0
    )
    pairs = [(i, i + 1) for i in range(0, features.shape[1], 2) if kept[i] and kept[i + 1]]
    if not pairs:
        return CITestResult(0.0, 1.0, units, (FLAG_NUMERICAL_DEGENERACY,))
    ra = np.stack([residuals[:, i].reshape(units, -1) for i, _ in pairs])
    rb = np.stack([residuals[:, j].reshape(units, -1) for _, j in pairs])
    per_unit = np.sum(ra * rb, axis=2).T
    if z is None:
        cov_a = np.einsum("pur,qus->pqrs", ra, ra) / units
        cov_b = np.einsum("pur,qus->pqrs", rb, rb) / units
        variance = units * np.einsum("pqrs,pqrs->pq", cov_a, cov_b)
    else:
        variance = per_unit.T @ per_unit
    total = per_unit.sum(axis=0)
    by_pair = dict(zip(pairs, total * total / np.diag(variance)))
    components = tuple(
        float(by_pair.get((i, i + 1), 0.0)) for i in range(0, features.shape[1], 2)
    )
    if squares_only:
        if not variance[0, 0] > 0.0:
            return CITestResult(0.0, 1.0, units, (FLAG_NUMERICAL_DEGENERACY,))
        stat = float(total[0]) / math.sqrt(float(variance[0, 0]))
        p = float(ndtr(stat))
        return CITestResult(stat, min(1.0, p), units, components=components)
    try:
        stat = float(total @ np.linalg.solve(variance, total))
    except np.linalg.LinAlgError:
        return CITestResult(0.0, 1.0, units, (FLAG_NUMERICAL_DEGENERACY,))
    p = float(chdtrc(len(pairs), max(stat, 0.0)))
    return CITestResult(stat, min(1.0, p), units, components=components)


def _gcm_oracle_cases():
    rng = np.random.default_rng(37)
    x, e, z = rng.standard_normal((3, 300))
    yield "seeded_1d", (x, x + e, z)
    yield "seeded_1d_chain", (x, z + 0.3 * e, x + z)
    x, e, z = rng.standard_normal((3, 250, 2))
    yield "seeded_pairs", (x, np.sign(z) * x + e, z)
    yield "seeded_pairs_reversed", (x[:, ::-1], (x * z + e)[:, ::-1], z[:, ::-1])
    x, e, z = rng.standard_normal((3, 60, 9))
    yield "nine_replicates", (x, x * z + e, z)
    x, e, z = rng.standard_normal((3, 200, 2))
    yield "tied", (np.round(x, 1), np.round(x + e, 1), np.round(z, 1))
    yield "three_valued", (np.round(x), np.round(e), np.round(z))
    # x takes -2, -1, 1 and 2 equally often, so the squares of its scores
    # are a function of z = x * x and only the linear pair stays tested.
    x4 = rng.permutation(np.repeat([-2.0, -1.0, 1.0, 2.0], 50))
    yield "squares_explained", (x4, 0.3 * x4 + e[:, 0], x4 * x4)
    yield "constant_input", (np.full(200, 2.5), e[:, 0], z[:, 0])
    yield "conditioner_equals_input", (x, e, x)
    yield "collapsed_noise", _collapsed_noise_triple()
    samples = simulate_dataset(
        DGPConfig(300, VariabilityRegime.MECHANISM_VARIABILITY, CausalStructure.X_TO_Y), 4
    ).samples
    yield "simulated", (samples[..., 0], samples[..., 1][:, ::-1], samples[..., 1])


GCM_ORACLE_CASES = dict(_gcm_oracle_cases())


def _assert_same_result(result, expected):
    assert _same_bits(result.statistic, expected.statistic)
    assert _same_bits(result.p_value, expected.p_value)
    assert result.n == expected.n
    assert result.flags == expected.flags
    assert _same_bits(result.components, expected.components)
    assert all(type(c) is float for c in result.components)


@pytest.mark.parametrize("case", list(GCM_ORACLE_CASES))
def test_gcm_pair_mask_equals_the_list_based_core_bit_for_bit(case):
    x, y, z = (RankScores.of(v) for v in GCM_ORACLE_CASES[case])
    results = [(citest._gcm(x, y, None), _gcm_reference(x, y, None))]
    for moments in MOMENTS.values():
        results.append((citest._gcm(x, y, z, **moments), _gcm_reference(x, y, z, **moments)))
    for result, expected in results:
        _assert_same_result(result, expected)
    marginal, gcm, _, squares = (result for result, _ in results)
    if case == "squares_explained":
        assert gcm.components[0] > 0.0 and gcm.components[1] == 0.0
    if case == "constant_input":
        assert all(r.flags == (FLAG_ZERO_VARIANCE,) for r, _ in results)
    if case in ("squares_explained", "conditioner_equals_input"):
        assert squares.flags == (FLAG_NUMERICAL_DEGENERACY,)
    if case == "conditioner_equals_input":
        assert gcm.flags == (FLAG_NUMERICAL_DEGENERACY,) and marginal.flags == ()


def test_gcm_pair_mask_places_the_squares_component_after_a_dropped_linear_pair(monkeypatch):
    # No input at hand drops the linear pair and keeps the squares pair, so
    # a residualizer that zeroes the first column stands in for one.
    residualize = citest._residualize

    def drop_first_column(features, z):
        residuals = residualize(features, z)
        residuals[:, 0] = 0.0
        return residuals

    monkeypatch.setattr(citest, "_residualize", drop_first_column)
    x, y, z = (RankScores.of(v) for v in GCM_ORACLE_CASES["seeded_pairs"])
    result = citest._gcm(x, y, z)
    _assert_same_result(result, _gcm_reference(x, y, z))
    assert result.components[0] == 0.0 and result.components[1] > 0.0


# ---------------------------------------------------------------------------
# Exact symmetry in x and y: swapping them only swaps feature columns, so
# every call must give the same bits both ways round, whatever the thread
# count of the matrix products.

def _constant_column(v):
    """v with its first replicate column, or all of it when unreplicated, set to 1.5."""
    held = v.copy()
    held[..., 0] = 1.5
    return held if v.ndim == 2 else np.full_like(v, 1.5)


# How each input is altered after drawing: kept, rounded to one decimal,
# rounded to an integer (a few tied values), or held constant in part.
_ALTERATIONS = {
    "kept": lambda v: v,
    "rounded": lambda v: np.round(v, 1),
    "tied": np.round,
    "constant": _constant_column,
}


@given(
    st.integers(MIN_UNITS, 2000),
    st.integers(1, 3),
    st.sampled_from([0.0, 0.4, -1.0]),
    st.tuples(*[st.sampled_from(list(_ALTERATIONS))] * 3),
    st.integers(0, 2**32 - 1),
)
@settings(max_examples=150, deadline=None)
def test_swapping_x_and_y_gives_the_same_bits(units, replicates, coupling, alterations, seed):
    # A coupling of -1 draws its sign per unit: the dependence then sits
    # in the squares pair alone.
    rng = np.random.default_rng(seed)
    shape = (units,) if replicates == 1 else (units, replicates)
    z, e, f = rng.standard_normal((3, *shape))
    sign = rng.choice([-1.0, 1.0], size=(units,) + (1,) * (len(shape) - 1))
    x = z + e
    y = (sign if coupling < 0 else coupling) * x + 0.5 * z + f
    x, y, z = (_ALTERATIONS[kind](v) for kind, v in zip(alterations, (x, y, z)))
    _assert_same_result(marginal_independence_test(x, y), marginal_independence_test(y, x))
    for moments in MOMENTS.values():
        _assert_same_result(
            conditional_independence_test(x, y, z, **moments),
            conditional_independence_test(y, x, z, **moments),
        )
