"""Equivalence of the two sampling pipelines and the two-sample backends."""

from dataclasses import replace

import numpy as np
import pytest
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st

from envcausal.citest import InsufficientSamples
from envcausal.duality import (
    DimensionMismatch,
    DualityConfig,
    FamilyMismatch,
    MixingKind,
    MixingSpec,
    SourceFamily,
    TwoSampleMethod,
    build_elementwise_transport,
    generate_cause_variability_samples,
    generate_mechanism_variability_samples,
    source_quantiles,
    two_sample_test,
    verify_duality,
)
from envcausal.variability import DensityFamily
from envcausal._streams import ROLE_MIXING, ROLE_PERMUTATION, open_uniform, substream

G = DensityFamily.GAUSSIAN
L = DensityFamily.LAPLACE
TRI = MixingKind.TRIANGULAR_AFFINE_TANH


def _g(locs, scales):
    return SourceFamily(G, tuple(locs), tuple(scales))


# ---------------------------------------------------------------------------
# Transport.


def test_transport_to_itself_is_identity():
    fam = _g([0.7, -0.3], [1.4, 0.2])
    g = build_elementwise_transport(fam, fam)
    grid = np.linspace(-4.0, 4.0, 41)[:, None] * np.ones(2)
    np.testing.assert_allclose(g(grid), grid, atol=1e-12)


def test_transport_closed_form_values():
    g = build_elementwise_transport(_g([1.0], [1.0]), _g([1.0], [0.5]))
    assert g(np.array([[3.0]]))[0, 0] == 2.0
    doubling = build_elementwise_transport(_g([0.0], [1.0]), _g([0.0], [2.0]))
    assert doubling(np.array([[3.0]]))[0, 0] == 6.0
    assert doubling(np.array([[-1.5]]))[0, 0] == -3.0


def test_transport_rejects_mismatched_families_and_dimensions():
    with pytest.raises(FamilyMismatch):
        build_elementwise_transport(_g([0.0], [1.0]), SourceFamily(L, (0.0,), (1.0,)))
    with pytest.raises(DimensionMismatch):
        build_elementwise_transport(_g([0.0], [1.0]), _g([0.0, 0.0], [1.0, 1.0]))


def test_transport_is_strictly_increasing_per_coordinate():
    g = build_elementwise_transport(_g([0.3, -1.0], [1.0, 0.4]), _g([-2.0, 5.0], [0.25, 3.0]))
    grid = np.linspace(-8.0, 8.0, 1000)
    for j in range(2):
        pts = np.zeros((1000, 2))
        pts[:, j] = grid
        out = g(pts)[:, j]
        assert np.all(np.diff(out) > 0)


def test_transported_base_draws_match_the_target_distribution():
    base = _g([0.5, -1.0], [1.0, 2.0])
    target = _g([-0.25, 3.0], [1.5, 0.5])
    rng = substream(17)
    s = source_quantiles(base, open_uniform(rng, size=(10_000, 2)))
    moved = build_elementwise_transport(base, target)(s)
    for j in range(2):
        d, _ = scipy.stats.kstest(
            moved[:, j], scipy.stats.norm(target.location[j], target.scale[j]).cdf
        )
        assert d < 0.02


def test_laplace_quantiles_match_the_reference_cdf():
    fam = SourceFamily(L, (0.25,), (1.5,))
    rng = substream(18)
    s = source_quantiles(fam, open_uniform(rng, size=(10_000, 1)))
    d, _ = scipy.stats.kstest(s[:, 0], scipy.stats.laplace(0.25, 1.5).cdf)
    assert d < 0.02


def test_source_family_validation():
    with pytest.raises(DimensionMismatch):
        SourceFamily(G, (), ())
    with pytest.raises(DimensionMismatch):
        SourceFamily(G, (0.0,), (1.0, 1.0))
    with pytest.raises(ValueError, match="scales"):
        SourceFamily(G, (0.0,), (0.0,))
    with pytest.raises(DimensionMismatch):
        source_quantiles(_g([0.0], [1.0]), np.zeros((5, 2)))


# ---------------------------------------------------------------------------
# Mixing.


def test_mixing_matrix_is_unit_lower_triangular_and_seed_stable():
    spec = MixingSpec(TRI, 4, seed=9)
    m = spec.matrix()
    np.testing.assert_array_equal(np.diag(m), np.ones(4))
    assert np.all(np.triu(m, 1) == 0.0)
    strict = m[np.tril_indices(4, -1)]
    assert np.all((strict > -1.0) & (strict < 1.0))
    np.testing.assert_array_equal(m, MixingSpec(TRI, 4, seed=9).matrix())
    assert not np.array_equal(m, MixingSpec(TRI, 4, seed=10).matrix())


@pytest.mark.parametrize("d", range(1, 9))
def test_mixing_matrix_equals_row_by_row_draws(d):
    # The strict lower triangle, drawn row by row from the mixing stream.
    for seed in range(20):
        reference = np.eye(d)
        rng = substream(seed, ROLE_MIXING)
        for i in range(1, d):
            reference[i, :i] = rng.uniform(-1.0, 1.0, size=i)
        assert MixingSpec(TRI, d, seed=seed).matrix().tobytes() == reference.tobytes()


@pytest.mark.parametrize("kind", [TRI, MixingKind.IDENTITY])
def test_mixing_matrix_is_shared_and_read_only(kind):
    # A spec draws its matrix once and shares that array with every call,
    # so no caller may write into it; equal specs draw equal bytes.
    spec = MixingSpec(kind, 3, seed=4)
    m = spec.matrix()
    assert spec.matrix() is m
    assert MixingSpec(kind, 3, seed=4).matrix().tobytes() == m.tobytes()
    with pytest.raises(ValueError, match="read-only"):
        m[1, 0] = 0.5


def test_mixing_spec_draws_its_matrix_on_first_use():
    # A d x d matrix of this size cannot be allocated; building the spec
    # must not try, and neither may comparing or hashing it.
    huge = MixingSpec(TRI, 10**7, seed=1)
    assert huge == MixingSpec(TRI, 10**7, seed=1)
    assert hash(huge) == hash(MixingSpec(TRI, 10**7, seed=1))
    with pytest.raises(MemoryError):
        huge.matrix()


@pytest.mark.parametrize("d", [1, 3])
def test_mixing_apply_then_invert_round_trips(d):
    spec = MixingSpec(TRI, d, seed=2)
    rng = substream(21, d)
    s = rng.normal(size=(500, d)) * 3.0
    np.testing.assert_allclose(spec.invert(spec.apply(s)), s, atol=1e-10)


def test_identity_mixing_is_a_copy():
    spec = MixingSpec(MixingKind.IDENTITY, 2)
    s = np.arange(10.0).reshape(5, 2)
    out = spec.apply(s)
    np.testing.assert_array_equal(out, s)
    assert out is not s
    np.testing.assert_array_equal(spec.invert(s), s)


def test_mixing_shape_checks():
    spec = MixingSpec(TRI, 2)
    with pytest.raises(DimensionMismatch, match=r"^samples must have shape \(n, 2\)$"):
        spec.apply(np.zeros((4, 3)))
    with pytest.raises(DimensionMismatch, match=r"^observations must have shape \(n, 2\)$"):
        spec.invert(np.zeros(4))
    with pytest.raises(DimensionMismatch):
        MixingSpec(TRI, 0)


# ---------------------------------------------------------------------------
# Two-sample backends.


def test_identical_tables_give_zero_energy_and_p_one():
    rng = substream(30)
    a = rng.normal(size=(80, 2))
    stat, p = two_sample_test(a, a.copy(), TwoSampleMethod.ENERGY_PERMUTATION, seed=1)
    assert stat == 0.0
    assert p == 1.0


def test_energy_permutation_floor_under_a_clear_difference():
    base = _g([0.0], [1.0])
    wide = DualityConfig(MixingSpec(MixingKind.IDENTITY, 1), base, (_g([0.0], [2.0]),), 300, seed=1)
    narrow = DualityConfig(MixingSpec(MixingKind.IDENTITY, 1), base, (base,), 300, seed=2)
    a = generate_cause_variability_samples(wide, 0)
    b = generate_mechanism_variability_samples(narrow, 0)
    stat, p = two_sample_test(a, b, TwoSampleMethod.ENERGY_PERMUTATION, seed=5)
    assert stat > 0.1
    assert p == pytest.approx(1.0 / 201.0)


def _energy_loop_reference(a, b, n_permutations, seed):
    """One permutation at a time, each statistic from index gathers."""
    pooled = np.vstack([a, b])
    diff = pooled[:, None, :] - pooled[None, :, :]
    dist = np.sqrt((diff * diff).sum(axis=2))
    n = a.shape[0]

    def energy(idx_a, idx_b):
        within_a = dist[np.ix_(idx_a, idx_a)].mean()
        within_b = dist[np.ix_(idx_b, idx_b)].mean()
        return float(2.0 * dist[np.ix_(idx_a, idx_b)].mean() - within_a - within_b)

    labels = np.arange(pooled.shape[0])
    observed = energy(labels[:n], labels[n:])
    rng = substream(seed, ROLE_PERMUTATION)
    exceed = 0
    for _ in range(n_permutations):
        perm = rng.permutation(pooled.shape[0])
        exceed += energy(perm[:n], perm[n:]) >= observed
    return observed, (exceed + 1) / (n_permutations + 1)


# Seeds 60-69 take d from 4 to 7, up to which the column-by-column distance
# matrix keeps the bits of the reference's sum over the coordinate axis, and
# tables of up to 200 rows.
@pytest.mark.parametrize("seed", range(70))
def test_energy_permutations_match_the_loop_reference(seed):
    rng = substream(40, seed)
    n, m = (int(k) for k in rng.integers(5, 60 if seed < 60 else 200, size=2))
    d = int(rng.integers(1, 4)) if seed < 60 else 4 + seed % 4
    a = rng.normal(size=(n, d))
    b = rng.normal(loc=rng.uniform(0.0, 0.5), size=(m, d))
    expected = _energy_loop_reference(a, b, 200, seed)
    got = two_sample_test(a, b, TwoSampleMethod.ENERGY_PERMUTATION, seed=seed)
    assert got == expected


def test_energy_pooled_size_guard():
    with pytest.raises(ValueError, match="pooled"):
        two_sample_test(
            np.zeros((3000, 1)), np.zeros((3000, 1)), TwoSampleMethod.ENERGY_PERMUTATION
        )


def test_ks_needs_enough_samples_and_matching_dimension():
    rng = substream(31)
    with pytest.raises(InsufficientSamples):
        two_sample_test(rng.normal(size=(49, 1)), rng.normal(size=(100, 1)))
    with pytest.raises(DimensionMismatch):
        two_sample_test(rng.normal(size=(60, 1)), rng.normal(size=(60, 2)))
    with pytest.raises(InsufficientSamples):
        two_sample_test(np.zeros((0, 1)), np.zeros((60, 1)))
    # A NaN column used to drop out of the Bonferroni minimum, an all-NaN
    # table passed with p = 1, and tables without columns gave (0.0, 1.0).
    with pytest.raises(DimensionMismatch, match="^a has no columns$"):
        two_sample_test(np.zeros((60, 0)), np.zeros((60, 0)))
    finite = rng.normal(size=(60, 2))
    for bad in (np.nan, np.inf, -np.inf):
        table = finite.copy()
        table[7, 1] = bad
        with pytest.raises(ValueError, match="^a contains non-finite values$"):
            two_sample_test(table, finite)
        with pytest.raises(ValueError, match="^b contains non-finite values$"):
            two_sample_test(finite, table)
    with pytest.raises(ValueError, match="^a contains non-finite values$"):
        two_sample_test(np.full((60, 1), np.nan), np.full((60, 1), np.nan))


def test_energy_rejects_non_finite_and_columnless_tables():
    # These used to give a nan statistic with p = 1/201, and (0.0, 1.0).
    energy = TwoSampleMethod.ENERGY_PERMUTATION
    a = substream(32).normal(size=(30, 2))
    b = a.copy()
    b[3, 0] = np.nan
    with pytest.raises(ValueError, match="^b contains non-finite values$"):
        two_sample_test(a, b, energy)
    with pytest.raises(DimensionMismatch, match="^a has no columns$"):
        two_sample_test(np.zeros((60, 0)), np.zeros((60, 0)), energy)


def test_energy_refuses_tables_whose_distances_overflow():
    # Distances past ~1.3e154 used to overflow into a nan statistic with
    # p = 1/201, failing two identical laws.
    energy = TwoSampleMethod.ENERGY_PERMUTATION
    a = substream(33).normal(size=(100, 1)) * 1e200
    big = np.array([[-1e308], [1e308]])  # even the difference overflows
    for table in (a, big):
        with pytest.raises(ValueError, match="^pairwise distances overflow the float range$"):
            two_sample_test(table, table.copy(), energy)
    assert two_sample_test(a * 1e-47, a * 1e-47, energy) == (0.0, 1.0)


def _ks_loop_reference(a, b):
    """The former per-coordinate loop over ``scipy.stats.ks_2samp``."""
    best_stat = 0.0
    best_p = float("inf")
    for j in range(a.shape[1]):
        res = scipy.stats.ks_2samp(a[:, j], b[:, j], method="asymp")
        if res.pvalue < best_p:
            best_p = float(res.pvalue)
            best_stat = float(res.statistic)
    return best_stat, min(1.0, best_p * a.shape[1])


@st.composite
def _ks_tables(draw):
    """Two tables of 50-3000 rows (equal counts half the time) and 1-3
    columns, with ties from rounding, constant columns, or ``b`` a copy."""
    n = draw(st.integers(50, 3000))
    m = n if draw(st.booleans()) else draw(st.integers(50, 3000))
    d = draw(st.integers(1, 3))
    rng = substream(42, draw(st.integers(0, 2**32)))
    a = rng.normal(size=(n, d))
    b = rng.normal(loc=draw(st.sampled_from([0.0, 0.05, 0.5])), size=(m, d))
    decimals = draw(st.sampled_from([None, None, 0, 1, 2]))
    if decimals is not None:
        a, b = np.round(a, decimals), np.round(b, decimals)
    for j in draw(st.sets(st.integers(0, d - 1), max_size=d)):
        a[:, j] = 1.5
        b[:, j] = draw(st.sampled_from([1.5, -0.25]))
    if draw(st.integers(0, 5)) == 0:
        b = a.copy()
    return a, b


@given(_ks_tables())
@settings(max_examples=300, deadline=None)
def test_ks_matches_the_ks_2samp_loop_bit_for_bit(tables):
    a, b = tables
    got = two_sample_test(a, b)
    expected = _ks_loop_reference(a, b)
    assert got == expected
    assert [float(x).hex() for x in got] == [float(x).hex() for x in expected]


def test_ks_detects_a_scale_change_with_high_power():
    base = _g([0.0], [1.0])
    cfg_a = DualityConfig(MixingSpec(MixingKind.IDENTITY, 1), base, (base,), 5000, seed=4)
    cfg_b = DualityConfig(MixingSpec(MixingKind.IDENTITY, 1), base, (_g([0.0], [2.0]),), 5000, seed=5)
    _, p = two_sample_test(
        generate_cause_variability_samples(cfg_a, 0),
        generate_cause_variability_samples(cfg_b, 0),
    )
    assert p < 1e-3


def test_ks_null_calibration_across_independent_streams():
    base = _g([0.0, 0.0], [1.0, 1.0])
    keep = 0
    for s in range(100):
        cfg = DualityConfig(MixingSpec(MixingKind.IDENTITY, 2), base, (base,), 5000, seed=s)
        a = generate_cause_variability_samples(cfg, 0)
        b = generate_mechanism_variability_samples(cfg, 0)
        _, p = two_sample_test(a, b)
        keep += p > 0.05
    assert keep >= 90


# ---------------------------------------------------------------------------
# Pipelines.


def test_generators_are_deterministic_and_independent():
    base = _g([0.0, 0.0], [1.0, 1.0])
    cfg = DualityConfig(MixingSpec(TRI, 2, seed=3), base, (base, _g([1.0, 1.0], [0.5, 0.5])), 200, seed=6)
    a1 = generate_cause_variability_samples(cfg, 1)
    a2 = generate_cause_variability_samples(cfg, 1)
    np.testing.assert_array_equal(a1, a2)
    b = generate_mechanism_variability_samples(cfg, 1)
    assert not np.array_equal(a1, b)
    with pytest.raises(IndexError):
        generate_cause_variability_samples(cfg, 2)


def test_zero_samples_yield_empty_tables():
    base = _g([0.0], [1.0])
    cfg = DualityConfig(MixingSpec(TRI, 1, seed=0), base, (base,), 0, seed=0)
    assert generate_cause_variability_samples(cfg, 0).shape == (0, 1)
    assert generate_mechanism_variability_samples(cfg, 0).shape == (0, 1)


def test_both_pipelines_reach_the_target_variance():
    base = _g([0.0], [1.0])
    cfg = DualityConfig(
        MixingSpec(MixingKind.IDENTITY, 1), base, (_g([0.0], [2.0]),), 10_000, seed=3
    )
    assert abs(generate_cause_variability_samples(cfg, 0).var() - 4.0) < 0.2
    assert abs(generate_mechanism_variability_samples(cfg, 0).var() - 4.0) < 0.2


@pytest.mark.parametrize("family", [G, L])
def test_matched_quantiles_make_the_pipelines_agree_samplewise(family):
    # With the same uniforms, target-then-mix and base-transport-then-mix
    # differ only by float round-off in the affine composition.
    base = SourceFamily(family, (0.5, -1.0), (1.0, 2.0))
    target = SourceFamily(family, (-0.25, 3.0), (1.5, 0.5))
    f = MixingSpec(TRI, 2, seed=12)
    uniforms = open_uniform(substream(77), size=(2000, 2))
    direct = f.apply(source_quantiles(target, uniforms))
    moved = f.apply(build_elementwise_transport(base, target)(source_quantiles(base, uniforms)))
    np.testing.assert_allclose(direct, moved, atol=1e-10)


# ---------------------------------------------------------------------------
# Verification.


def test_config_validation():
    base = _g([0.0], [1.0])
    with pytest.raises(ValueError, match="per_u"):
        DualityConfig(MixingSpec(TRI, 1), base, (), 100, seed=0)
    with pytest.raises(FamilyMismatch):
        DualityConfig(MixingSpec(TRI, 1), base, (SourceFamily(L, (0.0,), (1.0,)),), 100, seed=0)
    with pytest.raises(DimensionMismatch):
        DualityConfig(MixingSpec(TRI, 1), base, (_g([0.0, 0.0], [1.0, 1.0]),), 100, seed=0)
    with pytest.raises(DimensionMismatch):
        DualityConfig(MixingSpec(TRI, 2), base, (base,), 100, seed=0)
    with pytest.raises(ValueError, match="n_samples"):
        DualityConfig(MixingSpec(TRI, 1), base, (base,), -1, seed=0)


def test_verification_level_and_sample_guards():
    base = _g([0.0], [1.0])
    cfg = DualityConfig(MixingSpec(TRI, 1), base, (base,), 0, seed=0)
    with pytest.raises(ValueError, match="sample"):
        verify_duality(cfg)
    live = DualityConfig(MixingSpec(TRI, 1), base, (base,), 100, seed=0)
    with pytest.raises(ValueError, match="level"):
        verify_duality(live, level=1.0)


def test_energy_level_below_the_p_value_floor_is_refused():
    # The energy p-value is never below 1/201, so a lower level used to pass
    # every target however far it lay from the base.
    base = _g([0.0, 0.0], [1.0, 1.0])
    far = (_g([3.0, -3.0], [1.0, 1.0]),)
    energy = DualityConfig(
        MixingSpec(MixingKind.IDENTITY, 2), base, far, 100, seed=0,
        test=TwoSampleMethod.ENERGY_PERMUTATION,
    )
    report = verify_duality(energy, level=1 / 201, force_identity_transport=True)
    assert not report.overall_pass
    assert report.per_u_results[0].p_value == report.per_u_results[0].source_p_value == 1 / 201
    for level in (0.004, 0.001):
        with pytest.raises(ValueError, match=r"^level .* is below the energy test's p-value floor 1/201$"):
            verify_duality(energy, level=level, force_identity_transport=True)
    ks = replace(energy, test=TwoSampleMethod.KS_PER_COORDINATE)  # KS has no floor
    assert not verify_duality(ks, level=0.001, force_identity_transport=True).overall_pass


def test_scale_varying_targets_verify_in_both_spaces():
    base = _g([0.0, 0.0], [1.0, 1.0])
    per_u = (_g([0.0, 0.0], [0.5, 0.5]), _g([0.0, 0.0], [2.0, 2.0]))
    cfg = DualityConfig(MixingSpec(TRI, 2, seed=0), base, per_u, 5000, seed=0)
    report = verify_duality(cfg)
    assert report.overall_pass
    assert [r.u_index for r in report.per_u_results] == [0, 1]
    for r in report.per_u_results:
        assert r.passed and r.p_value > 0.01 and r.source_p_value > 0.01


def test_laplace_targets_verify_too():
    base = SourceFamily(L, (0.5,), (1.0,))
    cfg = DualityConfig(
        MixingSpec(TRI, 1, seed=0), base, (SourceFamily(L, (-0.25,), (2.0,)),), 5000, seed=0
    )
    assert verify_duality(cfg).overall_pass


def test_target_equal_to_base_passes_with_one_u():
    base = _g([0.0, 0.0], [1.0, 1.0])
    cfg = DualityConfig(MixingSpec(TRI, 2, seed=7), base, (base,), 5000, seed=0)
    report = verify_duality(cfg)
    assert report.overall_pass
    assert len(report.per_u_results) == 1


def test_dropping_the_transport_breaks_the_equivalence():
    base = _g([0.0, 0.0], [1.0, 1.0])
    per_u = (_g([0.0, 0.0], [0.5, 0.5]), _g([0.0, 0.0], [2.0, 2.0]))
    cfg = DualityConfig(MixingSpec(TRI, 2, seed=0), base, per_u, 5000, seed=0)
    report = verify_duality(cfg, force_identity_transport=True)
    assert not report.overall_pass
    assert all(not r.passed for r in report.per_u_results)
