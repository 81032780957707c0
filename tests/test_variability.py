"""Rank diagnostics for environment differences and density discrepancy."""

from fractions import Fraction

import numpy as np
import pytest
import scipy.stats

from envcausal.dgp import CausalStructure, DGPConfig, VariabilityRegime, simulate_dataset
from envcausal.variability import (
    FLAG_TOO_FEW_ENVIRONMENTS,
    DensityFamily,
    DensitySpec,
    DiscrepancyQuery,
    NonPositiveDensity,
    ShapeMismatch,
    build_modulation_matrix,
    check_sufficient_variability,
    default_discrepancy_interval,
    detect_delta_prior,
    interventional_discrepancy_fraction,
)
from envcausal._streams import substream

G = DensityFamily.GAUSSIAN
L = DensityFamily.LAPLACE


def _exact_rank(rows) -> int:
    """Gauss-Jordan over exact rationals; Fraction(float) is lossless."""
    m = [[Fraction(v) for v in row] for row in np.asarray(rows, dtype=float).tolist()]
    rank = 0
    for c in range(len(m[0]) if m else 0):
        pivot = next((r for r in range(rank, len(m)) if m[r][c] != 0), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        for r in range(len(m)):
            if r != rank and m[r][c] != 0:
                f = m[r][c] / m[rank][c]
                m[r] = [a - f * b for a, b in zip(m[r], m[rank])]
        rank += 1
    return rank


# ---------------------------------------------------------------------------
# Matrix construction.


def test_difference_rows_against_baseline():
    matrix = build_modulation_matrix([[0.25], [0.75]])
    np.testing.assert_array_equal(matrix.entries, [[0.5]])
    assert matrix.baseline_index == 0
    assert (matrix.d_sources, matrix.k_order, matrix.n_columns) == (1, 1, 1)


def test_nonzero_baseline_drops_that_row():
    matrix = build_modulation_matrix([[1.0, 2.0], [3.0, 5.0], [0.0, 0.0]], baseline_index=1)
    np.testing.assert_array_equal(matrix.entries, [[-2.0, -3.0], [-3.0, -5.0]])
    assert matrix.baseline_index == 1


def test_gcl_with_single_statistic_matches_plain_construction():
    table = np.array([[0.1, -0.2], [0.4, 0.3], [-0.5, 0.9]])
    plain = build_modulation_matrix(table)
    gcl = build_modulation_matrix(table[:, :, None])
    np.testing.assert_array_equal(plain.entries, gcl.entries)
    assert (plain.d_sources, plain.k_order) == (gcl.d_sources, gcl.k_order) == (2, 1)


def test_gcl_flattens_blocks_row_major():
    table = np.zeros((3, 1, 2))
    table[1] = [[0.5, 0.25]]
    table[2] = [[0.25, 0.5]]
    matrix = build_modulation_matrix(table)
    np.testing.assert_array_equal(matrix.entries, [[0.5, 0.25], [0.25, 0.5]])
    assert (matrix.d_sources, matrix.k_order, matrix.n_columns) == (1, 2, 2)
    report = check_sufficient_variability(matrix)
    assert _exact_rank(matrix.entries) == 2
    assert report.rank == 2 and report.full_column_rank


@pytest.mark.parametrize(
    "bad",
    [
        [[1.0, 2.0]],  # one environment
        [1.0, 2.0, 3.0],  # not a table
        [[1.0], [np.nan]],
        [[1.0], [np.inf]],
    ],
)
def test_malformed_tables_are_rejected(bad):
    with pytest.raises(ShapeMismatch):
        build_modulation_matrix(bad)


def test_baseline_index_bounds():
    with pytest.raises(ShapeMismatch, match="baseline_index"):
        build_modulation_matrix([[1.0], [2.0]], baseline_index=2)


# ---------------------------------------------------------------------------
# Rank and conditioning.


def test_identical_environments_give_rank_zero():
    report = check_sufficient_variability(build_modulation_matrix([[0.3, 0.4]] * 5))
    assert report.rank == 0
    assert not report.full_column_rank
    assert report.condition_number == np.inf
    assert set(report.singular_values) == {0.0}


def test_identity_differences_are_perfectly_conditioned():
    report = check_sufficient_variability(
        build_modulation_matrix([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    )
    assert report.rank == 2
    assert report.full_column_rank
    assert report.condition_number == 1.0


def test_nearly_parallel_rows_collapse_at_the_relative_tolerance():
    # Gram-matrix bounds over exact rationals: with t = tr(M^T M) and
    # d = det(M^T M), the squared singular ratio lies in [d / t^2, 4 d / t^2],
    # so 4 d <= tol^2 t^2 forces rank 1 and d > tol^2 t^2 forces rank 2.
    b = 1e-14
    matrix = build_modulation_matrix([[0.0, 0.0], [1.0, 0.0], [1.0, b]])
    bf = Fraction(b)
    trace = 2 + bf * bf
    det = bf * bf
    assert 4 * det <= Fraction(1e-10) ** 2 * trace**2
    loose = check_sufficient_variability(matrix, tolerance=1e-10)
    assert loose.rank == 1 and not loose.full_column_rank
    assert det > Fraction(1e-16) ** 2 * trace**2
    strict = check_sufficient_variability(matrix, tolerance=1e-16)
    assert strict.rank == 2 and strict.full_column_rank


def test_duplicated_baseline_environment_wastes_a_row():
    table = [[0.0, 0.0], [0.5, 0.25], [0.0, 0.0]]
    report = check_sufficient_variability(build_modulation_matrix(table))
    assert report.rank == 1
    assert not report.full_column_rank


def test_too_few_environments_is_flagged():
    report = check_sufficient_variability(build_modulation_matrix([[0.0] * 3, [1.0, 0.0, 0.0]]))
    assert report.flags == (FLAG_TOO_FEW_ENVIRONMENTS,)
    assert not report.full_column_rank
    full = check_sufficient_variability(build_modulation_matrix(np.vstack([np.zeros(3), np.eye(3)])))
    assert full.flags == ()
    assert full.full_column_rank


def test_tolerance_validation():
    matrix = build_modulation_matrix([[0.0], [1.0]])
    for tol in (0.0, 1.0, -0.5):
        with pytest.raises(ValueError, match="tolerance"):
            check_sufficient_variability(matrix, tolerance=tol)


def test_rank_matches_exact_rational_elimination():
    rng = substream(41)
    for _ in range(100):
        table = rng.uniform(-1.0, 1.0, size=(4, 3))
        matrix = build_modulation_matrix(table)
        report = check_sufficient_variability(matrix)
        assert report.rank == _exact_rank(matrix.entries)


def test_generic_draws_are_always_full_rank():
    rng = substream(42)
    hits = 0
    for _ in range(1000):
        table = rng.uniform(-1.0, 1.0, size=(4, 3))
        hits += check_sufficient_variability(build_modulation_matrix(table)).full_column_rank
    assert hits == 1000


def test_pinned_coordinate_destroys_full_rank():
    rng = substream(43)
    table = rng.uniform(-1.0, 1.0, size=(5, 3))
    table[:, 1] = 0.77
    report = check_sufficient_variability(build_modulation_matrix(table))
    assert report.rank == 2
    assert not report.full_column_rank


# Invariances.


def test_translation_leaves_the_matrix_unchanged():
    rng = substream(44)
    table = rng.uniform(-1.0, 1.0, size=(6, 2))
    shifted = table + np.array([3.25, -1.5])
    # Exact in real arithmetic; rounding in (a + c) - (b + c) leaves dust.
    np.testing.assert_allclose(
        build_modulation_matrix(table).entries,
        build_modulation_matrix(shifted).entries,
        atol=1e-12,
    )


def test_baseline_choice_preserves_rank():
    rng = substream(45)
    table = rng.uniform(-1.0, 1.0, size=(5, 3))
    ranks = {
        check_sufficient_variability(build_modulation_matrix(table, baseline_index=b)).rank
        for b in range(5)
    }
    assert len(ranks) == 1


def test_scaling_preserves_rank_and_condition():
    rng = substream(46)
    table = rng.uniform(-1.0, 1.0, size=(5, 3))
    base = check_sufficient_variability(build_modulation_matrix(table))
    scaled = check_sufficient_variability(build_modulation_matrix(table * 8.0))
    assert scaled.rank == base.rank
    assert scaled.condition_number == pytest.approx(base.condition_number, rel=1e-12)
    np.testing.assert_allclose(
        np.asarray(scaled.singular_values), 8.0 * np.asarray(base.singular_values), rtol=1e-12
    )


# ---------------------------------------------------------------------------
# Delta-prior detection.


def _param_table(dataset):
    return dataset.params[:, :3]


@pytest.mark.parametrize(
    "regime,expected",
    [
        (VariabilityRegime.FULL_EXCHANGEABLE, [False, False, False]),
        (VariabilityRegime.CAUSE_VARIABILITY, [False, True, True]),
        (VariabilityRegime.MECHANISM_VARIABILITY, [True, False, False]),
        (VariabilityRegime.IID, [True, True, True]),
    ],
)
def test_delta_detection_on_simulated_parameter_tables(regime, expected):
    dataset = simulate_dataset(
        DGPConfig(n_environments=50, regime=regime, structure=CausalStructure.X_TO_Y), 7
    )
    np.testing.assert_array_equal(detect_delta_prior(_param_table(dataset)), expected)


def test_delta_detection_tolerance_widens_the_match():
    table = [[0.0, 0.0], [5e-11, 0.3], [-5e-11, -0.2]]
    np.testing.assert_array_equal(detect_delta_prior(table), [True, False])
    np.testing.assert_array_equal(detect_delta_prior(table, tolerance=0.0), [False, False])
    with pytest.raises(ValueError):
        detect_delta_prior(table, tolerance=-1e-3)


def test_pinned_dimension_links_detection_to_rank_loss():
    dataset = simulate_dataset(
        DGPConfig(
            n_environments=50,
            regime=VariabilityRegime.CAUSE_VARIABILITY,
            structure=CausalStructure.X_TO_Y,
        ),
        11,
    )
    table = _param_table(dataset)
    assert detect_delta_prior(table).any()
    report = check_sufficient_variability(build_modulation_matrix(table))
    assert not report.full_column_rank
    assert report.rank == 1


# ---------------------------------------------------------------------------
# Densities and discrepancy.


def test_log_pdf_matches_reference_implementations():
    x = np.linspace(-6.0, 6.0, 101)
    np.testing.assert_allclose(
        DensitySpec(G, 0.5, 1.7).log_pdf(x), scipy.stats.norm.logpdf(x, 0.5, 1.7), atol=1e-12
    )
    np.testing.assert_allclose(
        DensitySpec(L, -0.25, 2.0).log_pdf(x), scipy.stats.laplace.logpdf(x, -0.25, 2.0), atol=1e-12
    )
    with pytest.raises(ValueError, match="scale"):
        DensitySpec(G, 0.0, 0.0)


def test_default_interval_padding():
    assert default_discrepancy_interval(DensitySpec(G, 0.0, 1.0), DensitySpec(G, 1.0, 1.0)) == (-5.0, 6.0)
    assert default_discrepancy_interval(DensitySpec(L, 0.0, 1.0), DensitySpec(G, 0.0, 3.0)) == (-24.0, 24.0)


def test_query_validation():
    p = DensitySpec(G, 0.0, 1.0)
    with pytest.raises(ValueError, match="interval"):
        DiscrepancyQuery(p, p, interval=(1.0, 1.0))
    with pytest.raises(ValueError, match="grid_points"):
        DiscrepancyQuery(p, p, interval=(0.0, 1.0), grid_points=100)
    with pytest.raises(ValueError):
        DiscrepancyQuery(p, p, interval=(0.0, 1.0), derivative_step=0.0)
    with pytest.raises(ValueError):
        DiscrepancyQuery(p, p, interval=(0.0, 1.0), zero_tolerance=-1e-9)


def test_mean_shift_has_nonvanishing_derivative_everywhere():
    # log ratio of two unit Gaussians a mean apart is x - 1/2, slope 1.
    p, pt = DensitySpec(G, 0.0, 1.0), DensitySpec(G, 1.0, 1.0)
    fraction, holds = interventional_discrepancy_fraction(
        DiscrepancyQuery(p, pt, default_discrepancy_interval(p, pt))
    )
    assert fraction == 0.0
    assert holds


def test_identical_densities_vanish_everywhere():
    p = DensitySpec(L, 0.3, 1.2)
    fraction, holds = interventional_discrepancy_fraction(
        DiscrepancyQuery(p, DensitySpec(L, 0.3, 1.2), (-5.0, 5.0))
    )
    assert fraction == 1.0
    assert not holds


def test_pure_scale_change_vanishes_only_at_one_grid_point():
    # log ratio is -log 2 + (3/8) x^2, so the derivative (3/4) x has a
    # single zero that the symmetric default grid hits exactly once.
    p, pt = DensitySpec(G, 0.0, 1.0), DensitySpec(G, 0.0, 2.0)
    query = DiscrepancyQuery(p, pt, default_discrepancy_interval(p, pt))
    fraction, holds = interventional_discrepancy_fraction(query)
    assert fraction == pytest.approx(1.0 / query.grid_points)
    assert holds


def test_discrepancy_is_symmetric_in_the_two_densities():
    p, pt = DensitySpec(G, 0.2, 1.0), DensitySpec(L, -0.4, 1.5)
    interval = default_discrepancy_interval(p, pt)
    forward = interventional_discrepancy_fraction(DiscrepancyQuery(p, pt, interval))
    backward = interventional_discrepancy_fraction(DiscrepancyQuery(pt, p, interval))
    assert forward == backward


def test_underflowing_tail_raises_instead_of_lying():
    p = DensitySpec(G, 0.0, 1.0)
    with pytest.raises(NonPositiveDensity):
        interventional_discrepancy_fraction(
            DiscrepancyQuery(p, DensitySpec(G, 0.1, 1.0), (30.0, 40.0))
        )
