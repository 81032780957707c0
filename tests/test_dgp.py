"""Generator semantics: regimes, structural equations, densities, and IO."""

import json
import math

import numpy as np
import pytest
import scipy.stats

from envcausal._streams import substream
from envcausal.dgp import (
    CausalStructure,
    DataFormatError,
    DegenerateDensity,
    DGPConfig,
    InvalidConfig,
    MultiEnvDataset,
    VariabilityRegime,
    joint_log_density,
    read_dataset,
    read_environments_csv,
    sample_definetti_params,
    simulate_dataset,
    simulate_with_params,
    write_dataset_csv,
    write_truth_json,
)

FULL = VariabilityRegime.FULL_EXCHANGEABLE
CAUSE = VariabilityRegime.CAUSE_VARIABILITY
MECH = VariabilityRegime.MECHANISM_VARIABILITY
IID = VariabilityRegime.IID


def _config(regime, structure, e=50, n=2, **kw):
    return DGPConfig(n_environments=e, regime=regime, structure=structure, samples_per_env=n, **kw)


# ---------------------------------------------------------------------------
# Configuration validation.


@pytest.mark.parametrize(
    "kwargs",
    [
        {"n_environments": 0},
        {"samples_per_env": 0},
        {"noise_scale": 0.0},
        {"noise_scale": -1.0},
        {"coef_magnitude_range": (0.0, 2.0)},
        {"coef_magnitude_range": (2.0, 0.5)},
        {"structure": "sideways"},
        {"noise_scale": float("nan")},
        {"noise_scale": float("inf")},
        {"coef_magnitude_range": (0.5, float("inf"))},
    ],
)
def test_invalid_configs_rejected(kwargs):
    base = dict(n_environments=10, regime=FULL, structure=CausalStructure.X_TO_Y)
    base.update(kwargs)
    with pytest.raises(InvalidConfig):
        DGPConfig(**base)


# ---------------------------------------------------------------------------
# Parameter sampling per regime.


def test_iid_params_identical_across_environments():
    params = sample_definetti_params(
        _config(IID, CausalStructure.X_TO_Y, e=3), CausalStructure.X_TO_Y, substream(5)
    )
    assert params.shape == (3, 4) and params.dtype == np.float64
    assert np.all(params == params[0])


def test_cause_variability_pins_psi_and_moves_theta():
    params = sample_definetti_params(
        _config(CAUSE, CausalStructure.X_TO_Y, e=100), CausalStructure.X_TO_Y, substream(6)
    )
    assert np.all(params[:, 1:] == params[0, 1:])
    assert np.var(params[:, 0]) > 0


def test_mechanism_variability_pins_theta_and_moves_psi():
    params = sample_definetti_params(
        _config(MECH, CausalStructure.X_TO_Y, e=100), CausalStructure.X_TO_Y, substream(7)
    )
    assert np.all(params[:, 0] == params[0, 0])
    assert np.var(params[:, 1]) > 0


def test_full_exchangeable_theta_moments():
    # Uniform[-1,1] has mean 0 and variance 1/3.
    params = sample_definetti_params(
        _config(FULL, CausalStructure.X_TO_Y, e=10_000), CausalStructure.X_TO_Y, substream(8)
    )
    thetas = params[:, 0]
    assert abs(thetas.mean()) < 0.02
    assert abs(thetas.var() - 1.0 / 3.0) < 0.02


def test_full_exchangeable_thetas_all_distinct():
    params = sample_definetti_params(
        _config(FULL, CausalStructure.X_TO_Y, e=200), CausalStructure.X_TO_Y, substream(9)
    )
    assert np.unique(params[:, 0]).size == 200


@pytest.mark.parametrize("seed", range(10))
def test_param_ranges(seed):
    for structure in (CausalStructure.X_TO_Y, CausalStructure.Y_TO_X):
        params = sample_definetti_params(
            _config(FULL, structure, e=40), structure, substream(seed)
        )
        theta, psi_loc, psi_coef, psi_nonlinear = params.T
        assert np.all((-1.0 <= theta) & (theta <= 1.0))
        assert np.all((-1.0 <= psi_loc) & (psi_loc <= 1.0))
        assert np.all((0.5 <= np.abs(psi_coef)) & (np.abs(psi_coef) <= 2.0))
        assert set(psi_nonlinear) <= {0.0, 1.0}


def test_independent_structure_zeroes_the_coupling():
    params = sample_definetti_params(
        _config(FULL, CausalStructure.INDEPENDENT, e=40),
        CausalStructure.INDEPENDENT,
        substream(10),
    )
    assert np.all(params[:, 2] == 0.0)


def _reference_params(config, structure, rng):
    # Scalar draws in the generator's order: per environment one theta,
    # then location, sign, magnitude and nonlinearity of the psi bundle.
    cause_rng, mech_rng = rng.spawn(2)
    e, regime = config.n_environments, config.regime
    cause_varies = regime in (FULL, CAUSE)
    mech_varies = regime in (FULL, MECH)
    lo, hi = config.coef_magnitude_range
    thetas = [float(cause_rng.uniform(-1.0, 1.0)) for _ in range(e if cause_varies else 1)]
    psis = []
    for _ in range(e if mech_varies else 1):
        psi_loc = float(mech_rng.uniform(-1.0, 1.0))
        sign = 1.0 if mech_rng.random() < 0.5 else -1.0
        magnitude = float(mech_rng.uniform(lo, hi))
        nonlinear = bool(mech_rng.random() < 0.5)
        coef = 0.0 if structure is CausalStructure.INDEPENDENT else sign * magnitude
        psis.append((psi_loc, coef, nonlinear))
    return [[thetas[i if cause_varies else 0], *psis[i if mech_varies else 0]] for i in range(e)]


@pytest.mark.parametrize("regime", list(VariabilityRegime))
@pytest.mark.parametrize("structure", list(CausalStructure))
def test_param_blocks_equal_scalar_reference_draws(regime, structure):
    for seed, e, magnitudes in [(0, 1, (0.5, 2.0)), (1, 7, (0.5, 2.0)), (2, 60, (0.3, 2.7))]:
        config = _config(regime, structure, e=e, coef_magnitude_range=magnitudes)
        params = sample_definetti_params(config, structure, substream(seed, 77))
        assert np.array_equal(params, _reference_params(config, structure, substream(seed, 77)))


# ---------------------------------------------------------------------------
# Simulation.


def test_simulate_shapes_and_determinism():
    config = _config(FULL, CausalStructure.X_TO_Y, e=500, n=2)
    a = simulate_dataset(config, 7)
    b = simulate_dataset(config, 7)
    assert a.n_environments == 500
    assert a.samples.shape == (500, 2, 2)
    np.testing.assert_array_equal(a.samples, b.samples)
    assert np.array_equal(a.params, b.params) and a.truth is b.truth


def test_random_structure_draw_is_seed_stable_and_covers_all_tags():
    config = _config(FULL, "random", e=20)
    seen = {simulate_dataset(config, s).truth for s in range(60)}
    assert seen == {CausalStructure.X_TO_Y, CausalStructure.Y_TO_X, CausalStructure.INDEPENDENT}
    assert simulate_dataset(config, 3).truth is simulate_dataset(config, 3).truth


def test_independent_structure_decorrelates_the_pair():
    dataset = simulate_dataset(_config(FULL, CausalStructure.INDEPENDENT, e=10_000), 21)
    x, y = dataset.samples[..., 0].ravel(), dataset.samples[..., 1].ravel()
    assert abs(np.corrcoef(x, y)[0, 1]) < 0.03


def test_pinned_linear_mechanism_residual_is_laplace():
    # With coefficient 1 and the nonlinear term off, y - x recovers the
    # effect noise exactly; its pooled law is Laplace(psi_loc, 1).
    config = _config(IID, CausalStructure.X_TO_Y, e=1, n=20_000)
    params = [[0.3, -0.4, 1.0, 0.0]]
    dataset = simulate_with_params(config, CausalStructure.X_TO_Y, params, seed=13)
    residual = dataset.samples[0, :, 1] - dataset.samples[0, :, 0]
    stat = scipy.stats.kstest(residual, scipy.stats.laplace(loc=-0.4, scale=1.0).cdf).statistic
    assert stat < 0.02


def test_mirrored_structure_with_nonlinear_term():
    # For y -> x the cause noise lands in y and the effect equation adds
    # coef * cause^2 when the nonlinear indicator is on.
    config = _config(IID, CausalStructure.Y_TO_X, e=1, n=20_000)
    dataset = simulate_with_params(config, CausalStructure.Y_TO_X, [[0.6, 0.2, 1.5, 1.0]], seed=17)
    x, y = dataset.samples[0].T
    residual = x - 1.5 * y - 1.5 * y**2
    stat = scipy.stats.kstest(
        residual, scipy.stats.laplace(loc=0.2, scale=1.0).cdf
    ).statistic
    assert stat < 0.02
    cause_stat = scipy.stats.kstest(
        y, scipy.stats.laplace(loc=0.6, scale=1.0).cdf
    ).statistic
    assert cause_stat < 0.02


def test_cause_column_ignores_effect_side_configuration():
    # Changing the structure changes only psi_coef and the y equation;
    # the cause-side streams must leave x untouched.
    independent = simulate_dataset(_config(FULL, CausalStructure.INDEPENDENT, e=50), 31)
    directed = simulate_dataset(_config(FULL, CausalStructure.X_TO_Y, e=50), 31)
    np.testing.assert_array_equal(independent.samples[..., 0], directed.samples[..., 0])
    assert any(
        not np.array_equal(yi, yd)
        for yi, yd in zip(independent.samples[..., 1], directed.samples[..., 1])
    )


def test_sample_count_extension_preserves_prefix():
    small = simulate_dataset(_config(IID, CausalStructure.X_TO_Y, e=5, n=2), 41)
    large = simulate_dataset(_config(IID, CausalStructure.X_TO_Y, e=5, n=7), 41)
    np.testing.assert_array_equal(small.samples, large.samples[:, :2])


@pytest.mark.parametrize("regime", list(VariabilityRegime))
def test_environment_count_extension_preserves_prefix(regime):
    small = simulate_dataset(_config(regime, CausalStructure.Y_TO_X, e=5, n=3), 43)
    large = simulate_dataset(_config(regime, CausalStructure.Y_TO_X, e=9, n=3), 43)
    np.testing.assert_array_equal(small.samples, large.samples[:5])
    assert np.array_equal(small.params, large.params[:5])


# ---------------------------------------------------------------------------
# Collapsed noise.


def test_collapse_noise_is_noop_without_delta_sides():
    config = _config(FULL, CausalStructure.X_TO_Y, e=30)
    collapsed = simulate_dataset(
        _config(FULL, CausalStructure.X_TO_Y, e=30, collapse_noise=True), 19
    )
    plain = simulate_dataset(config, 19)
    np.testing.assert_array_equal(collapsed.samples, plain.samples)


def test_collapse_noise_makes_mechanism_deterministic_under_cause_variability():
    dataset = simulate_dataset(
        _config(CAUSE, CausalStructure.X_TO_Y, e=30, n=4, collapse_noise=True), 23
    )
    pairs = dataset.samples.transpose(0, 2, 1)
    for (x, y), (_, psi_loc, coef, nonlinear) in zip(pairs, dataset.params):
        nl = coef * x**2 if nonlinear else 0.0
        np.testing.assert_array_equal(y, coef * x + psi_loc + nl)
        assert len(set(x)) > 1


def test_collapse_noise_under_iid_freezes_both_columns():
    dataset = simulate_dataset(
        _config(IID, CausalStructure.X_TO_Y, e=10, n=3, collapse_noise=True), 29
    )
    theta = dataset.params[0, 0]
    for x, y in dataset.samples.transpose(0, 2, 1):
        assert set(x) == {theta}
        assert len(set(y)) == 1


# ---------------------------------------------------------------------------
# Joint log-density.


def _oracle_log_density(dataset):
    """Independent recomputation through scipy's Laplace logpdf."""
    total = 0.0
    pairs = dataset.samples.transpose(0, 2, 1)
    for (x, y), (theta, psi_loc, coef, nonlinear) in zip(pairs, dataset.params):
        if dataset.truth is CausalStructure.X_TO_Y:
            nl = coef * x**2 if nonlinear else 0.0
            cause, effect = x, y - coef * x - nl
        elif dataset.truth is CausalStructure.Y_TO_X:
            nl = coef * y**2 if nonlinear else 0.0
            cause, effect = y, x - coef * y - nl
        else:
            cause, effect = x, y
        total += scipy.stats.laplace(loc=theta, scale=dataset.noise_scale).logpdf(cause).sum()
        total += scipy.stats.laplace(loc=psi_loc, scale=dataset.noise_scale).logpdf(effect).sum()
    return float(total)


def test_log_density_closed_form_point():
    # Nested lists are held as float64 arrays.
    dataset = MultiEnvDataset(
        samples=[[[0.0, 0.0]]],
        truth=CausalStructure.INDEPENDENT,
        regime=IID,
        params=[[0, 0, 0, 0]],
        seed=0,
    )
    assert dataset.samples.dtype == dataset.params.dtype == np.float64
    assert joint_log_density(dataset) == pytest.approx(2.0 * math.log(0.5), abs=1e-12)


@pytest.mark.parametrize("seed", range(20))
def test_log_density_matches_scipy_oracle_and_row_permutation(seed):
    structure = [CausalStructure.X_TO_Y, CausalStructure.Y_TO_X, CausalStructure.INDEPENDENT][
        seed % 3
    ]
    regime = [FULL, CAUSE, MECH, IID][seed % 4]
    dataset = simulate_dataset(_config(regime, structure, e=8, n=5, noise_scale=1.5), seed)
    value = joint_log_density(dataset)
    assert math.isfinite(value)
    assert value == pytest.approx(_oracle_log_density(dataset), abs=1e-9)

    rng = np.random.default_rng(seed)
    shuffled = MultiEnvDataset(
        samples=np.stack([env[rng.permutation(len(env))] for env in dataset.samples]),
        truth=dataset.truth,
        regime=dataset.regime,
        params=dataset.params,
        seed=dataset.seed,
        noise_scale=dataset.noise_scale,
    )
    assert joint_log_density(shuffled) == pytest.approx(value, abs=1e-9)


def test_log_density_environment_permutation_invariance():
    dataset = simulate_dataset(_config(FULL, CausalStructure.X_TO_Y, e=12, n=3), 77)
    value = joint_log_density(dataset)
    order = np.random.default_rng(0).permutation(12)
    permuted = MultiEnvDataset(
        samples=dataset.samples[order],
        truth=dataset.truth,
        regime=dataset.regime,
        params=dataset.params[order],
        seed=dataset.seed,
    )
    assert joint_log_density(permuted) == pytest.approx(value, abs=1e-9)


def test_log_density_refuses_collapsed_noise():
    dataset = simulate_dataset(
        _config(IID, CausalStructure.X_TO_Y, e=5, collapse_noise=True), 3
    )
    with pytest.raises(DegenerateDensity):
        joint_log_density(dataset)


# ---------------------------------------------------------------------------
# Persistence.


def test_csv_round_trip_is_exact(tmp_path):
    dataset = simulate_dataset(_config(FULL, CausalStructure.Y_TO_X, e=25, n=3), 51)
    csv_path = tmp_path / "d.csv"
    truth_path = tmp_path / "d.truth.json"
    write_dataset_csv(dataset, csv_path)
    write_truth_json(dataset, truth_path)
    loaded = read_dataset(csv_path, truth_path)
    assert loaded.truth is dataset.truth
    assert loaded.regime is dataset.regime
    assert loaded.seed == dataset.seed
    assert loaded.params.dtype == np.float64
    assert np.array_equal(loaded.params, dataset.params)
    np.testing.assert_array_equal(loaded.samples, dataset.samples)
    assert joint_log_density(loaded) == joint_log_density(dataset)


def test_reader_rejects_bad_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("environment,sample,x,y\n0,0,1.0,2.0\n")
    with pytest.raises(DataFormatError) as err:
        read_environments_csv(path)
    assert err.value.line == 1


def test_reader_names_the_malformed_line(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("env,sample,x,y\n0,0,1.0,2.0\n0,1,oops,2.0\n")
    with pytest.raises(DataFormatError) as err:
        read_environments_csv(path)
    assert err.value.line == 3


def test_reader_rejects_gapped_environments(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("env,sample,x,y\n0,0,1.0,2.0\n0,1,1.0,2.0\n2,0,1.0,2.0\n2,1,1.0,2.0\n")
    with pytest.raises(DataFormatError, match="contiguous"):
        read_environments_csv(path)


def test_reader_rejects_non_finite_values(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("env,sample,x,y\n0,0,inf,2.0\n")
    with pytest.raises(DataFormatError) as err:
        read_environments_csv(path)
    assert err.value.line == 2


def test_reader_rejects_unequal_sample_counts(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("env,sample,x,y\n0,0,1.0,2.0\n0,1,1.0,2.0\n1,0,1.0,2.0\n")
    with pytest.raises(DataFormatError, match="equal sample counts"):
        read_environments_csv(path)


def test_reader_places_rows_by_their_indices(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text("env,sample,x,y\n1,1,7.0,8.0\n0,0,1.0,2.0\n1,0,5.0,6.0\n\n0,1,3.0,4.0\n")
    np.testing.assert_array_equal(
        read_environments_csv(path), [[[1.0, 2.0], [3.0, 4.0]], [[5.0, 6.0], [7.0, 8.0]]]
    )


@pytest.mark.parametrize("shape", [(2, 2), (2, 2, 3), (0, 2, 2)])
def test_dataset_requires_an_environment_by_sample_by_pair_array(shape):
    with pytest.raises(InvalidConfig):
        MultiEnvDataset(
            samples=np.zeros(shape),
            truth=CausalStructure.INDEPENDENT,
            regime=IID,
            params=np.zeros((2, 4)),
            seed=0,
        )


@pytest.mark.parametrize("shape", [(2,), (3, 4), (2, 3), (2, 4, 1)])
def test_dataset_requires_one_parameter_row_per_environment(shape):
    with pytest.raises(InvalidConfig):
        MultiEnvDataset(
            samples=np.zeros((2, 2, 2)),
            truth=CausalStructure.INDEPENDENT,
            regime=IID,
            params=np.zeros(shape),
            seed=0,
        )


@pytest.mark.parametrize("params", [[], [[0.0, 0.0, 1.0, 0.0]] * 3, [[0.0, 0.0, 1.0]] * 2])
def test_simulate_with_params_requires_an_environment_by_four_table(params):
    with pytest.raises(InvalidConfig):
        simulate_with_params(
            _config(IID, CausalStructure.X_TO_Y, e=2), CausalStructure.X_TO_Y, params, seed=0
        )


def test_truth_sidecar_errors(tmp_path):
    csv_path = tmp_path / "d.csv"
    csv_path.write_text("env,sample,x,y\n0,0,1.0,2.0\n0,1,3.0,4.0\n")
    truth_path = tmp_path / "d.truth.json"
    truth_path.write_text("{not json")
    with pytest.raises(DataFormatError, match="JSON"):
        read_dataset(csv_path, truth_path)
    truth_path.write_text(json.dumps({"structure": "x_to_y", "regime": "iid", "seed": 0}))
    with pytest.raises(DataFormatError, match="malformed"):
        read_dataset(csv_path, truth_path)
