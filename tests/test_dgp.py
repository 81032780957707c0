"""Generator semantics: regimes, structural equations, densities, and IO."""

import csv
import json
import math

import numpy as np
import pytest
import scipy.stats
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

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
    read_csv_table,
    read_dataset,
    sample_definetti_params,
    simulate_dataset,
    simulate_with_params,
    write_dataset_csv,
    write_truth_json,
)
from envcausal.dgp import _bulk_table

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
    loaded = read_dataset(csv_path)
    assert loaded.dtype == np.float64 and loaded.tobytes() == dataset.samples.tobytes()
    payload = json.loads(truth_path.read_text())
    assert (payload["structure"], payload["regime"], payload["seed"]) == (
        dataset.truth.value, dataset.regime.value, dataset.seed
    )
    fields = ("theta", "psi_loc", "psi_coef", "psi_nonlinear")
    assert all(type(row["psi_nonlinear"]) is bool for row in payload["params"])
    params = np.array([[row[f] for f in fields] for row in payload["params"]], dtype=np.float64)
    assert params.tobytes() == dataset.params.tobytes()


def test_reader_rejects_bad_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("environment,sample,x,y\n0,0,1.0,2.0\n")
    with pytest.raises(DataFormatError) as err:
        read_dataset(path)
    assert err.value.line == 1


def test_reader_names_the_malformed_line(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("env,sample,x,y\n0,0,1.0,2.0\n0,1,oops,2.0\n")
    with pytest.raises(DataFormatError) as err:
        read_dataset(path)
    assert err.value.line == 3


def test_reader_rejects_gapped_environments(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("env,sample,x,y\n0,0,1.0,2.0\n0,1,1.0,2.0\n2,0,1.0,2.0\n2,1,1.0,2.0\n")
    with pytest.raises(DataFormatError, match="contiguous"):
        read_dataset(path)


def test_reader_rejects_non_finite_values(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("env,sample,x,y\n0,0,inf,2.0\n")
    with pytest.raises(DataFormatError) as err:
        read_dataset(path)
    assert err.value.line == 2


def test_reader_rejects_unequal_sample_counts(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("env,sample,x,y\n0,0,1.0,2.0\n0,1,1.0,2.0\n1,0,1.0,2.0\n")
    with pytest.raises(DataFormatError, match="equal sample counts"):
        read_dataset(path)


def test_reader_places_rows_by_their_indices(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text("env,sample,x,y\n1,1,7.0,8.0\n0,0,1.0,2.0\n1,0,5.0,6.0\n\n0,1,3.0,4.0\n")
    np.testing.assert_array_equal(
        read_dataset(path), [[[1.0, 2.0], [3.0, 4.0]], [[5.0, 6.0], [7.0, 8.0]]]
    )


def _oracle_csv_table(path):
    """The dataset reader as it was before its bulk pass: csv.reader, then
    Python's int and float per field, the first bad record named by the
    number of its first physical line. Records are checked as they are read,
    so a csv.Error (a field over the size limit) becomes a DataFormatError
    on the line where it stopped only when no earlier record is bad."""
    header, lines, index, values = None, [], [], []
    with open(path, newline="") as f:
        reader = csv.reader(f)
        last = 0  # the last physical line of the previous record
        try:
            for row in reader:
                line, last = last + 1, reader.line_num
                if header is None:
                    header = row
                    if [h.strip() for h in header] != ["env", "sample", "x", "y"]:
                        raise DataFormatError("expected header env,sample,x,y", line=1)
                    continue
                if not row:
                    continue
                if len(row) != 4:
                    raise DataFormatError(f"expected 4 columns, got {len(row)}", line=line)
                try:
                    index.append([int(v) for v in row[:2]])
                    values.append([float(v) for v in row[2:]])
                except ValueError:
                    raise DataFormatError(f"unparseable row {row!r}", line=line)
                if not all(0 <= i < 2**63 for i in index[-1]) or not all(map(math.isfinite, values[-1])):
                    raise DataFormatError(f"invalid values in row {row!r}", line=line)
                lines.append(line)
        except csv.Error as exc:
            raise DataFormatError(f"cannot parse dataset file: {exc}", line=reader.line_num)
    if header is None:
        raise DataFormatError("empty dataset file", line=1)
    shape = (len(lines), 2)
    lines = np.array(lines, dtype=np.int64)
    return np.array(index, dtype=np.int64).reshape(shape), np.array(values).reshape(shape), lines


def _oracle_environments(path):
    """read_dataset as it was: every row order sorted."""
    index, values, _ = _oracle_csv_table(path)
    if index.shape[0] == 0:
        raise DataFormatError("dataset contains no rows", line=2)
    env, sample = index[:, 0], index[:, 1]
    envs, counts = np.unique(env, return_counts=True)
    if envs[-1] != envs.size - 1:
        raise DataFormatError("environment indices must be 0-based and contiguous")
    order = np.lexsort((sample, env))
    starts = np.cumsum(counts) - counts
    gapped = sample[order] != np.arange(order.size) - starts[env[order]]
    if np.any(gapped):
        e = int(env[order][gapped][0])
        raise DataFormatError(f"sample indices in environment {e} must be 0-based and contiguous")
    uneven = np.flatnonzero(counts != counts[0])
    if uneven.size:
        e = int(uneven[0])
        raise DataFormatError(
            f"environments must have equal sample counts: environment 0 has {counts[0]}, "
            f"environment {e} has {counts[e]}"
        )
    samples = np.empty((counts.size, int(counts[0]), 2))
    samples[env, sample] = values
    return samples


_ODD_FIELDS = [
    "1.0", "+0", "-0", "00", " 1 ", str(2**63), str(2**63 - 1), "-1", "1_0", "Infinity", "-inf",
    "nan", "1e400", "0x10", "1d3", "", '"1"', '"1.5"x', '"1\n"', '1"', "\u0661", "1\x85", "1\x00",
]
_ODD_LINES = [
    "", " ", "\t", "#0,0,1,2", "0,0,1,2,", '"0","0","1.5","2"', "0,0,1", "0,0,1,2,3", '"', "\f",
]
_ASCII = st.text(st.characters(max_codepoint=127), max_size=6)


@st.composite
def _garbled_dataset_csv(draw):
    """Dataset bytes as write_dataset_csv writes them, or a hand edit of
    them: another line end, header spacing, row order, odd fields or lines."""
    e = draw(st.integers(1, 5))
    n = draw(st.integers(1, 3))
    finite = st.floats(allow_nan=False, allow_infinity=False)
    rows = [
        [str(k // n), str(k % n), repr(draw(finite)), repr(draw(finite))] for k in range(e * n)
    ]
    if draw(st.booleans()):
        rows = draw(st.permutations(rows))
    for _ in range(draw(st.integers(0, 2))):
        row = rows[draw(st.integers(0, len(rows) - 1))]
        row[draw(st.integers(0, 3))] = draw(st.sampled_from(_ODD_FIELDS) | _ASCII | st.text(max_size=4))
    lines = [",".join(row) for row in rows]
    for _ in range(draw(st.integers(0, 2))):
        line = draw(st.sampled_from(_ODD_LINES) | _ASCII | st.text(max_size=8))
        lines.insert(draw(st.integers(0, len(lines))), line)
    header = draw(st.sampled_from(["env,sample,x,y", " env, sample ,x,y", '"env",sample,x,y', "env,sample,x"]))
    end = draw(st.sampled_from(["\r\n", "\n", "\r"]))
    text = end.join([header] + lines) + draw(st.sampled_from([end, "", end + end]))
    return text.encode()


def _outcome(read, path):
    """What ``read`` made of ``path``: each array's dtype, shape and bytes, or the error."""
    try:
        result = read(path)
    except DataFormatError as exc:
        return "error", str(exc), exc.line
    except (ValueError, csv.Error) as exc:
        return type(exc).__name__, str(exc)
    arrays = map(np.asarray, result if isinstance(result, tuple) else (result,))
    return "ok", [(a.dtype.str, a.shape, a.tobytes()) for a in arrays]


def _dataset_header_error(header):
    return None if header == ["env", "sample", "x", "y"] else "expected header env,sample,x,y"


def _assert_readers_agree(path):
    table = _outcome(lambda p: read_csv_table(p, "dataset", _dataset_header_error, 2), path)
    assert table == _outcome(_oracle_csv_table, path)
    assert _outcome(read_dataset, path) == _outcome(_oracle_environments, path)


@given(st.data())
@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_reader_agrees_with_the_row_by_row_reader(tmp_path, data):
    # The bulk pass may hand a file to the row walk, but never reads one
    # differently: the same bits, or the same error on the same line.
    path = tmp_path / "d.csv"
    path.write_bytes(data.draw(_garbled_dataset_csv() | st.binary(max_size=60)))
    _assert_readers_agree(path)


_EDGE_FILES = {
    "comment-row": "env,sample,x,y\n#0,0,1,2\n0,0,1,2\n",
    "comment-tail": "env,sample,x,y\n0,0,1,2#\n",
    "quoted": 'env,sample,x,y\n"0","0","1.5","2"\n',
    "quoted-line-break": 'env,sample,x,y\n0,0,"1\n",2\n0,1,3,4\n',
    "quoted-header-break": '"env\n",sample,x,y\n0,0,1,2\n',
    "quoted-crlf-break": 'env,sample,x,y\r\n0,0,"1.5\r\n",2\r\n0,1,bad,3\r\n',
    "bad-row-before-long-field": "env,sample,x,y\n0,0,1,2\n0,1,bad,3\n0,2," + "1" * 200_000 + ",4\n",
    "blank-lines": "env,sample,x,y\r\n\r\n0,0,1,2\r\n\r\n\r\n0,1,3,4\r\n\r\n",
    "whitespace-line": "env,sample,x,y\n0,0,1,2\n \n",
    "cr-only": "env,sample,x,y\r0,0,1,2\r\r0,1,3,4\r",
    "float-index": "env,sample,x,y\n1.0,0,1,2\n",
    "signed-index": "env,sample,x,y\n+0,-0,1,2\n",
    "index-2**63": f"env,sample,x,y\n{2**63},0,1,2\n",
    "underscore": "env,sample,x,y\n0,0,1_0,2\n",
    "infinity": "env,sample,x,y\n0,0,Infinity,2\n",
    "hex": "env,sample,x,y\n0,0,0x10,2\n",
    "separator-around-number": "env,sample,x,y\n0,0,1\x1e,2\n0,1,3,\x1c4\n",
    "fortran-exponent": "env,sample,x,y\n0,0,1d3,2\n",
    "trailing-comma": "env,sample,x,y\n0,0,1,2,\n",
    "arabic-digit": "env,sample,x,y\n\u0660,0,1,2\n",
    "swapped-samples": "env,sample,x,y\n0,1,1,2\n0,0,3,4\n1,0,5,6\n1,1,7,8\n",
    "spaced-header": " env , sample,x,y\n0,0, 1 ,2\n",
    "header-only": "env,sample,x,y\r\n",
    "empty": "",
    "long-field": "env,sample,x,y\n0,0,0." + "0" * 131072 + "1,2\n",
}


@pytest.mark.parametrize("text", _EDGE_FILES.values(), ids=_EDGE_FILES.keys())
def test_reader_agrees_with_the_row_by_row_reader_on_edge_files(tmp_path, text):
    path = tmp_path / "d.csv"
    path.write_bytes(text.encode())
    _assert_readers_agree(path)


def test_reader_reads_written_rows_in_order_and_shuffled_the_same(tmp_path):
    dataset = simulate_dataset(_config(FULL, CausalStructure.X_TO_Y, e=30, n=3), 9)
    path = tmp_path / "d.csv"
    write_dataset_csv(dataset, path)
    header, *rows = path.read_text().splitlines()
    order = np.random.default_rng(0).permutation(len(rows))
    shuffled = tmp_path / "shuffled.csv"
    shuffled.write_text("\n".join([header] + [rows[i] for i in order]) + "\n")
    for p in (path, shuffled):
        samples = read_dataset(p)
        assert samples.flags.c_contiguous
        assert samples.tobytes() == dataset.samples.tobytes()


@pytest.mark.parametrize("end", ["\r\n", "\n", "\r"], ids=["written", "lf", "cr"])
def test_bulk_pass_reads_written_files_and_their_line_end_rewrites(tmp_path, end):
    # Only discover's speed would show the bulk pass handing these to the row walk.
    dataset = simulate_dataset(_config(FULL, CausalStructure.X_TO_Y, e=30, n=3), 9)
    path = tmp_path / "d.csv"
    write_dataset_csv(dataset, path)
    raw = path.read_bytes()
    if end != "\r\n":
        header, *rows = raw.decode().split("\r\n")
        raw = end.join([header, "", *rows[:5], "", "", *rows[5:]]).encode()
    table = _bulk_table(raw, _dataset_header_error, 2)
    assert table is not None
    index, values, lines = table
    assert values.tobytes() == dataset.samples.reshape(-1, 2).tobytes()
    assert index.tolist() == [[e, j] for e in range(30) for j in range(3)]
    expected = np.arange(2, 92) if end == "\r\n" else np.r_[3:8, 10:95]
    np.testing.assert_array_equal(lines, expected)
    path.write_bytes(raw)
    assert _outcome(read_dataset, path) == _outcome(_oracle_environments, path)


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


@pytest.mark.parametrize(
    "field, value, message",
    [
        ("seed", 1.5, "seed: expected an integer"),
        ("noise_scale", float("nan"), "noise_scale: expected a finite number"),
        ("noise_scale", 0.0, "noise_scale must be positive and finite"),
        ("collapse_noise", "no", "collapse_noise: expected true or false"),
        ("truth", "sideways", "truth: expected one of x_to_y, y_to_x, independent, got 'sideways'"),
    ],
)
def test_dataset_converts_and_checks_its_scalar_fields(field, value, message):
    # A NaN noise scale used to construct, and joint_log_density then gave nan.
    kwargs = dict(samples=np.zeros((2, 2, 2)), truth="independent", regime=IID, params=np.zeros((2, 4)), seed=0)
    with pytest.raises(InvalidConfig) as err:
        MultiEnvDataset(**dict(kwargs, **{field: value}))
    assert str(err.value) == message
    dataset = MultiEnvDataset(**kwargs)
    assert dataset.truth is CausalStructure.INDEPENDENT and type(dataset.seed) is int


@pytest.mark.parametrize("params", [[], [[0.0, 0.0, 1.0, 0.0]] * 3, [[0.0, 0.0, 1.0]] * 2])
def test_simulate_with_params_requires_an_environment_by_four_table(params):
    with pytest.raises(InvalidConfig):
        simulate_with_params(
            _config(IID, CausalStructure.X_TO_Y, e=2), CausalStructure.X_TO_Y, params, seed=0
        )


_OVERFLOWS = {
    "square": (_config(FULL, CausalStructure.X_TO_Y, e=30, noise_scale=1e300), None),
    "noise": (_config(IID, CausalStructure.INDEPENDENT, e=30, noise_scale=1.7e308), None),
    "coefficient": (_config(FULL, CausalStructure.Y_TO_X, e=2), [[0.0, 0.0, 1e308, 0.0]] * 2),
    "location": (_config(FULL, CausalStructure.X_TO_Y, e=2), [[1.7e308, 0.0, 1.0, 1.0]] * 2),
}


@pytest.mark.parametrize("config, params", _OVERFLOWS.values(), ids=_OVERFLOWS.keys())
def test_samples_past_the_float_range_are_refused_without_a_warning(config, params):
    # Overflow used to warn and hand back samples holding inf or nan.
    with pytest.raises(InvalidConfig, match="^samples overflow the float range"):
        if params is None:
            simulate_dataset(config, 1)
        else:
            simulate_with_params(config, config.structure, params, seed=1)
