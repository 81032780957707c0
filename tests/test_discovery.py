"""Structure decision rule: pairing, alpha-gated selection, symmetries."""

import dataclasses

import numpy as np
import pytest

from scipy.stats import chi2

from envcausal.citest import (
    InsufficientSamples,
    conditional_independence_test,
    marginal_independence_test,
)
from envcausal.dgp import (
    CausalStructure,
    DGPConfig,
    MultiEnvDataset,
    VariabilityRegime,
    simulate_dataset,
    simulate_with_params,
)
from envcausal.discovery import (
    LINEAR_GATE_LEVEL,
    DiscoveryDecision,
    InsufficientEnvironments,
    _decide,
    build_cross_sample_pairs,
    discover_structure,
    random_baseline,
)
from envcausal._streams import substream

FULL = VariabilityRegime.FULL_EXCHANGEABLE
CAUSE = VariabilityRegime.CAUSE_VARIABILITY
IID = VariabilityRegime.IID


def _dataset(regime, structure, e=100, seed=0, **kw):
    return simulate_dataset(
        DGPConfig(n_environments=e, regime=regime, structure=structure, **kw), seed
    )


def _with_samples(dataset, samples, truth=None):
    return dataclasses.replace(dataset, samples=samples, truth=truth or dataset.truth)


# ---------------------------------------------------------------------------
# Pair construction.


def test_pairs_use_first_two_samples_in_order():
    dataset = _dataset(FULL, CausalStructure.X_TO_Y, e=3)
    pairs = build_cross_sample_pairs(dataset)
    assert pairs.shape == (3, 2, 2)
    np.testing.assert_array_equal(pairs, dataset.samples[:, :2])


def test_pairs_ignore_extra_samples():
    two = _dataset(IID, CausalStructure.X_TO_Y, e=5, seed=9, samples_per_env=2)
    five = _dataset(IID, CausalStructure.X_TO_Y, e=5, seed=9, samples_per_env=5)
    np.testing.assert_array_equal(
        build_cross_sample_pairs(two), build_cross_sample_pairs(five)
    )


def test_pairs_reject_single_sample_environment():
    dataset = _dataset(FULL, CausalStructure.X_TO_Y, e=4, samples_per_env=1)
    assert dataset.samples.shape == (4, 1, 2)
    with pytest.raises(InsufficientSamples, match="need at least 2"):
        build_cross_sample_pairs(dataset)


# ---------------------------------------------------------------------------
# Decision rule.


def test_directed_truth_recovery_rate_under_full_variability():
    # 94 of these 100 datasets are recovered; the bound sits two binomial
    # standard deviations below a true rate of 0.95.
    correct = 0
    for s in range(100):
        truth = CausalStructure.X_TO_Y if s % 2 == 0 else CausalStructure.Y_TO_X
        dataset = _dataset(FULL, truth, e=500, seed=s)
        correct += discover_structure(dataset).structure is truth
    assert correct >= 91


def test_independent_truth_recovered_unless_marginal_test_rejects():
    # All three nulls hold, so the marginal p-value is uniform and the
    # gated rule answers "independent" with probability 1 - alpha = 0.95.
    # 94 of these 100 are recovered; the bound sits four
    # binomial standard deviations below 95.
    correct = 0
    for s in range(100):
        dataset = _dataset(FULL, CausalStructure.INDEPENDENT, e=500, seed=s)
        correct += discover_structure(dataset).structure is CausalStructure.INDEPENDENT
    assert correct >= 86


def test_iid_regime_keeps_direction_recovery_at_chance():
    correct = 0
    for s in range(100):
        truth = CausalStructure.X_TO_Y if s % 2 == 0 else CausalStructure.Y_TO_X
        dataset = _dataset(IID, truth, e=500, seed=s)
        correct += discover_structure(dataset).structure is truth
    assert 35 <= correct <= 65


def _gated(p_x_to_y, p_y_to_x, p_independent, alpha):
    if p_independent > alpha:
        return CausalStructure.INDEPENDENT
    if (p_x_to_y > alpha) != (p_y_to_x > alpha):
        return CausalStructure.X_TO_Y if p_x_to_y > alpha else CausalStructure.Y_TO_X
    return CausalStructure.X_TO_Y if p_x_to_y >= p_y_to_x else CausalStructure.Y_TO_X


@pytest.mark.parametrize("seed", range(4, 9))
def test_decision_follows_the_alpha_gated_rule(seed):
    dataset = _dataset(FULL, CausalStructure.X_TO_Y, e=60, seed=seed)
    decision = discover_structure(dataset, alpha=0.17)
    assert decision.alpha == 0.17
    p = (decision.p_x_to_y, decision.p_y_to_x, decision.p_independent)
    assert decision.structure is _gated(*p, 0.17)
    # Alpha moves the marginal gate: just below p_independent the answer
    # is "independent", just above it is a direction.
    assert 0.0 < decision.p_independent < 0.5
    low = discover_structure(dataset, alpha=decision.p_independent / 2)
    high = discover_structure(dataset, alpha=decision.p_independent * 2)
    assert low.structure is CausalStructure.INDEPENDENT
    assert high.structure is _gated(*p, decision.p_independent * 2)
    assert high.structure is not CausalStructure.INDEPENDENT


def _gcm_p_values(dataset, linear_only):
    pairs = build_cross_sample_pairs(dataset)
    x1, y1 = pairs[..., 0], pairs[..., 1]
    x2, y2 = x1[:, ::-1], y1[:, ::-1]
    marginal = marginal_independence_test(x1, y1)
    gated = marginal.components[0] > chi2.isf(LINEAR_GATE_LEVEL, 1)
    moments = {"linear_only": linear_only, "squares_only": not linear_only}
    p_x_to_y = conditional_independence_test(y1, x2, x1, **moments)
    p_y_to_x = conditional_independence_test(x1, y2, y1, **moments)
    return gated, (p_x_to_y.p_value, p_y_to_x.p_value, marginal.p_value)


def test_shared_coupling_sign_gates_gcm_to_the_linear_pair():
    # One mechanism for all environments: the linear moment carries the
    # dependence and the conditional tests keep that pair alone.
    shared = _dataset(CAUSE, CausalStructure.X_TO_Y, e=300, seed=2)
    gated, expected = _gcm_p_values(shared, linear_only=True)
    decision = discover_structure(shared)
    assert gated
    assert (decision.p_x_to_y, decision.p_y_to_x, decision.p_independent) == expected
    # Coupling signs alternate between environments: the linear moment
    # averages out and the squares pair alone stays, tested one-sided.
    config = DGPConfig(n_environments=300, regime=FULL, structure=CausalStructure.X_TO_Y)
    params = [[0.0, 0.0, (-1.0) ** e, 0.0] for e in range(300)]
    flipping = simulate_with_params(config, CausalStructure.X_TO_Y, params, seed=2)
    gated, expected = _gcm_p_values(flipping, linear_only=False)
    decision = discover_structure(flipping)
    assert not gated
    assert (decision.p_x_to_y, decision.p_y_to_x, decision.p_independent) == expected


def test_directions_tied_up_to_rounding_decide_x_to_y():
    # Collapsed effect noise and one decreasing linear mechanism: y is a
    # fixed function of x in every environment, so the two conditional
    # tests see mirror images and their p-values part only in the last
    # bits (here p_y_to_x comes out the larger).
    e = 100
    config = DGPConfig(e, CAUSE, CausalStructure.Y_TO_X, collapse_noise=True)
    params = np.zeros((e, 4))
    params[:, 0] = np.linspace(-1.0, 1.0, e)
    params[:, 1:3] = 0.5, -0.8
    dataset = simulate_with_params(config, CausalStructure.Y_TO_X, params, seed=1)
    decision = discover_structure(dataset)
    assert decision.p_independent < decision.alpha
    assert decision.p_x_to_y == pytest.approx(decision.p_y_to_x, rel=1e-11, abs=0.0)
    assert decision.structure is CausalStructure.X_TO_Y
    # The rule alone: a relative 1e-12 is a tie either way, 1e-6 is not.
    for p, q in [(0.3, 0.3 * (1 + 1e-12)), (0.3 * (1 + 1e-12), 0.3)]:
        assert _decide(p, q, 0.01, 0.05) is CausalStructure.X_TO_Y
        assert _decide(p / 100, q / 100, 0.01, 0.05) is CausalStructure.X_TO_Y
    assert _decide(0.3, 0.3 * (1 + 1e-6), 0.01, 0.05) is CausalStructure.Y_TO_X


def test_directed_truth_recovery_rate_under_cause_variability():
    # The reverse null fails only through the cause parameter shared by
    # an environment's two samples. 44 of these 50 are recovered (0.92 on
    # 300 other seeds); the bound sits three binomial standard deviations
    # below 46, the count at that rate.
    correct = 0
    for s in range(50):
        truth = CausalStructure.X_TO_Y if s % 2 == 0 else CausalStructure.Y_TO_X
        correct += discover_structure(_dataset(CAUSE, truth, e=500, seed=s)).structure is truth
    assert correct >= 40


def test_alpha_and_environment_count_validation():
    dataset = _dataset(FULL, CausalStructure.X_TO_Y, e=19)
    with pytest.raises(InsufficientEnvironments):
        discover_structure(dataset)
    ok = _dataset(FULL, CausalStructure.X_TO_Y, e=20)
    with pytest.raises(ValueError, match="alpha"):
        discover_structure(ok, alpha=0.0)


def test_degenerate_dataset_is_decided_independent():
    # Collapsed noise in the iid regime makes every column constant, so
    # all three tests return p = 1 with flags; the marginal gate keeps the
    # null and the decision is this dataset's truth.
    dataset = _dataset(
        IID, CausalStructure.INDEPENDENT, e=20, seed=1, collapse_noise=True
    )
    decision = discover_structure(dataset)
    assert decision.p_x_to_y == decision.p_y_to_x == decision.p_independent == 1.0
    assert decision.structure is CausalStructure.INDEPENDENT
    assert any("zero_variance" in f for f in decision.flags)


def test_to_dict_round_trips_the_reported_fields():
    dataset = _dataset(FULL, CausalStructure.X_TO_Y, e=40, seed=6)
    decision = discover_structure(dataset)
    payload = decision.to_dict()
    assert set(payload) == {
        "structure",
        "p_x_to_y",
        "p_y_to_x",
        "p_independent",
        "alpha",
        "flags",
    }
    assert payload["structure"] == decision.structure.value
    assert payload["flags"] == list(decision.flags)


# ---------------------------------------------------------------------------
# Symmetries.


def test_label_symmetry_swaps_direction_and_p_values():
    dataset = _dataset(FULL, CausalStructure.X_TO_Y, e=120, seed=3)
    swapped = _with_samples(
        dataset, dataset.samples[..., ::-1].copy(), truth=CausalStructure.Y_TO_X
    )
    original = discover_structure(dataset)
    mirrored = discover_structure(swapped)
    assert mirrored.p_x_to_y == original.p_y_to_x
    assert mirrored.p_y_to_x == original.p_x_to_y
    mapping = {
        CausalStructure.X_TO_Y: CausalStructure.Y_TO_X,
        CausalStructure.Y_TO_X: CausalStructure.X_TO_Y,
        CausalStructure.INDEPENDENT: CausalStructure.INDEPENDENT,
    }
    assert mirrored.structure is mapping[original.structure]


def test_label_symmetry_holds_on_the_linear_gcm_path():
    # One shared, same-sign linear coupling: the marginal linear moment
    # passes the gate whatever the noise stream.
    config = DGPConfig(n_environments=300, regime=CAUSE, structure=CausalStructure.X_TO_Y)
    params = [[theta, 0.0, 2.0, 0.0] for theta in np.linspace(-1.0, 1.0, 300)]
    dataset = simulate_with_params(config, CausalStructure.X_TO_Y, params, seed=3)
    swapped = _with_samples(
        dataset, dataset.samples[..., ::-1].copy(), truth=CausalStructure.Y_TO_X
    )
    assert _gcm_p_values(dataset, linear_only=True)[0]
    original = discover_structure(dataset)
    mirrored = discover_structure(swapped)
    assert mirrored.p_x_to_y == original.p_y_to_x
    assert mirrored.p_y_to_x == original.p_x_to_y
    assert mirrored.p_independent == original.p_independent


def test_environment_order_does_not_matter():
    dataset = _dataset(FULL, CausalStructure.Y_TO_X, e=80, seed=8)
    order = np.random.default_rng(0).permutation(80)
    permuted = MultiEnvDataset(
        samples=dataset.samples[order],
        truth=dataset.truth,
        regime=dataset.regime,
        params=dataset.params[order],
        seed=dataset.seed,
    )
    a = discover_structure(dataset)
    b = discover_structure(permuted)
    # Reordering only changes float summation order inside the correlations.
    assert b.p_x_to_y == pytest.approx(a.p_x_to_y, abs=1e-12)
    assert b.p_y_to_x == pytest.approx(a.p_y_to_x, abs=1e-12)
    assert b.p_independent == pytest.approx(a.p_independent, abs=1e-12)
    assert b.structure is a.structure


def test_within_environment_sample_swap_preserves_accuracy():
    plain = swapped_hits = 0
    for s in range(100):
        dataset = _dataset(FULL, "random", e=100, seed=s)
        plain += discover_structure(dataset).structure is dataset.truth
        swapped = _with_samples(dataset, dataset.samples[:, ::-1].copy())
        swapped_hits += discover_structure(swapped).structure is dataset.truth
    assert abs(plain - swapped_hits) / 100 < 0.05


# ---------------------------------------------------------------------------
# Baseline.


def test_random_baseline_is_uniform():
    rng = substream(99)
    counts = {tag: 0 for tag in CausalStructure}
    draws = 30_000
    for _ in range(draws):
        counts[random_baseline(rng)] += 1
    for tag in CausalStructure:
        assert abs(counts[tag] / draws - 1.0 / 3.0) < 0.01


def test_random_baseline_is_seed_stable():
    a = [random_baseline(substream(5, 1)) for _ in range(1)]
    b = [random_baseline(substream(5, 1)) for _ in range(1)]
    assert a == b
    assert random_baseline(substream(0)) in set(CausalStructure)
