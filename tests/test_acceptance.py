"""Suite-level gate: each check prints its own verdict line.

The default benchmark sweep (1500 cells) runs once, module-scoped, and is
shared by every check that reads accuracies off it. Checks print their
PASS/FAIL line before asserting so the printed report is complete even
when a criterion is not met.
"""

import time

import numpy as np
import pytest
import scipy.stats

from envcausal.citest import marginal_independence_test
from envcausal.cli import BenchConfig, run_benchmark
from envcausal.dgp import (
    CausalStructure,
    DGPConfig,
    MultiEnvDataset,
    VariabilityRegime,
    joint_log_density,
    simulate_dataset,
)
from envcausal.discovery import discover_structure
from envcausal.duality import (
    DualityConfig,
    MixingKind,
    MixingSpec,
    SourceFamily,
    build_elementwise_transport,
    source_quantiles,
    verify_duality,
)
from envcausal.variability import (
    DensityFamily,
    DensitySpec,
    DiscrepancyQuery,
    build_modulation_matrix,
    check_sufficient_variability,
    default_discrepancy_interval,
    interventional_discrepancy_fraction,
)
from envcausal._streams import open_uniform, substream

FULL = VariabilityRegime.FULL_EXCHANGEABLE
CAUSE = VariabilityRegime.CAUSE_VARIABILITY
MECH = VariabilityRegime.MECHANISM_VARIABILITY
G = DensityFamily.GAUSSIAN


def _verdict(number: int, ok: bool, detail: str) -> None:
    print(f"[criterion {number}] {'PASS' if ok else 'FAIL'}: {detail}")


@pytest.fixture(scope="module")
def default_sweep():
    config = BenchConfig()
    start = time.perf_counter()
    cells, summary = run_benchmark(config)
    elapsed = time.perf_counter() - start
    by_key = {(row.regime, row.n_envs): row for row in summary}
    return cells, by_key, elapsed


def test_1_default_sweep_speed_and_full_variability_accuracy(default_sweep):
    _, by_key, elapsed = default_sweep
    acc = by_key[(FULL, 500)].accuracy_mean
    ok = elapsed < 300.0 and acc >= 0.95
    _verdict(
        1,
        ok,
        f"default sweep took {elapsed:.1f}s (limit 300s); "
        f"fully-varying accuracy at 500 environments {acc:.3f} (need >= 0.95)",
    )
    assert ok


def test_2_single_sided_variability_accuracy(default_sweep):
    _, by_key, _ = default_sweep
    cause_acc = by_key[(CAUSE, 500)].accuracy_mean
    mech_acc = by_key[(MECH, 500)].accuracy_mean
    ok = cause_acc >= 0.90 and mech_acc >= 0.90
    _verdict(
        2,
        ok,
        f"accuracy at 500 environments: cause-only {cause_acc:.3f}, "
        f"mechanism-only {mech_acc:.3f} (each needs >= 0.90)",
    )
    assert ok


def test_3_no_variability_negative_control():
    correct = 0
    for s in range(100):
        truth = CausalStructure.X_TO_Y if s % 2 == 0 else CausalStructure.Y_TO_X
        dataset = simulate_dataset(
            DGPConfig(n_environments=500, regime=VariabilityRegime.IID, structure=truth), s
        )
        correct += discover_structure(dataset.samples).structure is truth
    acc = correct / 100
    ok = 0.35 <= acc <= 0.65
    _verdict(
        3,
        ok,
        f"direction recovery without environment variability {acc:.2f} "
        f"(chance band [0.35, 0.65])",
    )
    assert ok


def test_4_random_baseline_sits_at_one_third(default_sweep):
    cells, _, _ = default_sweep
    hits = [c.baseline_correct for c in cells]
    acc = float(np.mean(hits))
    ok = len(cells) >= 1500 and abs(acc - 1.0 / 3.0) <= 0.05
    _verdict(
        4,
        ok,
        f"random baseline accuracy {acc:.3f} over {len(cells)} cells "
        f"(band 1/3 +/- 0.05)",
    )
    assert ok


def test_5_accuracy_does_not_degrade_with_more_environments(default_sweep):
    _, by_key, _ = default_sweep
    detail, ok = [], True
    for regime in (FULL, CAUSE, MECH):
        lo = by_key[(regime, 100)].accuracy_mean
        hi = by_key[(regime, 500)].accuracy_mean
        ok = ok and hi >= lo - 0.05
        detail.append(f"{regime.value}: {lo:.3f} -> {hi:.3f}")
    _verdict(5, ok, "accuracy from 100 to 500 environments (allowing -0.05): " + "; ".join(detail))
    assert ok


def test_6_generic_full_rank_and_constructed_deficiency():
    rng = substream(600)
    full = 0
    for _ in range(1000):
        table = rng.uniform(-1.0, 1.0, size=(4, 3))
        full += check_sufficient_variability(build_modulation_matrix(table)).full_column_rank
    deficient = 0
    for _ in range(100):
        table = rng.uniform(-1.0, 1.0, size=(4, 3))
        table[:, 1] = table[0, 1]  # pin one coordinate across environments
        deficient += not check_sufficient_variability(
            build_modulation_matrix(table)
        ).full_column_rank
    ok = full == 1000 and deficient == 100
    _verdict(
        6,
        ok,
        f"generic 4x3 draws full rank in {full}/1000; "
        f"pinned-coordinate tables rank-deficient in {deficient}/100",
    )
    assert ok


def test_7_log_ratio_derivative_on_analytic_pairs():
    unit = DensitySpec(G, 0.0, 1.0)
    shifted = DensitySpec(G, 1.0, 1.0)
    widened = DensitySpec(G, 0.0, 2.0)
    shift_fraction, shift_holds = interventional_discrepancy_fraction(
        DiscrepancyQuery(unit, shifted, default_discrepancy_interval(unit, shifted))
    )
    same_fraction, same_holds = interventional_discrepancy_fraction(
        DiscrepancyQuery(unit, DensitySpec(G, 0.0, 1.0), (-5.0, 5.0))
    )
    scale_fraction, scale_holds = interventional_discrepancy_fraction(
        DiscrepancyQuery(unit, widened, default_discrepancy_interval(unit, widened))
    )
    ok = (
        shift_fraction == 0.0
        and shift_holds
        and same_fraction == 1.0
        and not same_holds
        and scale_fraction <= 0.001
        and scale_holds
    )
    _verdict(
        7,
        ok,
        f"vanishing fraction: mean shift {shift_fraction}, identical {same_fraction}, "
        f"scale-only {scale_fraction:.5f} (need 0 / 1 / <= 0.001)",
    )
    assert ok


def test_8_pipeline_duality_verification_and_calibration():
    base = SourceFamily(G, (0.0, 0.0), (1.0, 1.0))
    per_u = (
        SourceFamily(G, (0.0, 0.0), (0.5, 0.5)),
        SourceFamily(G, (0.0, 0.0), (2.0, 2.0)),
    )
    config = DualityConfig(
        MixingSpec(MixingKind.TRIANGULAR_AFFINE_TANH, 2, seed=0), base, per_u, 5000, seed=0
    )
    report = verify_duality(config, level=0.01)

    f = config.f
    uniforms = open_uniform(substream(800), size=(5000, 2))
    max_diff = 0.0
    for target in per_u:
        direct = f.apply(source_quantiles(target, uniforms))
        moved = f.apply(build_elementwise_transport(base, target)(source_quantiles(base, uniforms)))
        max_diff = max(max_diff, float(np.max(np.abs(direct - moved))))

    rejected = 0
    for s in range(200):
        null_config = DualityConfig(
            MixingSpec(MixingKind.TRIANGULAR_AFFINE_TANH, 2, seed=1), base, (base,), 5000, seed=s
        )
        rejected += not verify_duality(null_config, level=0.05).overall_pass
    rate = rejected / 200

    ok = report.overall_pass and max_diff <= 1e-10 and 0.01 <= rate <= 0.12
    _verdict(
        8,
        ok,
        f"scale pair verification pass={report.overall_pass}; shared-quantile max diff "
        f"{max_diff:.2e} (<= 1e-10); null rejection rate {rate:.3f} (band [0.01, 0.12])",
    )
    assert ok


def test_9_invariance_bundle():
    # Within-environment row permutations must not move the joint density.
    dataset = simulate_dataset(
        DGPConfig(
            n_environments=8,
            regime=FULL,
            structure=CausalStructure.X_TO_Y,
            samples_per_env=5,
        ),
        900,
    )
    value = joint_log_density(dataset)
    rng = np.random.default_rng(900)
    shuffled = MultiEnvDataset(
        samples=np.stack([env[rng.permutation(len(env))] for env in dataset.samples]),
        truth=dataset.truth,
        regime=dataset.regime,
        params=dataset.params,
        seed=dataset.seed,
    )
    density_ok = abs(joint_log_density(shuffled) - value) <= 1e-9

    # Swapping the two observed columns must mirror the decision.
    directed = simulate_dataset(
        DGPConfig(n_environments=120, regime=FULL, structure=CausalStructure.X_TO_Y), 901
    )
    a = discover_structure(directed.samples)
    b = discover_structure(directed.samples[..., ::-1].copy())
    symmetry_ok = (
        b.p_x_to_y == a.p_y_to_x
        and b.p_y_to_x == a.p_x_to_y
        and (a.structure, b.structure)
        in {
            (CausalStructure.X_TO_Y, CausalStructure.Y_TO_X),
            (CausalStructure.Y_TO_X, CausalStructure.X_TO_Y),
            (CausalStructure.INDEPENDENT, CausalStructure.INDEPENDENT),
        }
    )

    # Difference-matrix diagnostics ignore translation, baseline, scale.
    table = substream(902).uniform(-1.0, 1.0, size=(5, 3))
    base_report = check_sufficient_variability(build_modulation_matrix(table))
    translated = np.allclose(
        build_modulation_matrix(table + 2.5),
        build_modulation_matrix(table),
        atol=1e-12,
    )
    baselines = {
        check_sufficient_variability(build_modulation_matrix(table, baseline_index=b)).rank
        for b in range(5)
    }
    scaled = check_sufficient_variability(build_modulation_matrix(table * 4.0))
    matrix_ok = (
        translated
        and baselines == {base_report.rank}
        and scaled.rank == base_report.rank
        and np.isclose(scaled.condition_number, base_report.condition_number, rtol=1e-12)
    )

    # Null p-values stay close to uniform.
    rng = np.random.default_rng(903)
    p_values = [
        marginal_independence_test(rng.standard_normal(60), rng.standard_normal(60)).p_value
        for _ in range(1000)
    ]
    ks = scipy.stats.kstest(p_values, "uniform").statistic
    calibration_ok = ks < 0.06

    ok = density_ok and symmetry_ok and matrix_ok and calibration_ok
    _verdict(
        9,
        ok,
        f"density permutation invariance {density_ok}; decision label symmetry "
        f"{symmetry_ok}; difference-matrix invariances {matrix_ok}; "
        f"null calibration KS {ks:.4f} (< 0.06)",
    )
    assert ok
