"""Enum-valued arguments: a plain string acts exactly as its member does."""

import numpy as np
import pytest

from envcausal.dgp import (
    CausalStructure,
    DGPConfig,
    VariabilityRegime,
    sample_definetti_params,
    simulate_dataset,
    simulate_with_params,
)
from envcausal.duality import (
    DualityConfig,
    MixingKind,
    MixingSpec,
    SourceFamily,
    TwoSampleMethod,
    source_quantiles,
    two_sample_test,
    verify_duality,
)
from envcausal.variability import DensityFamily, DensitySpec

_RNG = np.random.default_rng(17)
_X, _Y, _Z = _RNG.standard_normal((3, 60))
_A, _B = _RNG.standard_normal((2, 80, 2))
_CONFIG = DGPConfig(n_environments=40, regime=VariabilityRegime.FULL_EXCHANGEABLE, structure="random")
_DATASET = simulate_dataset(_CONFIG, 3)
_GAUSS = DensityFamily.GAUSSIAN


def _simulated(regime=VariabilityRegime.FULL_EXCHANGEABLE, structure="random"):
    dataset = simulate_dataset(DGPConfig(40, regime, structure), 3)
    # The regime and truth as the truth sidecar writes them.
    return dataset.samples, dataset.regime.value, dataset.truth.value


def _duality(test):
    base = SourceFamily(_GAUSS, (0.0,), (1.0,))
    config = DualityConfig(MixingSpec(MixingKind.IDENTITY, 1), base, (base,), 60, seed=2, test=test)
    return verify_duality(config)


# Each case: a call that takes the enum argument, and the member whose
# plain value is also tried. Each member is one whose string, compared by
# identity, would take another branch and give another result.
CASES = {
    "two_sample_test": (
        lambda m: two_sample_test(_A, _B, m),
        TwoSampleMethod.KS_PER_COORDINATE,
    ),
    "MixingSpec": (lambda k: MixingSpec(k, 2).apply(_A[0:5]), MixingKind.IDENTITY),
    "SourceFamily": (
        lambda f: source_quantiles(SourceFamily(f, (0.5,), (2.0,)), [[0.1], [0.7]]),
        _GAUSS,
    ),
    "DensitySpec": (lambda f: DensitySpec(f, 0.0, 1.0).log_pdf(_X), _GAUSS),
    "DualityConfig.test": (_duality, TwoSampleMethod.KS_PER_COORDINATE),
    "simulate_with_params": (
        lambda s: simulate_with_params(_CONFIG, s, _DATASET.params, 3).samples,
        CausalStructure.Y_TO_X,
    ),
    "sample_definetti_params": (
        lambda s: sample_definetti_params(_CONFIG, s, np.random.default_rng(5)),
        CausalStructure.INDEPENDENT,
    ),
    # A string regime reached the dataset unconverted; a string structure
    # was refused.
    "DGPConfig.regime": (lambda r: _simulated(regime=r), VariabilityRegime.CAUSE_VARIABILITY),
    "DGPConfig.structure": (lambda s: _simulated(structure=s), CausalStructure.Y_TO_X),
}


@pytest.mark.parametrize("name", list(CASES))
def test_a_plain_string_gives_the_member_result_and_a_bogus_one_raises(name):
    call, member = CASES[name]
    np.testing.assert_equal(call(member.value), call(member))
    with pytest.raises(ValueError):
        call("bogus")
