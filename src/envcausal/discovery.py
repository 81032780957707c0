"""Bivariate structure identification from multi-environment data.

The procedure takes the first two samples (x1, y1), (x2, y2) of every
environment and runs three independence tests across environments:

    x_to_y      y1 independent of x2 given x1
    y_to_x      x1 independent of y2 given y1
    independent x1 independent of y1

Under cause or mechanism variability the true direction's null holds and
the reverse direction's null fails (Causal de Finetti, Guo et al. 2023);
for independent variables all three nulls hold. So the decision is gated
by the significance level alpha:

    1. independent, when the marginal test is not rejected (p > alpha);
    2. otherwise the direction whose conditional null alone is not
       rejected;
    3. otherwise the direction with the larger conditional p-value
       (x_to_y on a tie, to within a relative TIE_RTOL).

The tests (the generalised covariance measure of ``citest``) pool both
orders of an environment's two samples, (1, 2) and (2, 1), and take their
variance over environments. The scores of x and of y are computed once
per decision and handed to all three tests as ``citest.RankScores``.
The marginal test runs first. When the linear moment pair of x1 and y1
alone is significant at LINEAR_GATE_LEVEL, the coupling keeps its sign
across environments (the mechanism is shared), the reverse direction's
dependence runs through that linear moment, and the two conditional
tests use the linear pair alone. Otherwise the sign
varies between environments, so the linear moment carries nothing, and
they test the squares pair alone, one-sided against negative dependence.
That is the sign the reverse direction shows when the coupling's gain
varies: in the y_to_x test under x -> y, the conditioner y1 is a common
effect of the cause x1 and the environment's gain, so given y1 a large
|x1| means a small gain, and hence a small |y2|.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray
from scipy.special import chdtri

from .citest import (
    MIN_UNITS,
    InsufficientSamples,
    RankScores,
    conditional_independence_test,
    marginal_independence_test,
)
from .dgp import CausalStructure, random_baseline  # noqa: F401  (re-exported)

# Significance level of the marginal test's linear component above
# which the conditional tests keep the linear moment pair alone. It is
# far below alpha: signs drawn afresh per environment leave a residual
# linear dependence of a few chi-squared units, a shared sign gives tens
# to hundreds at 100 to 500 environments.
LINEAR_GATE_LEVEL = 1e-6
_LINEAR_GATE = float(chdtri(1, LINEAR_GATE_LEVEL))

# Rounding alone parts the conditional p-values when y is a function of x.
TIE_RTOL = 1e-9


class InsufficientEnvironments(ValueError):
    pass


@dataclass(frozen=True)
class DiscoveryDecision:
    structure: CausalStructure
    p_x_to_y: float
    p_y_to_x: float
    p_independent: float
    alpha: float
    flags: tuple[str, ...] = ()



def build_cross_sample_pairs(samples: NDArray[np.float64]) -> NDArray[np.float64]:
    """The first two samples of every environment of an (E, n, 2) sample
    array, a (E, 2, 2) view indexed [environment, sample, (x, y)].

    Extra samples beyond the first two are ignored.
    """
    n = samples.shape[1]
    if n < 2:
        raise InsufficientSamples(f"environments have {n} sample(s); need at least 2")
    return samples[:, :2]


def _decide(
    p_x_to_y: float, p_y_to_x: float, p_independent: float, alpha: float
) -> CausalStructure:
    if p_independent > alpha:
        return CausalStructure.INDEPENDENT
    picks_x_to_y = p_x_to_y > alpha
    if picks_x_to_y == (p_y_to_x > alpha):  # both nulls kept, or both rejected
        picks_x_to_y = p_x_to_y >= p_y_to_x * (1.0 - TIE_RTOL)
    return CausalStructure.X_TO_Y if picks_x_to_y else CausalStructure.Y_TO_X


def discover_structure(samples: NDArray[np.float64], alpha: float = 0.05) -> DiscoveryDecision:
    """Decide the structure from observations alone: the (E, n, 2) array
    indexed [environment, sample, (x, y)], as ``dgp.read_dataset`` returns
    it or ``MultiEnvDataset.samples`` holds it. No ground truth is taken.
    """
    if samples.ndim != 3 or samples.shape[2] != 2:
        raise ValueError(f"samples must have shape (E, n, 2), got {samples.shape}")
    if samples.shape[0] < MIN_UNITS:
        raise InsufficientEnvironments(
            f"need at least {MIN_UNITS} environments, got {samples.shape[0]}"
        )
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie strictly between 0 and 1")
    pairs = build_cross_sample_pairs(samples)
    # Row e holds environment e's samples in both orders: (1, 2), (2, 1).
    x1, y1 = RankScores.of(pairs[..., 0], "x"), RankScores.of(pairs[..., 1], "y")
    x2, y2 = x1.reversed(), y1.reversed()
    res_independent = marginal_independence_test(x1, y1)
    linear_only = bool(res_independent.components) and res_independent.components[0] > _LINEAR_GATE
    squares_only = not linear_only
    res_x_to_y = conditional_independence_test(
        y1, x2, x1, linear_only=linear_only, squares_only=squares_only
    )
    res_y_to_x = conditional_independence_test(
        x1, y2, y1, linear_only=linear_only, squares_only=squares_only
    )
    results = [
        ("x_to_y", res_x_to_y),
        ("y_to_x", res_y_to_x),
        ("independent", res_independent),
    ]

    flags = tuple(f"{name}:{flag}" for name, res in results for flag in res.flags)
    return DiscoveryDecision(
        structure=_decide(
            res_x_to_y.p_value, res_y_to_x.p_value, res_independent.p_value, alpha
        ),
        p_x_to_y=res_x_to_y.p_value,
        p_y_to_x=res_y_to_x.p_value,
        p_independent=res_independent.p_value,
        alpha=alpha,
        flags=flags,
    )
