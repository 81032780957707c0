"""Two constructions of one distribution, and tests that they agree.

A collection of target source distributions indexed by u can be realized
two ways: draw from the target directly and mix (per-environment sources,
fixed mixing), or draw from one fixed base source and prepend an
elementwise monotone transport g_u to the mixing (fixed sources,
per-environment mixing). Both pipelines push the same distribution
through the same diffeomorphism, so their outputs must be
indistinguishable; ``verify_duality`` checks that with two-sample tests
in observation space and, since the mixings here are invertible, in
source space as well.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from enum import Enum

import numpy as np
from numpy.typing import NDArray
from scipy.linalg import solve_triangular
from scipy.special import ndtri

from ._config import convert_fields
from ._streams import (
    ROLE_DUALITY_CAUSE,
    ROLE_DUALITY_MECH,
    ROLE_MIXING,
    ROLE_PERMUTATION,
    laplace_inverse_cdf,
    mix64,
    open_uniform,
    substream,
)
from .citest import InsufficientSamples
from .variability import DensityFamily

# Pooled-distance-matrix memory guard for the permutation test.
_ENERGY_MAX_POOLED = 4096

_KS_MIN_SAMPLES = 50


class MixingKind(str, Enum):
    IDENTITY = "identity"
    TRIANGULAR_AFFINE_TANH = "triangular-affine-tanh"


class TwoSampleMethod(str, Enum):
    KS_PER_COORDINATE = "ks-per-coordinate"
    ENERGY_PERMUTATION = "energy-permutation"


class FamilyMismatch(ValueError):
    pass


class DimensionMismatch(ValueError):
    pass


@dataclass(frozen=True)
class SourceFamily:
    """Product of independent scalar location-scale components."""

    family: DensityFamily
    location: tuple[float, ...]
    scale: tuple[float, ...]

    def __post_init__(self):
        convert_fields(self)
        if len(self.location) != len(self.scale) or not self.location:
            raise DimensionMismatch("location and scale must be non-empty and equally long")
        if any(s <= 0 for s in self.scale):
            raise ValueError("scales must be strictly positive")

    @property
    def d(self) -> int:
        return len(self.location)


def source_quantiles(family: SourceFamily, uniforms: NDArray[np.float64]) -> NDArray[np.float64]:
    """Map a (n, d) table of uniforms through the componentwise inverse CDF.

    Feeding both pipelines the same uniforms through this function is what
    makes the sample-level equivalence check exact.
    """
    u = np.asarray(uniforms, dtype=np.float64)
    if u.ndim != 2 or u.shape[1] != family.d:
        raise DimensionMismatch(f"uniforms must have shape (n, {family.d})")
    if family.family is DensityFamily.GAUSSIAN:
        std = ndtri(u)
    else:
        std = laplace_inverse_cdf(u, 0.0, 1.0)
    return np.asarray(family.location) + np.asarray(family.scale) * std


@dataclass(frozen=True)
class ElementwiseTransport:
    """Monotone map sending the base family's samples to the target's.

    For location-scale families the inverse-CDF composition collapses to
    the affine form target_loc + (target_scale/base_scale) * (s - base_loc),
    coordinate by coordinate.
    """

    base_location: tuple[float, ...]
    ratio: tuple[float, ...]
    target_location: tuple[float, ...]

    def __call__(self, s: NDArray[np.float64]) -> NDArray[np.float64]:
        return np.asarray(self.target_location) + np.asarray(self.ratio) * (
            np.asarray(s) - np.asarray(self.base_location)
        )


def build_elementwise_transport(base: SourceFamily, target: SourceFamily) -> ElementwiseTransport:
    if base.family is not target.family:
        raise FamilyMismatch(f"cannot transport {base.family.value} onto {target.family.value}")
    if base.d != target.d:
        raise DimensionMismatch(f"dimension mismatch: base {base.d}, target {target.d}")
    ratio = tuple(ts / bs for ts, bs in zip(target.scale, base.scale))
    return ElementwiseTransport(
        base_location=base.location, ratio=ratio, target_location=target.location
    )


@dataclass(frozen=True)
class MixingSpec:
    kind: MixingKind
    d: int
    seed: int = 0

    def __post_init__(self):
        convert_fields(self)
        if self.d < 1:
            raise DimensionMismatch("mixing dimension must be at least 1")

    def matrix(self) -> NDArray[np.float64]:
        """Unit-lower-triangular affine part; invertible by construction."""
        m = np.eye(self.d)
        if self.kind is MixingKind.TRIANGULAR_AFFINE_TANH and self.d > 1:
            rng = substream(self.seed, ROLE_MIXING)
            for i in range(1, self.d):
                m[i, :i] = rng.uniform(-1.0, 1.0, size=i)
        return m

    def apply(self, s: NDArray[np.float64]) -> NDArray[np.float64]:
        s = np.asarray(s, dtype=np.float64)
        if s.ndim != 2 or s.shape[1] != self.d:
            raise DimensionMismatch(f"samples must have shape (n, {self.d})")
        if self.kind is MixingKind.IDENTITY:
            return s.copy()
        v = s @ self.matrix().T
        return v + np.tanh(v)

    def invert(self, o: NDArray[np.float64]) -> NDArray[np.float64]:
        o = np.asarray(o, dtype=np.float64)
        if o.ndim != 2 or o.shape[1] != self.d:
            raise DimensionMismatch(f"observations must have shape (n, {self.d})")
        if self.kind is MixingKind.IDENTITY:
            return o.copy()
        v = _invert_id_plus_tanh(o)
        if o.shape[0] == 0:
            return o.copy()
        return solve_triangular(self.matrix(), v.T, lower=True, unit_diagonal=True).T


def _invert_id_plus_tanh(target: NDArray[np.float64]) -> NDArray[np.float64]:
    # Newton on w(v) = v + tanh(v); w' = 2 - tanh(v)^2 stays in [1, 2],
    # so the iteration contracts from any start.
    v = target.copy()
    for _ in range(64):
        t = np.tanh(v)
        step = (v + t - target) / (2.0 - t * t)
        v -= step
        if np.max(np.abs(step), initial=0.0) < 1e-15:
            break
    return v


@dataclass(frozen=True)
class DualityConfig:
    f: MixingSpec
    base: SourceFamily
    per_u: tuple[SourceFamily, ...]
    n_samples: int
    seed: int
    test: TwoSampleMethod = TwoSampleMethod.KS_PER_COORDINATE

    def __post_init__(self):
        convert_fields(self)
        if not self.per_u:
            raise ValueError("per_u must list at least one target")
        for i, fam in enumerate(self.per_u):
            if fam.family is not self.base.family:
                raise FamilyMismatch(f"per_u[{i}] family differs from base")
            if fam.d != self.base.d:
                raise DimensionMismatch(f"per_u[{i}] dimension differs from base")
        if self.f.d != self.base.d:
            raise DimensionMismatch("mixing dimension differs from source dimension")
        if self.n_samples < 0:
            raise ValueError("n_samples must be non-negative")


def generate_cause_variability_samples(config: DualityConfig, u: int) -> NDArray[np.float64]:
    """Draw from the u-th target source, then mix: o = f(s), s ~ per_u[u]."""
    if not 0 <= u < len(config.per_u):
        raise IndexError(f"u index {u} out of range")
    rng = substream(config.seed, ROLE_DUALITY_CAUSE, u)
    uniforms = open_uniform(rng, size=(config.n_samples, config.base.d))
    return config.f.apply(source_quantiles(config.per_u[u], uniforms))


def generate_mechanism_variability_samples(config: DualityConfig, u: int) -> NDArray[np.float64]:
    """Draw from the fixed base source, transport, then mix: o = f(g_u(s)).

    Uses an RNG stream independent of the cause-variability generator, so
    the two pipelines share no randomness.
    """
    if not 0 <= u < len(config.per_u):
        raise IndexError(f"u index {u} out of range")
    rng = substream(config.seed, ROLE_DUALITY_MECH, u)
    uniforms = open_uniform(rng, size=(config.n_samples, config.base.d))
    s = source_quantiles(config.base, uniforms)
    g = build_elementwise_transport(config.base, config.per_u[u])
    return config.f.apply(g(s))


def _as_sample_table(name: str, values) -> NDArray[np.float64]:
    arr = np.asarray(values, dtype=np.float64)
    if arr.ndim != 2:
        raise DimensionMismatch(f"{name} must be a 2-dimensional sample table")
    if arr.shape[0] == 0:
        raise InsufficientSamples(f"{name} is empty")
    return arr


def _energy_statistic(dist: NDArray[np.float64], idx_a, idx_b) -> float:
    within_a = dist[np.ix_(idx_a, idx_a)].mean()
    within_b = dist[np.ix_(idx_b, idx_b)].mean()
    cross = dist[np.ix_(idx_a, idx_b)].mean()
    return float(2.0 * cross - within_a - within_b)


def two_sample_test(
    a,
    b,
    method: TwoSampleMethod = TwoSampleMethod.KS_PER_COORDINATE,
    *,
    n_permutations: int = 200,
    seed: int = 0,
) -> tuple[float, float]:
    """Test whether two (n, d) sample tables come from the same distribution.

    KS runs per coordinate with asymptotic p-values combined by Bonferroni
    (min p times d, capped at 1). The energy alternative permutes pooled
    labels and therefore materializes the pooled distance matrix; it is
    meant for moderate sample counts.
    """
    method = TwoSampleMethod(method)
    ta = _as_sample_table("a", a)
    tb = _as_sample_table("b", b)
    if ta.shape[1] != tb.shape[1]:
        raise DimensionMismatch("sample tables must share their dimension")
    d = ta.shape[1]
    if method is TwoSampleMethod.KS_PER_COORDINATE:
        from scipy.stats import ks_2samp  # here: scipy.stats takes ~0.5 s to import
        if ta.shape[0] < _KS_MIN_SAMPLES or tb.shape[0] < _KS_MIN_SAMPLES:
            raise InsufficientSamples(
                f"asymptotic KS needs at least {_KS_MIN_SAMPLES} samples per table"
            )
        best_stat = 0.0
        best_p = float("inf")
        for j in range(d):
            res = ks_2samp(ta[:, j], tb[:, j], method="asymp")
            if res.pvalue < best_p:
                best_p = float(res.pvalue)
                best_stat = float(res.statistic)
        return best_stat, min(1.0, best_p * d)

    n, m = ta.shape[0], tb.shape[0]
    if n + m > _ENERGY_MAX_POOLED:
        raise ValueError(
            f"energy permutation test limited to {_ENERGY_MAX_POOLED} pooled samples, got {n + m}"
        )
    if n_permutations < 1:
        raise ValueError("n_permutations must be positive")
    pooled = np.vstack([ta, tb])
    diff = pooled[:, None, :] - pooled[None, :, :]
    dist = np.sqrt((diff * diff).sum(axis=2))
    labels = np.arange(n + m)
    observed = _energy_statistic(dist, labels[:n], labels[n:])
    total = dist.sum()
    rng = substream(seed, ROLE_PERMUTATION)
    exceed = 0
    # Permutations go in blocks of at most n + m, so the block's arrays
    # never outgrow the distance matrix.
    for start in range(0, n_permutations, n + m):
        block = min(n + m, n_permutations - start)
        perms = np.stack([rng.permutation(n + m) for _ in range(block)])
        # Row p marks the pooled rows that permutation p sends to table a.
        in_a = np.zeros((block, n + m))
        in_a[np.arange(block)[:, None], perms[:, :n]] = 1.0
        row = in_a @ dist
        sum_aa = np.einsum("pj,pj->p", row, in_a)
        sum_ab = row.sum(axis=1) - sum_aa
        sum_bb = total - sum_aa - 2.0 * sum_ab
        permuted = 2.0 * sum_ab / (n * m) - sum_aa / (n * n) - sum_bb / (m * m)
        exceed += int(np.count_nonzero(permuted >= observed))
    return observed, (exceed + 1) / (n_permutations + 1)


@dataclass(frozen=True)
class PerUResult:
    u_index: int
    statistic: float
    p_value: float
    source_p_value: float
    passed: bool


@dataclass(frozen=True)
class DualityReport:
    per_u_results: tuple[PerUResult, ...]
    overall_pass: bool


def verify_duality(
    config: DualityConfig,
    *,
    level: float = 0.01,
    force_identity_transport: bool = False,
) -> DualityReport:
    """Compare the two pipelines' outputs for every u.

    A u passes only when the two-sample test keeps p above the level in
    observation space and in source space (through the inverse mixing).
    ``force_identity_transport`` is a diagnostic that gives the mechanism
    path the base as every target, so its transport is the identity; with
    any target differing from the base it must make the verification fail.
    """
    if config.n_samples < 1:
        raise ValueError("verification needs at least one sample")
    if not 0.0 < level < 1.0:
        raise ValueError("level must lie strictly between 0 and 1")
    mech_config = config
    if force_identity_transport:
        mech_config = replace(config, per_u=(config.base,) * len(config.per_u))
    results = []
    for u in range(len(config.per_u)):
        a = generate_cause_variability_samples(config, u)
        b = generate_mechanism_variability_samples(mech_config, u)
        stat, p_obs = two_sample_test(a, b, config.test, seed=mix64(config.seed, u, 0))
        _, p_src = two_sample_test(
            config.f.invert(a), config.f.invert(b), config.test, seed=mix64(config.seed, u, 1)
        )
        passed = p_obs > level and p_src > level
        results.append(PerUResult(u, stat, p_obs, p_src, passed))
    return DualityReport(tuple(results), all(r.passed for r in results))
