"""Marginal and conditional independence tests with p-value output.

Four interchangeable methods share one result type. The parametric pair
(Fisher z on Pearson or Spearman correlations) gives closed-form normal
p-values; the nonparametric alternative residualizes with k-nearest-
neighbor regression and permutes a distance-correlation statistic.

The generalised covariance method (``gcm``, after Shah and Peters, 2020)
pairs the normal scores of x and y and also their squares, so it sees
dependence that flips sign from unit to unit: when a coupling coefficient
is positive in some environments and negative in others, correlation
averages to zero but the magnitudes stay dependent. Each feature is
residualized on a cubic spline in the conditioner's score; the two mean
residual products form a Wald statistic with a chi-squared p-value on two
degrees of freedom. With ``linear_only`` the conditional form keeps the
first pair alone, on uniform scores (centred mid-ranks) rather than normal
scores, and tests it on one degree of freedom: when the dependence keeps
its sign across units, the squares pair only spends a degree of freedom,
and bounded scores weigh heavy-tailed samples less. With ``squares_only``
the conditional form keeps the squares pair alone and tests it one-sided,
against negative dependence: when a unit-level gain couples a cause to
the conditioner z, a large cause magnitude explains a given z with a
small gain, and so predicts a small magnitude of whatever else that gain
drives. The p-value is the normal lower tail of the standardized sum, so
positive dependence of the squares is not evidence against the null.

The gcm test alone accepts ``(n, r)`` arrays: n independent units
observed r times each. The r products of a unit are summed before the
variance is taken, so the r observations of a unit may be dependent.

Constant inputs are reported as independent (p = 1) with a flag instead
of raising: datasets with collapsed noise legitimately produce constant
columns, and a constant is independent of everything.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np
from numpy.typing import NDArray
from scipy.stats import chi2, norm, rankdata

from ._streams import ROLE_PERMUTATION, substream


class TestMethod(str, Enum):
    # Keeps pytest from collecting this Test-prefixed name when imported
    # into test modules.
    __test__ = False

    FISHER_Z = "fisher-z"
    SPEARMAN_Z = "spearman-z"
    RESIDUAL_PERMUTATION = "residual-perm"
    GCM = "gcm"


FLAG_ZERO_VARIANCE = "zero_variance"
FLAG_NUMERICAL_DEGENERACY = "numerical_degeneracy"

_DEGENERACY_EPS = 1e-12

# Minimum sample counts (units, for gcm) per (conditional?, method).
_MIN_N = {
    (False, TestMethod.FISHER_Z): 8,
    (False, TestMethod.SPEARMAN_Z): 8,
    (False, TestMethod.RESIDUAL_PERMUTATION): 20,
    (False, TestMethod.GCM): 20,
    (True, TestMethod.FISHER_Z): 10,
    (True, TestMethod.SPEARMAN_Z): 10,
    (True, TestMethod.RESIDUAL_PERMUTATION): 30,
    (True, TestMethod.GCM): 20,
}

# The gcm spline gets one interior knot per this many observations, up to
# _GCM_MAX_KNOTS, so small samples fall back to a plain cubic.
_GCM_ROWS_PER_KNOT = 40
_GCM_MAX_KNOTS = 8


class InsufficientSamples(ValueError):
    pass


@dataclass(frozen=True)
class CITestResult:
    statistic: float
    p_value: float
    method: TestMethod
    n: int
    n_permutations: int = 0
    flags: tuple[str, ...] = ()
    # gcm only: the one-degree-of-freedom statistic of each moment pair
    # tested, linear then squares, 0 for a pair dropped as degenerate.
    components: tuple[float, ...] = ()

    def __post_init__(self):
        if not 0.0 <= self.p_value <= 1.0:
            raise ValueError(f"p_value {self.p_value} outside [0,1]")


def _as_vector(name: str, values, method: TestMethod) -> NDArray[np.float64]:
    arr = np.asarray(values, dtype=np.float64)
    if arr.ndim != 1 and not (method is TestMethod.GCM and arr.ndim == 2):
        raise ValueError(f"{name} must be one-dimensional")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} contains non-finite values")
    return arr


def _check_lengths(conditional: bool, method: TestMethod, *arrays) -> int:
    n = arrays[0].shape[0]
    if any(a.shape != arrays[0].shape for a in arrays):
        raise ValueError("all inputs must have equal length")
    minimum = _MIN_N[(conditional, method)]
    if n < minimum:
        raise InsufficientSamples(f"need at least {minimum} samples for this test, got {n}")
    return n


def _is_constant(v: NDArray[np.float64]) -> bool:
    return bool(np.all(v == v.flat[0]))


def _unit_scale(v: NDArray[np.float64]) -> NDArray[np.float64]:
    """v times the power of two that brings its largest magnitude into
    [0.5, 1): exact, and sums of the result cannot overflow."""
    return np.ldexp(v, -np.frexp(np.max(np.abs(v)))[1])


def _pearson(a: NDArray[np.float64], b: NDArray[np.float64]) -> float:
    # Dividing by the largest deviation first keeps the products below
    # from underflowing to zero on tiny but non-constant inputs.
    a, b = _unit_scale(a), _unit_scale(b)
    ac = a - a.mean()
    bc = b - b.mean()
    ac = ac / np.max(np.abs(ac))
    bc = bc / np.max(np.abs(bc))
    denom = math.sqrt(float(np.dot(ac, ac))) * math.sqrt(float(np.dot(bc, bc)))
    r = float(np.dot(ac, bc)) / denom
    return min(1.0, max(-1.0, r))


def _fisher_p(r: float, dof: float, method: TestMethod, n: int, flags=()) -> CITestResult:
    if abs(r) >= 1.0:
        return CITestResult(math.copysign(math.inf, r), 0.0, method, n, 0, tuple(flags))
    stat = math.sqrt(dof) * math.atanh(r)
    p = float(2.0 * norm.sf(abs(stat)))
    return CITestResult(stat, min(1.0, p), method, n, 0, tuple(flags))


def _centered_distances(v: NDArray[np.float64]) -> NDArray[np.float64]:
    d = np.abs(v[:, None] - v[None, :])
    return d - d.mean(axis=0, keepdims=True) - d.mean(axis=1, keepdims=True) + d.mean()


def _canonical_sides(
    a: NDArray[np.float64], b: NDArray[np.float64]
) -> tuple[NDArray[np.float64], NDArray[np.float64]]:
    """Order the pair so both argument orders run the identical computation.

    The second element of the returned pair is the one the permutation
    loop shuffles; picking it by byte comparison makes the permutation and
    gcm tests exactly symmetric in their arguments, floating-point
    rounding included.
    """
    if a.tobytes() <= b.tobytes():
        return a, b
    return b, a


def _dcor_permutation(
    a: NDArray[np.float64],
    b: NDArray[np.float64],
    method: TestMethod,
    n_permutations: int,
    seed: int,
    flags: tuple[str, ...] = (),
) -> CITestResult:
    n = a.shape[0]
    # Centring and dividing by the largest deviation first makes the
    # statistic free of the inputs' scale: exact for power-of-two scales,
    # and no distance product under- or overflows at extreme ones.
    a, b = _unit_scale(a), _unit_scale(b)
    a, b = a - a.mean(), b - b.mean()
    spread_a, spread_b = float(np.max(np.abs(a))), float(np.max(np.abs(b)))
    if spread_a == 0.0 or spread_b == 0.0:
        return CITestResult(
            0.0, 1.0, method, n, n_permutations, flags + (FLAG_NUMERICAL_DEGENERACY,)
        )
    a, b = _canonical_sides(a / spread_a, b / spread_b)
    ca = _centered_distances(a)
    cb = _centered_distances(b)
    scale = math.sqrt(float((ca * ca).mean()) * float((cb * cb).mean()))
    observed_cov = float((ca * cb).mean())
    statistic = math.sqrt(max(observed_cov, 0.0) / scale)
    rng = substream(seed, ROLE_PERMUTATION)
    exceed = 0
    for _ in range(n_permutations):
        perm = rng.permutation(n)
        if float((ca * cb[np.ix_(perm, perm)]).mean()) >= observed_cov:
            exceed += 1
    p = (exceed + 1) / (n_permutations + 1)
    return CITestResult(statistic, p, method, n, n_permutations, flags)


def _knn_residuals(
    target: NDArray[np.float64], z: NDArray[np.float64], k: int
) -> NDArray[np.float64]:
    # Stable argsort breaks distance ties by lower index. The residuals
    # come back in target's unit scale; their one consumer is scale-free.
    target, z = _unit_scale(target), _unit_scale(z)
    order = np.argsort(np.abs(z[:, None] - z[None, :]), axis=1, kind="stable")
    return target - target[order[:, :k]].mean(axis=1)


def _normal_scores(v: NDArray[np.float64]) -> NDArray[np.float64]:
    """Standard normal quantiles of the mid-ranks, taken over every entry."""
    flat = v.ravel()
    return norm.ppf((rankdata(flat) - 0.5) / flat.size).reshape(v.shape)


def _uniform_scores(v: NDArray[np.float64]) -> NDArray[np.float64]:
    """Centred mid-ranks over every entry, scaled to unit variance."""
    flat = v.ravel()
    return (math.sqrt(12.0) * ((rankdata(flat) - 0.5) / flat.size - 0.5)).reshape(v.shape)


def _spline_basis(z: NDArray[np.float64]) -> NDArray[np.float64]:
    """Cubic truncated-power basis with knots at quantiles of z."""
    n_knots = min(_GCM_MAX_KNOTS, z.size // _GCM_ROWS_PER_KNOT)
    knots = np.quantile(z, np.linspace(0.0, 1.0, n_knots + 2)[1:-1])
    columns = [np.ones_like(z), z, z * z, z**3]
    columns += [np.maximum(z - k, 0.0) ** 3 for k in knots]
    return np.stack(columns, axis=1)


def _residualize(features: NDArray[np.float64], basis: NDArray[np.float64]) -> NDArray[np.float64]:
    """Least-squares residuals of each feature column on the basis columns.

    Modified Gram-Schmidt: a few vector operations per column, stable on
    the nearly collinear truncated-power columns, and it skips a column
    that earlier ones already span.
    """
    residuals = features.copy()
    spanned: list[NDArray[np.float64]] = []
    for column in basis.T:
        q = column.copy()
        for prev in spanned:
            q -= prev * float(prev @ q)
        size = math.sqrt(float(q @ q))
        if size <= _DEGENERACY_EPS * math.sqrt(float(column @ column)):
            continue
        q /= size
        spanned.append(q)
        residuals -= np.outer(q, q @ residuals)
    return residuals


def _gcm(
    a: NDArray[np.float64],
    b: NDArray[np.float64],
    z: NDArray[np.float64] | None,
    linear_only: bool = False,
    squares_only: bool = False,
) -> CITestResult:
    a, b = _canonical_sides(a, b)
    units = a.shape[0]
    if linear_only:
        features = np.stack([_uniform_scores(a).ravel(), _uniform_scores(b).ravel()], axis=1)
    else:
        sa, sb = _normal_scores(a).ravel(), _normal_scores(b).ravel()
        # Columns: a score, b score, a score^2, b score^2; pairs (0, 1), (2, 3).
        features = np.stack([sa, sb, sa * sa, sb * sb], axis=1)
        if squares_only:
            features = features[:, 2:]
    centered = features - features.mean(axis=0)
    if z is None:
        residuals = centered
    else:
        residuals = _residualize(features, _spline_basis(_normal_scores(z).ravel()))
    kept = np.sum(residuals * residuals, axis=0) > _DEGENERACY_EPS * np.sum(
        centered * centered, axis=0
    )
    pairs = [(i, i + 1) for i in range(0, features.shape[1], 2) if kept[i] and kept[i + 1]]
    if not pairs:
        return CITestResult(0.0, 1.0, TestMethod.GCM, units, 0, (FLAG_NUMERICAL_DEGENERACY,))
    ra = np.stack([residuals[:, i].reshape(units, -1) for i, _ in pairs])
    rb = np.stack([residuals[:, j].reshape(units, -1) for _, j in pairs])
    per_unit = np.sum(ra * rb, axis=2).T  # (units, len(pairs))
    if z is None:
        # Under independence the covariance of two pairs' unit sums is the
        # trace of the product of the replicate covariances of their a and
        # b features; this null-based score form is better calibrated than
        # the spread of heavy-tailed products.
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
        # One pair, one-sided: the statistic is the signed standardized sum.
        if not variance[0, 0] > 0.0:
            return CITestResult(0.0, 1.0, TestMethod.GCM, units, 0, (FLAG_NUMERICAL_DEGENERACY,))
        stat = float(total[0]) / math.sqrt(float(variance[0, 0]))
        p = float(norm.cdf(stat))
        return CITestResult(stat, min(1.0, p), TestMethod.GCM, units, components=components)
    try:
        stat = float(total @ np.linalg.solve(variance, total))
    except np.linalg.LinAlgError:
        return CITestResult(0.0, 1.0, TestMethod.GCM, units, 0, (FLAG_NUMERICAL_DEGENERACY,))
    p = float(chi2.sf(stat, len(pairs)))
    return CITestResult(stat, min(1.0, p), TestMethod.GCM, units, components=components)


def marginal_independence_test(
    x,
    y,
    method: TestMethod = TestMethod.FISHER_Z,
    *,
    n_permutations: int = 200,
    seed: int = 0,
) -> CITestResult:
    """Test whether x and y are independent; higher p means less evidence
    against independence."""
    xv = _as_vector("x", x, method)
    yv = _as_vector("y", y, method)
    n = _check_lengths(False, method, xv, yv)
    if _is_constant(xv) or _is_constant(yv):
        return CITestResult(0.0, 1.0, method, n, 0, (FLAG_ZERO_VARIANCE,))
    if method is TestMethod.GCM:
        return _gcm(xv, yv, None)
    if method is TestMethod.RESIDUAL_PERMUTATION:
        if n_permutations < 1:
            raise ValueError("n_permutations must be positive")
        return _dcor_permutation(xv, yv, method, n_permutations, seed)
    if method is TestMethod.SPEARMAN_Z:
        xv, yv = rankdata(xv), rankdata(yv)
    return _fisher_p(_pearson(xv, yv), n - 3, method, n)


def conditional_independence_test(
    x,
    y,
    z,
    method: TestMethod = TestMethod.FISHER_Z,
    *,
    n_permutations: int = 200,
    seed: int = 0,
    linear_only: bool = False,
    squares_only: bool = False,
) -> CITestResult:
    """Test whether x and y are independent given the scalar conditioner z.

    ``linear_only`` (gcm only) tests the linear moment pair alone and
    ``squares_only`` (gcm only) the squares pair alone, one-sided; see the
    module docstring.
    """
    if (linear_only or squares_only) and method is not TestMethod.GCM:
        raise ValueError("linear_only and squares_only apply to the gcm test only")
    if linear_only and squares_only:
        raise ValueError("linear_only and squares_only exclude each other")
    xv = _as_vector("x", x, method)
    yv = _as_vector("y", y, method)
    zv = _as_vector("z", z, method)
    n = _check_lengths(True, method, xv, yv, zv)
    if _is_constant(xv) or _is_constant(yv) or _is_constant(zv):
        return CITestResult(0.0, 1.0, method, n, 0, (FLAG_ZERO_VARIANCE,))
    if method is TestMethod.GCM:
        return _gcm(xv, yv, zv, linear_only, squares_only)
    if method is TestMethod.RESIDUAL_PERMUTATION:
        if n_permutations < 1:
            raise ValueError("n_permutations must be positive")
        k = math.ceil(math.sqrt(n))
        rx = _knn_residuals(xv, zv, k)
        ry = _knn_residuals(yv, zv, k)
        return _dcor_permutation(rx, ry, method, n_permutations, seed)
    if method is TestMethod.SPEARMAN_Z:
        xv, yv, zv = rankdata(xv), rankdata(yv), rankdata(zv)
    r_xy = _pearson(xv, yv)
    r_xz = _pearson(xv, zv)
    r_yz = _pearson(yv, zv)
    vx = 1.0 - r_xz * r_xz
    vy = 1.0 - r_yz * r_yz
    if vx < _DEGENERACY_EPS or vy < _DEGENERACY_EPS:
        return CITestResult(0.0, 1.0, method, n, 0, (FLAG_NUMERICAL_DEGENERACY,))
    partial = (r_xy - r_xz * r_yz) / math.sqrt(vx * vy)
    partial = min(1.0, max(-1.0, partial))
    return _fisher_p(partial, n - 4, method, n)
