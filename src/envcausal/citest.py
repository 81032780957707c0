"""Marginal and conditional independence tests with p-value output.

Three interchangeable methods share one result type. The parametric pair
(Fisher z on Pearson or Spearman correlations) gives closed-form normal
p-values.

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
from scipy.special import chdtrc, ndtr, ndtri


class TestMethod(str, Enum):
    # Keeps pytest from collecting this Test-prefixed name when imported
    # into test modules.
    __test__ = False

    FISHER_Z = "fisher-z"
    SPEARMAN_Z = "spearman-z"
    GCM = "gcm"


FLAG_ZERO_VARIANCE = "zero_variance"
FLAG_NUMERICAL_DEGENERACY = "numerical_degeneracy"

_DEGENERACY_EPS = 1e-12

# Minimum sample counts (units, for gcm) per (conditional?, method).
_MIN_N = {
    (False, TestMethod.FISHER_Z): 8,
    (False, TestMethod.SPEARMAN_Z): 8,
    (False, TestMethod.GCM): 20,
    (True, TestMethod.FISHER_Z): 10,
    (True, TestMethod.SPEARMAN_Z): 10,
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
        return CITestResult(math.copysign(math.inf, r), 0.0, method, n, tuple(flags))
    stat = math.sqrt(dof) * math.atanh(r)
    p = float(2.0 * ndtr(-abs(stat)))
    return CITestResult(stat, min(1.0, p), method, n, tuple(flags))


def _canonical_sides(
    a: NDArray[np.float64], b: NDArray[np.float64]
) -> tuple[NDArray[np.float64], NDArray[np.float64]]:
    """Order the pair so both argument orders run the identical computation.

    Picking the order by byte comparison makes the gcm test exactly
    symmetric in its arguments, floating-point rounding included.
    """
    if a.tobytes() <= b.tobytes():
        return a, b
    return b, a


def _mid_ranks(v: NDArray[np.float64]) -> NDArray[np.float64]:
    """1-based ranks of the raveled entries, ties given their mean rank.

    The same values as ``scipy.stats.rankdata`` without its array-API
    dispatch: each run of equal values gets the mean of the ordinal ranks
    it spans, an exact half-integer, whatever order the sort left it in.
    """
    flat = v.ravel()
    order = np.argsort(flat)
    ordered = flat[order]
    first = np.concatenate(([True], ordered[1:] != ordered[:-1]))
    dense = np.cumsum(first)
    # count[k] is the number of entries below the (k+1)-th distinct value.
    count = np.append(np.flatnonzero(first), flat.size)
    ranks = np.empty(flat.size)
    ranks[order] = 0.5 * (count[dense] + count[dense - 1] + 1)
    return ranks


def _normal_scores(v: NDArray[np.float64]) -> NDArray[np.float64]:
    """Standard normal quantiles of the mid-ranks, taken over every entry."""
    return ndtri((_mid_ranks(v) - 0.5) / v.size).reshape(v.shape)


def _uniform_scores(v: NDArray[np.float64]) -> NDArray[np.float64]:
    """Centred mid-ranks over every entry, scaled to unit variance."""
    return (math.sqrt(12.0) * ((_mid_ranks(v) - 0.5) / v.size - 0.5)).reshape(v.shape)


def _spline_basis(z: NDArray[np.float64]) -> NDArray[np.float64]:
    """Cubic truncated-power basis with knots at quantiles of z."""
    n_knots = min(_GCM_MAX_KNOTS, z.size // _GCM_ROWS_PER_KNOT)
    at = np.linspace(0.0, z.size - 1, n_knots + 2)[1:-1]  # np.quantile's linear rule, cheaper
    knots = np.interp(at, np.arange(z.size), np.sort(z))
    t = np.maximum(z[:, None] - knots, 0.0)
    return np.column_stack((np.ones_like(z), z, z * z, z * z * z, t * t * t))


def _residualize(features: NDArray[np.float64], basis: NDArray[np.float64]) -> NDArray[np.float64]:
    """Least-squares residuals of each feature column on the basis columns.

    One LAPACK solve on the unit-norm columns, whose ``rcond`` skips the
    directions that other columns span (duplicate knots); all-zero columns
    (a knot at the top of a tied conditioner) are dropped before scaling.
    """
    norms = np.linalg.norm(basis, axis=0)
    scaled = basis[:, norms > 0.0] / norms[norms > 0.0]
    coef = np.linalg.lstsq(scaled, features, rcond=_DEGENERACY_EPS)[0]
    return features - scaled @ coef


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
        return CITestResult(0.0, 1.0, TestMethod.GCM, units, (FLAG_NUMERICAL_DEGENERACY,))
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
            return CITestResult(0.0, 1.0, TestMethod.GCM, units, (FLAG_NUMERICAL_DEGENERACY,))
        stat = float(total[0]) / math.sqrt(float(variance[0, 0]))
        p = float(ndtr(stat))
        return CITestResult(stat, min(1.0, p), TestMethod.GCM, units, components=components)
    try:
        stat = float(total @ np.linalg.solve(variance, total))
    except np.linalg.LinAlgError:
        return CITestResult(0.0, 1.0, TestMethod.GCM, units, (FLAG_NUMERICAL_DEGENERACY,))
    # chdtrc is NaN below zero, where the chi-squared tail is 1.
    p = float(chdtrc(len(pairs), max(stat, 0.0)))
    return CITestResult(stat, min(1.0, p), TestMethod.GCM, units, components=components)


def marginal_independence_test(x, y, method: TestMethod = TestMethod.FISHER_Z) -> CITestResult:
    """Test whether x and y are independent; higher p means less evidence
    against independence."""
    method = TestMethod(method)
    xv = _as_vector("x", x, method)
    yv = _as_vector("y", y, method)
    n = _check_lengths(False, method, xv, yv)
    if _is_constant(xv) or _is_constant(yv):
        return CITestResult(0.0, 1.0, method, n, (FLAG_ZERO_VARIANCE,))
    if method is TestMethod.GCM:
        return _gcm(xv, yv, None)
    if method is TestMethod.SPEARMAN_Z:
        xv, yv = _mid_ranks(xv), _mid_ranks(yv)
    return _fisher_p(_pearson(xv, yv), n - 3, method, n)


def conditional_independence_test(
    x,
    y,
    z,
    method: TestMethod = TestMethod.FISHER_Z,
    *,
    linear_only: bool = False,
    squares_only: bool = False,
) -> CITestResult:
    """Test whether x and y are independent given the scalar conditioner z.

    ``linear_only`` (gcm only) tests the linear moment pair alone and
    ``squares_only`` (gcm only) the squares pair alone, one-sided; see the
    module docstring.
    """
    method = TestMethod(method)
    if (linear_only or squares_only) and method is not TestMethod.GCM:
        raise ValueError("linear_only and squares_only apply to the gcm test only")
    if linear_only and squares_only:
        raise ValueError("linear_only and squares_only exclude each other")
    xv = _as_vector("x", x, method)
    yv = _as_vector("y", y, method)
    zv = _as_vector("z", z, method)
    n = _check_lengths(True, method, xv, yv, zv)
    if _is_constant(xv) or _is_constant(yv) or _is_constant(zv):
        return CITestResult(0.0, 1.0, method, n, (FLAG_ZERO_VARIANCE,))
    if method is TestMethod.GCM:
        return _gcm(xv, yv, zv, linear_only, squares_only)
    if method is TestMethod.SPEARMAN_Z:
        xv, yv, zv = _mid_ranks(xv), _mid_ranks(yv), _mid_ranks(zv)
    r_xy = _pearson(xv, yv)
    r_xz = _pearson(xv, zv)
    r_yz = _pearson(yv, zv)
    vx = 1.0 - r_xz * r_xz
    vy = 1.0 - r_yz * r_yz
    if vx < _DEGENERACY_EPS or vy < _DEGENERACY_EPS:
        return CITestResult(0.0, 1.0, method, n, (FLAG_NUMERICAL_DEGENERACY,))
    partial = (r_xy - r_xz * r_yz) / math.sqrt(vx * vy)
    partial = min(1.0, max(-1.0, partial))
    return _fisher_p(partial, n - 4, method, n)
