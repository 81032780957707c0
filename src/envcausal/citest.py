"""Marginal and conditional independence tests with p-value output.

Both tests are the generalised covariance measure (gcm, after Shah and
Peters, 2020). It pairs the normal scores of x and y and also their
squares, so it sees dependence that flips sign from unit to unit: when a
coupling coefficient is positive in some environments and negative in
others, correlation averages to zero but the magnitudes stay dependent.
Each feature is residualized on a cubic spline in the conditioner's score;
the two mean residual products form a Wald statistic with a chi-squared
p-value on two degrees of freedom. With ``linear_only`` the conditional
form keeps the first pair alone, on uniform scores (centred mid-ranks)
rather than normal scores, and tests it on one degree of freedom: when the
dependence keeps its sign across units, the squares pair only spends a
degree of freedom, and bounded scores weigh heavy-tailed samples less.
With ``squares_only`` the conditional form keeps the squares pair alone
and tests it one-sided, against negative dependence: when a unit-level
gain couples a cause to the conditioner z, a large cause magnitude
explains a given z with a small gain, and so predicts a small magnitude of
whatever else that gain drives. The p-value is the normal lower tail of
the standardized sum, so positive dependence of the squares is not
evidence against the null.

Inputs may be ``(n, r)`` arrays: n independent units observed r times
each. The r products of a unit are summed before the variance is taken,
so the r observations of a unit may be dependent.

Both tests are exactly symmetric in x and y, rounding included, by
construction: swapping them swaps feature columns, and every step works
column by column or is symmetric in the pair.

Each input may also be given as its ``RankScores``, so a caller that
tests one variable several times, as a discovery decision does, ranks it
once. The spline's orthonormal factor is taken once per sorted score
vector and cached: every tie-free conditioner of N entries has the same
sorted scores, so all tests of one size share it, and a call only gathers
its rows into the input's order.

Constant inputs are reported as independent (p = 1) with a flag instead
of raising: datasets with collapsed noise legitimately produce constant
columns, and a constant is independent of everything.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray
from scipy.special import chdtrc, ndtr, ndtri

FLAG_ZERO_VARIANCE = "zero_variance"
FLAG_NUMERICAL_DEGENERACY = "numerical_degeneracy"

_DEGENERACY_EPS = 1e-12

# Minimum number of units (rows of the inputs) for either test; in
# discovery the units are environments.
MIN_UNITS = 20

# The gcm spline gets one interior knot per this many observations, up to
# _GCM_MAX_KNOTS, so small samples fall back to a plain cubic.
_GCM_ROWS_PER_KNOT = 40
_GCM_MAX_KNOTS = 8

# Spline factors kept, keyed by the conditioner's sorted scores: every
# tie-free conditioner of N entries has the same ones, so decisions of one
# size share a factor. An entry holds at most 4 + _GCM_MAX_KNOTS = 12
# factor columns and its key, 104 bytes per conditioner entry, so the
# cache holds at most 832 bytes per entry of the largest conditioner:
# 3.3 MB at 2,000 environments of two samples.
_FACTOR_CACHE_SIZE = 8


class InsufficientSamples(ValueError):
    pass


@dataclass(frozen=True)
class CITestResult:
    statistic: float
    p_value: float
    n: int
    flags: tuple[str, ...] = ()
    # The one-degree-of-freedom statistic of each moment pair tested,
    # linear then squares, 0 for a pair dropped as degenerate.
    components: tuple[float, ...] = ()

    def __post_init__(self):
        if not 0.0 <= self.p_value <= 1.0:
            raise ValueError(f"p_value {self.p_value} outside [0,1]")


def _scored(**inputs) -> list[RankScores]:
    """The inputs as RankScores, arrays checked and scored under their names."""
    scores = [v if isinstance(v, RankScores) else RankScores.of(v, k) for k, v in inputs.items()]
    shape = scores[0].normal.shape
    if any(s.normal.shape != shape for s in scores):
        raise ValueError("all inputs must have equal length")
    if shape[0] < MIN_UNITS:
        raise InsufficientSamples(f"need at least {MIN_UNITS} samples for this test, got {shape[0]}")
    return scores


def _mid_ranks(v: NDArray[np.float64]) -> tuple[NDArray[np.float64], NDArray[np.intp]]:
    """1-based ranks of the raveled entries, ties given their mean rank, and their sorting order.

    The same ranks as ``scipy.stats.rankdata`` without its array-API
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
    return ranks, order


@dataclass(frozen=True)
class RankScores:
    """One variable's scores from a single rank pass over its entries:
    ``normal`` holds the standard normal quantiles of the mid-ranks over
    every entry, ``uniform`` the centred mid-ranks scaled to unit
    variance, ``sorted_normal`` the raveled normal scores in ascending
    order, and ``position`` each entry's index in that order, so that
    ``sorted_normal[position]`` equals ``normal``.
    """

    normal: NDArray[np.float64]
    uniform: NDArray[np.float64]
    sorted_normal: NDArray[np.float64]
    position: NDArray[np.intp]

    @classmethod
    def of(cls, values, name: str = "values") -> RankScores:
        """Check ``values`` (named ``name`` in errors) and score them."""
        v = np.asarray(values, dtype=np.float64)
        if v.ndim not in (1, 2):
            raise ValueError(f"{name} must be one- or two-dimensional")
        if v.size == 0:
            raise InsufficientSamples(f"{name} has no entries")
        if not np.all(np.isfinite(v)):
            raise ValueError(f"{name} contains non-finite values")
        ranks, order = _mid_ranks(v)
        levels = (ranks - 0.5) / v.size
        normal = ndtri(levels)
        uniform = math.sqrt(12.0) * (levels - 0.5)
        position = np.empty(v.shape, dtype=np.intp)
        position.reshape(-1)[order] = np.arange(v.size)  # writes through the view
        return cls(normal.reshape(v.shape), uniform.reshape(v.shape), normal[order], position)

    @property
    def constant(self) -> bool:
        """Whether every entry is equal; the scores rise strictly with the values."""
        return bool(self.sorted_normal[0] == self.sorted_normal[-1])

    def reversed(self) -> RankScores:
        """The columns of each row in reverse order; ranks are exact, so these
        are the very scores of the reversed array."""
        normal, uniform = self.normal[..., ::-1], self.uniform[..., ::-1]
        return RankScores(normal, uniform, self.sorted_normal, self.position[..., ::-1])


def _spline_basis(s: NDArray[np.float64]) -> NDArray[np.float64]:
    """Cubic truncated-power basis in the ascending scores s, with knots at their quantiles."""
    n_knots = min(_GCM_MAX_KNOTS, s.size // _GCM_ROWS_PER_KNOT)
    at = np.linspace(0.0, s.size - 1, n_knots + 2)[1:-1]  # np.quantile's linear rule, cheaper
    knots = np.interp(at, np.arange(s.size), s)
    t = np.maximum(s[:, None] - knots, 0.0)
    return np.column_stack((np.ones_like(s), s, s * s, s * s * s, t * t * t))


@functools.lru_cache(maxsize=_FACTOR_CACHE_SIZE)
def _spline_factor(sorted_key: bytes) -> NDArray[np.float64]:
    """Orthonormal columns spanning the spline basis of the sorted scores
    whose float64 bytes are ``sorted_key``, rows in ascending order.

    All-zero columns (a knot at the top of a tied conditioner) are dropped
    and the rest scaled to unit norm. Left singular vectors whose singular
    value is at most ``_DEGENERACY_EPS`` times the largest are left out,
    as ``lstsq``'s ``rcond`` would: they are directions that other columns
    already span (duplicate knots). The array is shared, so read-only.
    """
    basis = _spline_basis(np.frombuffer(sorted_key))
    norms = np.linalg.norm(basis, axis=0)
    scaled = basis[:, norms > 0.0] / norms[norms > 0.0]
    u, s, _ = np.linalg.svd(scaled, full_matrices=False)
    factor = np.ascontiguousarray(u[:, s > _DEGENERACY_EPS * s[0]])  # rows gathered per call
    factor.flags.writeable = False
    return factor


def _residualize(features: NDArray[np.float64], z: RankScores) -> NDArray[np.float64]:
    """Least-squares residuals of each feature column on the cubic spline in z's normal scores."""
    q = _spline_factor(z.sorted_normal.tobytes()).take(z.position.ravel(), axis=0)
    return features - q @ (q.T @ features)


def _gcm(
    a: RankScores,
    b: RankScores,
    z: RankScores | None,
    linear_only: bool = False,
    squares_only: bool = False,
) -> CITestResult:
    units = a.normal.shape[0]
    if a.constant or b.constant or (z is not None and z.constant):
        return CITestResult(0.0, 1.0, units, (FLAG_ZERO_VARIANCE,))
    if linear_only:
        features = np.stack([a.uniform.ravel(), b.uniform.ravel()], axis=1)
    else:
        sa, sb = a.normal.ravel(), b.normal.ravel()
        # Columns: a score, b score, a score^2, b score^2; pairs (0, 1), (2, 3).
        # squares_only keeps the last pair alone.
        columns = [sa * sa, sb * sb] if squares_only else [sa, sb, sa * sa, sb * sb]
        features = np.stack(columns, axis=1)
    centered = features - features.mean(axis=0)
    if z is None:
        residuals = centered
    else:
        residuals = _residualize(features, z)
    kept = np.sum(residuals * residuals, axis=0) > _DEGENERACY_EPS * np.sum(
        centered * centered, axis=0
    )
    # Columns alternate a and b features, so pair k is columns 2k and 2k + 1;
    # it is tested when neither column vanished in the residualization, and
    # ra and rb hold the tested pairs' residuals as (pairs, units, replicates).
    tested = kept[0::2] & kept[1::2]
    n_pairs = int(np.count_nonzero(tested))
    degenerate = CITestResult(0.0, 1.0, units, (FLAG_NUMERICAL_DEGENERACY,))
    if not n_pairs:
        return degenerate
    ra = residuals.T[0::2][tested].reshape(n_pairs, units, -1)
    rb = residuals.T[1::2][tested].reshape(n_pairs, units, -1)
    per_unit = np.sum(ra * rb, axis=2).T  # (units, pairs)
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
    components = np.zeros(tested.size)
    components[tested] = total * total / np.diag(variance)
    if squares_only:
        # One pair, one-sided: the statistic is the signed standardized sum.
        if not variance[0, 0] > 0.0:
            return degenerate
        stat = float(total[0]) / math.sqrt(float(variance[0, 0]))
        p = float(ndtr(stat))
    else:
        try:
            stat = float(total @ np.linalg.solve(variance, total))
        except np.linalg.LinAlgError:
            return degenerate
        # chdtrc is NaN below zero, where the chi-squared tail is 1.
        p = float(chdtrc(n_pairs, max(stat, 0.0)))
    return CITestResult(stat, min(1.0, p), units, components=tuple(components.tolist()))


def marginal_independence_test(x, y) -> CITestResult:
    """Test whether x and y are independent; higher p means less evidence
    against independence. Each input is an array or its RankScores."""
    return _gcm(*_scored(x=x, y=y), None)


def conditional_independence_test(
    x, y, z, *, linear_only: bool = False, squares_only: bool = False
) -> CITestResult:
    """Test whether x and y are independent given the scalar conditioner z.

    ``linear_only`` tests the linear moment pair alone and ``squares_only``
    the squares pair alone, one-sided; see the module docstring. Each
    input is an array or its RankScores.
    """
    if linear_only and squares_only:
        raise ValueError("linear_only and squares_only exclude each other")
    return _gcm(*_scored(x=x, y=y, z=z), linear_only, squares_only)
