"""Diagnostics for how much environments actually differ.

Two families of checks live here. The first builds the matrix of
parameter differences against a baseline environment and asks whether it
has full column rank, which is what downstream identifiability needs;
a pinned (delta-distributed) parameter dimension shows up as a zero
column and destroys the rank. The second takes two closed-form densities
and measures on a grid where the derivative of their log-ratio vanishes:
genuinely different environments should make it nonzero almost
everywhere.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np
from numpy.typing import NDArray

from ._config import convert_fields

# exp(x) underflows to exactly 0.0 below roughly -745.
_LOG_UNDERFLOW = -745.0

FLAG_TOO_FEW_ENVIRONMENTS = "too_few_environments_for_full_rank"


class ShapeMismatch(ValueError):
    pass


class NonPositiveDensity(ValueError):
    pass


class DensityFamily(str, Enum):
    GAUSSIAN = "gaussian"
    LAPLACE = "laplace"


@dataclass(frozen=True)
class ModulationMatrix:
    """Rows are parameter differences theta^j - theta^0 against a baseline.

    Each environment's d_sources x k_order parameter block is flattened
    row-major into a length D = d_sources * k_order row; k_order is 1
    when each source contributes a single statistic.
    """

    entries: NDArray[np.float64]  # shape (E-1, D)
    baseline_index: int
    d_sources: int
    k_order: int

    @property
    def n_columns(self) -> int:
        return self.d_sources * self.k_order


@dataclass(frozen=True)
class VariabilityReport:
    rank: int
    full_column_rank: bool
    condition_number: float
    singular_values: tuple[float, ...]
    tolerance: float
    flags: tuple[str, ...] = ()


@dataclass(frozen=True)
class DensitySpec:
    """Scalar closed-form density. scale is the standard deviation for
    Gaussian and the diversity b for Laplace."""

    family: DensityFamily
    loc: float
    scale: float

    def __post_init__(self):
        convert_fields(self)
        if self.scale <= 0:
            raise ValueError("scale must be strictly positive")

    def log_pdf(self, x: NDArray[np.float64]) -> NDArray[np.float64]:
        z = (np.asarray(x, dtype=np.float64) - self.loc) / self.scale
        if self.family is DensityFamily.GAUSSIAN:
            return -0.5 * z * z - math.log(self.scale) - 0.5 * math.log(2.0 * math.pi)
        return -np.abs(z) - math.log(2.0 * self.scale)


@dataclass(frozen=True)
class DiscrepancyQuery:
    density_p: DensitySpec
    density_p_tilde: DensitySpec
    interval: tuple[float, float]
    grid_points: int = 10001
    derivative_step: float = 1e-4
    zero_tolerance: float = 1e-6

    def __post_init__(self):
        convert_fields(self)
        lo, hi = self.interval
        if not lo < hi:
            raise ValueError("interval must be finite with lo < hi")
        if self.grid_points < 101:
            raise ValueError("grid_points must be at least 101")
        if not (self.derivative_step > 0 and self.zero_tolerance > 0):
            raise ValueError("derivative_step and zero_tolerance must be positive and finite")


def _as_table(thetas, ndims: tuple[int, ...] = (2,)) -> NDArray[np.float64]:
    arr = np.asarray(thetas, dtype=np.float64)
    if arr.ndim not in ndims:
        expected = " or ".join(str(d) for d in ndims)
        raise ShapeMismatch(f"expected a {expected}-dimensional table, got shape {arr.shape}")
    if arr.shape[0] < 2:
        raise ShapeMismatch("need at least two environments")
    if not np.all(np.isfinite(arr)):
        raise ShapeMismatch("parameter table contains non-finite values")
    return arr


def build_modulation_matrix(thetas, baseline_index: int = 0) -> ModulationMatrix:
    """Difference each environment's parameter vector against the baseline's.

    ``thetas`` is an (E, D) table, or an (E, d, k) table with k statistics
    per source whose d x k blocks are flattened row-major. Row order
    follows environment order with the baseline row removed.
    """
    table = _as_table(thetas, (2, 3))
    e = table.shape[0]
    if not 0 <= baseline_index < e:
        raise ShapeMismatch(f"baseline_index {baseline_index} out of range for {e} environments")
    d, k = table.shape[1], table.shape[2] if table.ndim == 3 else 1
    flat = table.reshape(e, d * k)
    keep = [j for j in range(e) if j != baseline_index]
    with np.errstate(over="ignore"):
        entries = flat[keep] - flat[baseline_index]
    if not np.all(np.isfinite(entries)):
        raise ShapeMismatch("parameter differences overflow the float range")
    return ModulationMatrix(entries=entries, baseline_index=baseline_index, d_sources=d, k_order=k)


def check_sufficient_variability(
    matrix: ModulationMatrix, tolerance: float = 1e-10
) -> VariabilityReport:
    """Rank the difference rows by singular values at a relative tolerance.

    Full column rank requires at least D non-baseline environments; with
    fewer, the report carries a flag explaining why it cannot hold.
    """
    if not 0.0 < tolerance < 1.0:
        raise ValueError("tolerance must lie strictly between 0 and 1")
    entries = matrix.entries
    if entries.shape[0] < 1:
        raise ShapeMismatch("modulation matrix has no rows")
    d_cols = matrix.n_columns
    singular = np.linalg.svd(entries, compute_uv=False)
    s_max = float(singular[0]) if singular.size else 0.0
    if s_max == 0.0:
        rank = 0
    else:
        rank = int(np.sum(singular > tolerance * s_max))
    if rank == 0:
        condition = math.inf
    else:
        condition = s_max / float(singular[rank - 1])
    flags: tuple[str, ...] = ()
    if entries.shape[0] < d_cols:
        flags = (FLAG_TOO_FEW_ENVIRONMENTS,)
    return VariabilityReport(
        rank=rank,
        full_column_rank=rank == d_cols,
        condition_number=condition,
        singular_values=tuple(float(s) for s in singular),
        tolerance=tolerance,
        flags=flags,
    )


def detect_delta_prior(param_samples, tolerance: float = 1e-10) -> NDArray[np.bool_]:
    """Flag each parameter dimension whose draws never move away from the
    first environment's value by more than the tolerance."""
    table = _as_table(param_samples)
    if tolerance < 0:
        raise ValueError("tolerance must be non-negative")
    return np.max(np.abs(table - table[0]), axis=0) <= tolerance


def default_discrepancy_interval(p: DensitySpec, p_tilde: DensitySpec) -> tuple[float, float]:
    """Wide-support evaluation window: locations padded by 5 scales for a
    Gaussian pair, 8 for anything involving the heavier Laplace tails."""
    pad = 5.0 if (p.family is DensityFamily.GAUSSIAN and p_tilde.family is DensityFamily.GAUSSIAN) else 8.0
    widest = max(p.scale, p_tilde.scale)
    return (min(p.loc, p_tilde.loc) - pad * widest, max(p.loc, p_tilde.loc) + pad * widest)


def interventional_discrepancy_fraction(query: DiscrepancyQuery) -> tuple[float, bool]:
    """Measure where d/dx log(p_tilde(x)/p(x)) vanishes on the grid.

    Returns (fraction of grid points with |derivative| <= zero_tolerance,
    whether that fraction is small enough to call the densities different
    almost everywhere). Identical densities give fraction 1.0; densities
    differing only in scale give an isolated zero that at most one or two
    grid points can hit.
    """
    lo, hi = query.interval
    grid = np.linspace(lo, hi, query.grid_points)
    h = query.derivative_step

    def log_ratio(points: NDArray[np.float64]) -> NDArray[np.float64]:
        lp = query.density_p.log_pdf(points)
        lpt = query.density_p_tilde.log_pdf(points)
        # Finite settings near the float maximum overflow the shifted grid
        # or the squared standardized distance to an infinite log-density.
        if not (np.all(np.isfinite(lp)) and np.all(np.isfinite(lpt))):
            raise NonPositiveDensity("log-density overflows the float range on the evaluation grid")
        if np.any(lp <= _LOG_UNDERFLOW) or np.any(lpt <= _LOG_UNDERFLOW):
            raise NonPositiveDensity("density underflows to zero on the evaluation grid")
        return lpt - lp

    with np.errstate(over="ignore"):
        derivative = (log_ratio(grid + h) - log_ratio(grid - h)) / (2.0 * h)
    fraction_zero = float(np.mean(np.abs(derivative) <= query.zero_tolerance))
    return fraction_zero, fraction_zero <= 0.01
