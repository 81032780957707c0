"""Exchangeable multi-environment bivariate data generation.

Each environment carries latent parameters (theta for the cause marginal,
a psi bundle for the mechanism) and emits paired (x, y) samples from a
unit-triangular structural model with Laplace noise:

    cause   = s_c,            s_c ~ Laplace(theta, noise_scale)
    effect  = c * cause + s_e + c * cause^2 * [nonlinear]
              with s_e ~ Laplace(psi_loc, noise_scale)

The mechanism (everything after ``cause``) depends on the psi bundle
alone, never on theta, so cause and mechanism parameters stay independent
as the de Finetti structure requires.

The variability regime decides which parameter block is redrawn per
environment and which is pinned (a delta prior). With collapse_noise the
pinned side's noise loses its spread entirely: the noise variable is set
exactly to its location parameter, producing the degenerate datasets that
the conditional-independence tests must flag rather than mishandle.
"""

from __future__ import annotations

import csv
import io
import json
import math
import warnings
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import Callable, Literal, Union

import numpy as np
from numpy.typing import ArrayLike, NDArray

from ._config import InvalidConfig, convert_fields
from ._streams import (
    ROLE_CAUSE_NOISE,
    ROLE_CAUSE_PARAMS,
    ROLE_MECH_NOISE,
    ROLE_MECH_PARAMS,
    ROLE_STRUCTURE,
    counter_uniforms,
    laplace_inverse_cdf,
    mix64,
    substream,
)


class CausalStructure(str, Enum):
    X_TO_Y = "x_to_y"
    Y_TO_X = "y_to_x"
    INDEPENDENT = "independent"


class VariabilityRegime(str, Enum):
    FULL_EXCHANGEABLE = "full_exchangeable"
    CAUSE_VARIABILITY = "cause_variability"
    MECHANISM_VARIABILITY = "mechanism_variability"
    IID = "iid"


class DegenerateDensity(ValueError):
    pass


class DataFormatError(ValueError):
    """Malformed dataset file; carries the 1-based line number."""

    def __init__(self, message: str, line: int | None = None):
        super().__init__(message)
        self.line = line


@dataclass(frozen=True)
class MultiEnvDataset:
    """All observations as one (E, n, 2) array: environment, within-
    environment sample index, then the x and y columns.

    ``params`` holds the latent parameters as one (E, 4) table, a row per
    environment with the columns theta (cause Laplace location), psi_loc
    (effect-noise Laplace location), psi_coef (cause-to-effect coupling,
    zero for independent structures) and psi_nonlinear (1.0 when the
    environment adds the quadratic term psi_coef * cause^2, else 0.0).
    """

    samples: NDArray[np.float64]
    truth: CausalStructure
    regime: VariabilityRegime
    params: NDArray[np.float64]
    seed: int
    noise_scale: float = 1.0
    collapse_noise: bool = False

    def __post_init__(self):
        convert_fields(self)
        shape = self.samples.shape
        if len(shape) != 3 or shape[2] != 2:
            raise InvalidConfig(f"samples must have shape (E, n, 2), got {shape}")
        if shape[0] < 1 or self.params.shape != (shape[0], 4):
            raise InvalidConfig("params must have shape (E, 4) for E >= 1 environments")
        if self.noise_scale <= 0:
            raise InvalidConfig("noise_scale must be positive and finite")


@dataclass(frozen=True)
class DGPConfig:
    n_environments: int
    regime: VariabilityRegime
    structure: Union[CausalStructure, Literal["random"]]
    samples_per_env: int = 2
    noise_scale: float = 1.0
    collapse_noise: bool = False
    coef_magnitude_range: tuple[float, float] = (0.5, 2.0)

    def __post_init__(self):
        convert_fields(self)
        if self.n_environments <= 0:
            raise InvalidConfig("n_environments must be positive")
        if self.samples_per_env <= 0:
            raise InvalidConfig("samples_per_env must be positive")
        if self.noise_scale <= 0:
            raise InvalidConfig("noise_scale must be positive and finite")
        lo, hi = self.coef_magnitude_range
        if not 0 < lo <= hi:
            raise InvalidConfig("coef_magnitude_range must satisfy 0 < low <= high < inf")


def _varying_sides(regime: VariabilityRegime) -> tuple[bool, bool]:
    """(cause side varies, mechanism side varies) across environments."""
    return (
        regime in (VariabilityRegime.FULL_EXCHANGEABLE, VariabilityRegime.CAUSE_VARIABILITY),
        regime in (VariabilityRegime.FULL_EXCHANGEABLE, VariabilityRegime.MECHANISM_VARIABILITY),
    )


def sample_definetti_params(
    config: DGPConfig, structure: CausalStructure, rng: np.random.Generator
) -> NDArray[np.float64]:
    """Draw the (E, 4) parameter table under the regime's priors.

    Theta draws and psi-bundle draws come from two child streams spawned
    from ``rng``, so the two blocks cannot interleave: changing how many
    psi values are consumed leaves every theta untouched.
    """
    structure = CausalStructure(structure)
    cause_rng, mech_rng = rng.spawn(2)
    e = config.n_environments
    cause_varies, mech_varies = _varying_sides(config.regime)

    # numpy's uniform(low, high) is low + (high - low) * random(), so these
    # blocks repeat per-environment scalar draws (psi: location, sign,
    # magnitude, nonlinearity) bit for bit.
    theta = cause_rng.uniform(-1.0, 1.0, size=e if cause_varies else 1)
    d = mech_rng.random((e if mech_varies else 1, 4))
    lo, hi = config.coef_magnitude_range
    psi_loc = -1.0 + 2.0 * d[:, 0]
    coef = np.where(d[:, 1] < 0.5, 1.0, -1.0) * (lo + (hi - lo) * d[:, 2])
    if structure is CausalStructure.INDEPENDENT:
        coef = np.zeros_like(coef)
    nonlinear = d[:, 3] < 0.5

    table = np.empty((e, 4))
    table[:, 0], table[:, 1], table[:, 2], table[:, 3] = theta, psi_loc, coef, nonlinear
    return table


def random_baseline(rng: np.random.Generator) -> CausalStructure:
    """Uniform draw over the three structures: a "random" config's truth,
    and the chance-level reference of the benchmark."""
    return tuple(CausalStructure)[int(rng.integers(3))]


def _resolve_structure(config: DGPConfig, seed: int) -> CausalStructure:
    if config.structure != "random":
        return config.structure
    return random_baseline(substream(seed, ROLE_STRUCTURE))


def _param_columns(table: NDArray[np.float64]):
    """theta, psi_loc, psi_coef and psi_nonlinear as (E, 1) columns."""
    return table[:, 0:1], table[:, 1:2], table[:, 2:3], table[:, 3:4] != 0.0


def _noise_block(seed: int, role: int, loc, scale: float, n: int, collapse: bool):
    """(E, n) Laplace noise; entry (e, j) is a hash of (seed, role, e, j).

    With collapse the noise is its location, pinned across samples.
    """
    if collapse:
        return np.broadcast_to(loc, (loc.shape[0], n))
    return laplace_inverse_cdf(counter_uniforms(mix64(seed, role), loc.shape[0], n), loc, scale)


def simulate_with_params(
    config: DGPConfig,
    structure: CausalStructure,
    params: ArrayLike,
    seed: int,
) -> MultiEnvDataset:
    """Generate observations for an explicitly supplied (E, 4) parameter
    table (rows as in :class:`MultiEnvDataset`).

    Lower half of :func:`simulate_dataset`; lets tests pin coefficients
    or nonlinearity in ways the sampling priors never would.
    """
    structure = CausalStructure(structure)
    params = np.asarray(params, dtype=np.float64)
    if params.shape != (config.n_environments, 4):
        raise InvalidConfig("params must have shape (n_environments, 4)")
    n, b = config.samples_per_env, config.noise_scale
    theta, psi_loc, coef, nonlinear = _param_columns(params)
    cause_varies, mech_varies = _varying_sides(config.regime)
    collapse = config.collapse_noise
    with np.errstate(over="ignore", invalid="ignore"):  # refused below
        s_c = _noise_block(seed, ROLE_CAUSE_NOISE, theta, b, n, collapse and not cause_varies)
        s_e = _noise_block(seed, ROLE_MECH_NOISE, psi_loc, b, n, collapse and not mech_varies)
        effect = coef * s_c + s_e
        effect = np.where(nonlinear, effect + coef * s_c**2, effect)
    if structure is CausalStructure.X_TO_Y:
        x, y = s_c, effect
    elif structure is CausalStructure.Y_TO_X:
        y, x = s_c, effect
    else:
        x, y = s_c, s_e
    samples = np.stack([x, y], axis=-1)
    if not np.isfinite(samples).all():
        raise InvalidConfig(
            "samples overflow the float range: lower noise_scale or the coefficient magnitudes"
        )
    return MultiEnvDataset(
        samples=samples,
        truth=structure,
        regime=config.regime,
        params=params,
        seed=seed,
        noise_scale=config.noise_scale,
        collapse_noise=config.collapse_noise,
    )


def simulate_dataset(config: DGPConfig, seed: int) -> MultiEnvDataset:
    structure = _resolve_structure(config, seed)
    param_rng = substream(seed, ROLE_CAUSE_PARAMS, ROLE_MECH_PARAMS)
    params = sample_definetti_params(config, structure, param_rng)
    return simulate_with_params(config, structure, params, seed)


def _laplace_logpdf(value, loc, scale) -> NDArray[np.float64]:
    return -np.abs(np.asarray(value) - loc) / scale - math.log(2.0 * scale)


def joint_log_density(dataset: MultiEnvDataset) -> float:
    """Exact log-density of all observations given the recorded parameters.

    The unit-triangular coupling has determinant 1, so recovering the two
    noise values per observation and summing their Laplace log-densities
    is the whole computation.
    """
    if dataset.collapse_noise:
        raise DegenerateDensity("collapsed noise has no density")
    b = dataset.noise_scale
    theta, psi_loc, coef, nonlinear = _param_columns(dataset.params)
    x, y = dataset.samples[..., 0], dataset.samples[..., 1]
    if dataset.truth is CausalStructure.INDEPENDENT:
        s_c, s_e = x, y
    else:
        s_c, effect = (x, y) if dataset.truth is CausalStructure.X_TO_Y else (y, x)
        s_e = effect - coef * s_c
        s_e = np.where(nonlinear, s_e - coef * s_c**2, s_e)
    return float(np.sum(_laplace_logpdf(s_c, theta, b)) + np.sum(_laplace_logpdf(s_e, psi_loc, b)))


# ---------------------------------------------------------------------------
# Persistence: the dataset CSV, read and written, and the truth JSON
# sidecar, written only.

_CSV_HEADER = ["env", "sample", "x", "y"]


def write_dataset_csv(dataset: MultiEnvDataset, path: str | Path) -> None:
    """One row per (environment, sample), CRLF line ends, 17 significant digits."""
    e, n, _ = dataset.samples.shape
    index = np.indices((e, n)).reshape(2, -1).T
    table = np.column_stack([index, dataset.samples.reshape(-1, 2)])
    with open(path, "w", newline="") as f:
        np.savetxt(
            f,
            table,
            fmt="%d,%d,%.17g,%.17g",
            newline="\r\n",
            header=",".join(_CSV_HEADER),
            comments="",
        )


def write_truth_json(dataset: MultiEnvDataset, path: str | Path) -> None:
    payload = {
        "structure": dataset.truth.value,
        "regime": dataset.regime.value,
        "seed": dataset.seed,
        "noise_scale": dataset.noise_scale,
        "collapse_noise": dataset.collapse_noise,
        "params": [
            {"theta": theta, "psi_loc": loc, "psi_coef": coef, "psi_nonlinear": bool(nonlinear)}
            for theta, loc, coef, nonlinear in dataset.params.tolist()
        ],
    }
    Path(path).write_text(json.dumps(payload, indent=2))


def _bulk_table(raw: bytes, header_error, n_index):
    """read_csv_table's result from numpy's C parser, or None for the row
    walk to decide: the file is faulty, or the C parser may not read it as
    csv.reader does (a quote, a field longer than csv.reader allows, a
    character outside ASCII or one of the separators \\x1c-\\x1f)."""
    if not raw.isascii() or any(c in raw for c in (b'"', b"\x1c", b"\x1d", b"\x1e", b"\x1f")):
        # Python's int and float read non-ASCII digits and spaces and refuse
        # \x1c-\x1f, which loadtxt strips as spaces; numpy 2.4.6's loadtxt can
        # crash on a character past U+FFFF in an integer column.
        return None
    # Without quotes csv.reader splits lines at \r\n, \r and \n, as
    # bytes.splitlines does; loadtxt would not split the raw bytes at a lone \r.
    lines = raw.splitlines()
    lengths = np.fromiter(map(len, lines), dtype=np.int64, count=len(lines))
    numbers = np.flatnonzero(lengths) + 1  # 1-based numbers of the non-blank lines
    if numbers.size < 2 or lengths.max() > csv.field_size_limit():
        return None
    header = lines[0].decode().split(",")
    if header_error([h.strip() for h in header]) is not None:
        return None
    width = len(header)
    dtype = np.dtype([(f"c{j}", np.int64 if j < n_index else np.float64) for j in range(width)])
    with warnings.catch_warnings():
        # numpy 1.x reads "1.0" into an integer column with only a DeprecationWarning.
        warnings.simplefilter("error")
        table = np.loadtxt(
            lines, dtype=dtype, delimiter=",", comments=None, skiprows=1, encoding="ascii", ndmin=1
        )
    if table.size != numbers.size - 1:  # loadtxt skipped a line csv.reader reads as a row
        return None
    index = np.array([table[name] for name in dtype.names[:n_index]])
    values = np.array([table[name] for name in dtype.names[n_index:]])
    if np.any(index < 0) or not np.all(np.isfinite(values)):
        return None
    return index.T, values.T, numbers[1:]


def _records(reader, what: str):
    """Each record of a csv.reader with the number of its first physical
    line, read one at a time so that a fault names the first bad line."""
    start = 1
    try:
        for row in reader:
            yield start, row
            start = reader.line_num + 1
    except csv.Error as exc:  # a field longer than csv.field_size_limit()
        raise DataFormatError(f"cannot parse {what} file: {exc}", line=reader.line_num) from None


def read_csv_table(
    path: str | Path,
    what: str,
    header_error: Callable[[list[str]], str | None],
    n_index: int,
) -> tuple[NDArray[np.int64], NDArray[np.float64], NDArray[np.int64]]:
    """Parse a CSV table into integer index columns and float value columns.

    ``header_error`` returns the message for a header it rejects (names
    stripped of spaces), else None; the header also fixes the column
    count. Blank lines are skipped. Every row needs that many columns,
    leading integers that are not negative and finite values. Returns
    (index (N, n_index), values (N, width - n_index), 1-based line of
    each row). Errors name the offending line.

    The file is read once. One bulk pass through ``np.loadtxt`` parses a
    well-formed ASCII file without quotes; any other file, and any file
    that pass refuses or might read differently, is walked row by row
    with csv.reader and Python's ``int`` and ``float``, which decide what
    is accepted and name the first offending line. A line number counts
    physical lines, those inside a quoted field included, and a record is
    numbered by its first.
    """
    with open(path, "rb") as f:
        raw = f.read()
    try:
        table = _bulk_table(raw, header_error, n_index)
    except (ValueError, Warning):
        table = None
    if table is not None:
        return table
    # Decoded as open(path, newline="") would decode it, errors included.
    records = _records(csv.reader(io.TextIOWrapper(io.BytesIO(raw), newline="")), what)
    _, header = next(records, (1, None))
    if header is None:
        raise DataFormatError(f"empty {what} file", line=1)
    message = header_error([h.strip() for h in header])
    if message is not None:
        raise DataFormatError(message, line=1)
    width = len(header)
    lines, index, values = [], [], []
    for line, row in records:
        if not row:
            continue
        if len(row) != width:
            raise DataFormatError(f"expected {width} columns, got {len(row)}", line=line)
        try:
            index.append([int(v) for v in row[:n_index]])
            values.append([float(v) for v in row[n_index:]])
        except ValueError:
            raise DataFormatError(f"unparseable row {row!r}", line=line) from None
        if not all(0 <= i < 2**63 for i in index[-1]) or not all(map(math.isfinite, values[-1])):
            raise DataFormatError(f"invalid values in row {row!r}", line=line)
        lines.append(line)
    return (
        np.array(index, dtype=np.int64).reshape(len(lines), n_index),
        np.array(values, dtype=np.float64).reshape(len(lines), width - n_index),
        np.array(lines, dtype=np.int64),
    )


def _dataset_header_error(header: list[str]) -> str | None:
    return None if header == _CSV_HEADER else f"expected header {','.join(_CSV_HEADER)}"


def read_dataset(path: str | Path) -> NDArray[np.float64]:
    """Parse a dataset CSV into its (E, n, 2) sample array, the input of
    ``discovery.discover_structure``. The truth sidecar is not read.

    The (env, sample) indices must fill a rectangle: environments 0..E-1,
    each with samples 0..n-1, in any row order. Errors name the offending
    1-based line where there is one, so the CLI can report it.
    """
    index, values, _ = read_csv_table(path, "dataset", _dataset_header_error, 2)
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
