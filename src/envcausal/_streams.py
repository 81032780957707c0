"""Deterministic RNG substreams derived from integer key mixing.

Every random draw in the package is keyed by (seed, context...) via a
splitmix64 avalanche, so distinct roles (cause noise, effect noise,
parameter draws, benchmark cells) consume provably disjoint streams:
altering how one role draws can never shift another role's values.
Dataset noise needs no generator: each value hashes its own counter
(seed, role, environment, sample). This is what makes the structural-zero
and determinism invariants testable.
"""

from __future__ import annotations

import numpy as np
from numpy.typing import NDArray

_MASK64 = (1 << 64) - 1

# Role codes, global so key derivations never collide across modules.
ROLE_CAUSE_PARAMS = 1
ROLE_MECH_PARAMS = 2
ROLE_STRUCTURE = 3
ROLE_CAUSE_NOISE = 4
ROLE_MECH_NOISE = 5
ROLE_PERMUTATION = 6
ROLE_BASELINE = 8
ROLE_DUALITY_CAUSE = 9
ROLE_DUALITY_MECH = 10
ROLE_MIXING = 11


def _fold(h, c):
    """One splitmix64 step, on Python ints or uint64 arrays (which wrap)."""
    h = (h ^ c) * 0xBF58476D1CE4E5B9 & _MASK64
    h ^= h >> 30
    h = h * 0x94D049BB133111EB & _MASK64
    h ^= h >> 31
    return (h + 0x9E3779B97F4A7C15) & _MASK64


def mix64(*components: int) -> int:
    """Fold integer components into one 64-bit key (splitmix64 finalizer).

    Order-sensitive and avalanche-quality: flipping any input bit flips
    about half the output bits, so nearby (seed, index) tuples yield
    unrelated keys.
    """
    h = 0x9E3779B97F4A7C15
    for c in components:
        h = _fold(h, int(c) & _MASK64)
    return h


def mix64_array(key: int, *components: NDArray[np.uint64]) -> NDArray[np.uint64]:
    """Continue the mix64 fold from ``key`` over broadcast uint64 arrays:
    elementwise ``mix64_array(mix64(*a), *b) == mix64(*a, *b)``. Arrays
    need ndim >= 1; 0-d ones decay to scalars, whose products warn."""
    h = np.uint64(key)
    for c in components:
        h = _fold(h, c)
    return h


def counter_uniforms(key: int, n_rows: int, n_cols: int) -> NDArray[np.float64]:
    """(n_rows, n_cols) open-interval uniforms; entry (i, j) is
    ``((mix64_array(key, i, j) >> 12) + 0.5) * 2^-52``, exact in float64,
    in [2^-53, 1 - 2^-53] and symmetric about 1/2. A smaller block is the
    leading corner of a larger one."""
    rows = np.arange(n_rows, dtype=np.uint64)[:, None]
    cols = np.arange(n_cols, dtype=np.uint64)[None, :]
    h = mix64_array(key, rows, cols)
    return ((h >> 12).astype(np.float64) + 0.5) * 2.0**-52


def substream(*components: int) -> np.random.Generator:
    """Fresh generator for the stream identified by the component tuple."""
    return np.random.Generator(np.random.PCG64(mix64(*components)))


def open_uniform(rng: np.random.Generator, size=None) -> NDArray[np.float64]:
    """Uniform draws on the open interval (0, 1).

    Integer draws in [1, 2^53 - 1] scaled by 2^-53: both endpoints are
    excluded, so inverse-CDF transforms stay finite.
    """
    return rng.integers(1, (1 << 53), size=size).astype(np.float64) / float(1 << 53)


def laplace_inverse_cdf(u: NDArray[np.float64], loc, scale) -> NDArray[np.float64]:
    """Laplace quantile function, valid for u strictly inside (0, 1)."""
    v = np.asarray(u) - 0.5
    return loc - scale * np.sign(v) * np.log1p(-2.0 * np.abs(v))
