"""Checks for the deterministic RNG substream helpers."""

import warnings

import numpy as np
import pytest
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st

from envcausal._streams import (
    counter_uniforms,
    laplace_inverse_cdf,
    mix64,
    open_uniform,
    substream,
)


def test_mix64_is_deterministic_and_64_bit():
    assert mix64(1, 2, 3) == mix64(1, 2, 3)
    assert 0 <= mix64(0) < 2**64
    assert 0 <= mix64(2**64 - 1, 2**63) < 2**64


def test_mix64_has_no_collisions_on_a_small_grid():
    keys = {mix64(a, b) for a in range(200) for b in range(200)}
    assert len(keys) == 200 * 200


def test_mix64_order_sensitivity():
    assert mix64(1, 2) != mix64(2, 1)
    assert mix64(0, 1) != mix64(1)


@given(st.lists(st.integers(min_value=0, max_value=2**64 - 1), min_size=1, max_size=5))
@settings(max_examples=200, deadline=None)
def test_mix64_stays_in_range(components):
    assert 0 <= mix64(*components) < 2**64


def test_substream_reproducible_and_role_separated():
    a = substream(7, 1).uniform(size=10)
    b = substream(7, 1).uniform(size=10)
    c = substream(7, 2).uniform(size=10)
    np.testing.assert_array_equal(a, b)
    assert not np.array_equal(a, c)


def test_open_uniform_strictly_inside_unit_interval():
    u = open_uniform(substream(3, 9), size=200_000)
    assert u.min() > 0.0
    assert u.max() < 1.0


def test_laplace_inverse_cdf_matches_scipy_ppf():
    u = np.linspace(0.001, 0.999, 999)
    for loc, scale in [(0.0, 1.0), (-0.7, 0.3), (2.5, 4.0)]:
        expected = scipy.stats.laplace.ppf(u, loc=loc, scale=scale)
        np.testing.assert_allclose(laplace_inverse_cdf(u, loc, scale), expected, atol=1e-12)


def test_laplace_inverse_cdf_midpoint_is_location():
    assert laplace_inverse_cdf(0.5, loc=1.25, scale=3.0) == pytest.approx(1.25)


@given(
    st.integers(min_value=0, max_value=2**64 - 1),
    st.integers(min_value=0, max_value=2**64 - 1),
    st.integers(min_value=0, max_value=6),
    st.integers(min_value=0, max_value=6),
)
@settings(max_examples=200, deadline=None)
def test_counter_uniforms_entry_is_the_scalar_hash(seed, role, e, j):
    block = counter_uniforms(mix64(seed, role), e + 1, j + 1)
    assert block[e, j] == ((mix64(seed, role, e, j) >> 12) + 0.5) * 2.0**-52


def test_counter_uniforms_are_open_and_uniform():
    u = counter_uniforms(mix64(3, 9), 1000, 200).ravel()
    assert u.min() > 0.0
    assert u.max() < 1.0
    assert scipy.stats.kstest(u, "uniform").statistic < 0.01


def test_counter_uniforms_smaller_block_is_the_leading_corner():
    # Entries depend on their (row, column) counters alone, so datasets
    # stay prefix-stable as samples or environments are added.
    key = mix64(5, 4)
    np.testing.assert_array_equal(counter_uniforms(key, 3, 2), counter_uniforms(key, 8, 6)[:3, :2])
    np.testing.assert_array_equal(counter_uniforms(key, 1, 1), counter_uniforms(key, 4, 9)[:1, :1])


def test_counter_uniforms_wrap_without_overflow_warnings():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for key in (0, 2**64 - 1, mix64(1, 2)):
            for shape in ((1, 1), (3, 5)):
                assert counter_uniforms(key, *shape).shape == shape
