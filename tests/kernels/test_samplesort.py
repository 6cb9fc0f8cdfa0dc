"""Tests for parallel sample sort (the GNU parallel-mode stand-in)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.errors import ValidationError
from repro.kernels.samplesort import (partition_by_splitters, sample_sort,
                                      sample_splitters)
from repro.kernels.utils import is_sorted, same_multiset

finite_f64 = st.floats(allow_nan=False, allow_infinity=False, width=64)


@pytest.mark.parametrize("threads", [1, 2, 4, 8, 16, 20])
def test_sorts_correctly_any_thread_count(rng, threads):
    a = rng.normal(size=5000)
    s = sample_sort(a, threads=threads)
    assert is_sorted(s)
    assert same_multiset(a, s)


def test_small_inputs(rng):
    assert len(sample_sort(np.empty(0))) == 0
    assert sample_sort(np.array([1.0]))[0] == 1.0
    assert np.array_equal(sample_sort(np.array([2.0, 1.0]), threads=8),
                          np.array([1.0, 2.0]))


def test_duplicate_heavy_input(rng):
    a = rng.integers(0, 4, 3000).astype(float)
    s = sample_sort(a, threads=8)
    assert is_sorted(s) and same_multiset(a, s)


def test_deterministic_given_seed(rng):
    a = rng.normal(size=2000)
    assert np.array_equal(sample_sort(a, threads=4),
                          sample_sort(a, threads=4))


def test_nan_rejected():
    with pytest.raises(ValidationError):
        sample_sort(np.array([np.nan, 1.0]))


def test_2d_rejected():
    with pytest.raises(ValidationError):
        sample_sort(np.zeros((3, 3)))


def test_splitters_count_and_order(rng):
    a = rng.normal(size=10_000)
    for p in (2, 4, 16):
        sp = sample_splitters(a, p)
        assert len(sp) == p - 1
        assert is_sorted(sp)
    assert len(sample_splitters(a, 1)) == 0


def test_splitters_invalid_parts(rng):
    with pytest.raises(ValidationError):
        sample_splitters(np.zeros(4), 0)


def test_partition_covers_input_disjointly(rng):
    a = rng.normal(size=4000)
    sp = sample_splitters(a, 8)
    buckets = partition_by_splitters(a, sp)
    assert len(buckets) == 8
    assert sum(map(len, buckets)) == len(a)
    assert same_multiset(a, np.concatenate(buckets))
    # Bucket ranges are ordered: max of bucket i <= min of bucket i+1.
    prev_max = -np.inf
    for b in buckets:
        if len(b):
            assert b.min() >= prev_max
            prev_max = max(prev_max, b.max())


def test_partition_without_splitters_returns_copy(rng):
    a = rng.normal(size=10)
    buckets = partition_by_splitters(a, a[:0])
    assert len(buckets) == 1
    assert np.array_equal(buckets[0], a)
    buckets[0][0] = 99.0
    assert a[0] != 99.0


def test_bucket_balance_uniform(rng):
    """Oversampling must keep buckets reasonably balanced on uniform
    data (within a factor ~3 of ideal for 8 buckets)."""
    a = rng.random(40_000)
    buckets = partition_by_splitters(a, sample_splitters(a, 8))
    ideal = len(a) / 8
    assert max(map(len, buckets)) < 3 * ideal


@given(a=hnp.arrays(np.float64, st.integers(0, 400), elements=finite_f64),
       threads=st.integers(1, 16))
@settings(max_examples=60, deadline=None)
def test_property_matches_numpy(a, threads):
    assert np.array_equal(sample_sort(a, threads=threads), np.sort(a))
