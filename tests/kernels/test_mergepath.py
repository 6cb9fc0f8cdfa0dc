"""Tests for Merge Path: corank invariants, partition independence,
stable vectorised merging."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ValidationError
from repro.kernels.mergepath import (corank, merge_two, parallel_merge,
                                     partition_merge)

sorted_arrays = st.lists(st.integers(-50, 50), min_size=0, max_size=120) \
    .map(lambda xs: np.array(sorted(xs), dtype=np.float64))


def ref_merge(a, b):
    return np.sort(np.concatenate([a, b]), kind="stable")


# ---------------------------------------------------------------------------
# merge_two
# ---------------------------------------------------------------------------

def test_merge_two_basic():
    a = np.array([1.0, 3.0, 5.0])
    b = np.array([2.0, 4.0, 6.0])
    assert np.array_equal(merge_two(a, b), np.arange(1.0, 7.0))


def test_merge_two_empty_sides():
    a = np.array([1.0, 2.0])
    empty = np.empty(0)
    assert np.array_equal(merge_two(a, empty), a)
    assert np.array_equal(merge_two(empty, a), a)
    assert len(merge_two(empty, empty)) == 0


def test_merge_two_with_many_ties():
    a = np.array([1.0, 1.0, 2.0, 2.0])
    b = np.array([1.0, 2.0, 2.0, 3.0])
    out = merge_two(a, b)
    assert np.array_equal(out, ref_merge(a, b))


def test_merge_two_stability():
    """Ties come from `a` first: verify via distinguishable payload trick
    using -0.0 / +0.0 which compare equal but differ bitwise."""
    a = np.array([-0.0, 1.0])
    b = np.array([0.0, 1.0])
    out = merge_two(a, b)
    # The -0.0 (from a) must precede the +0.0 (from b).
    assert np.signbit(out[0]) and not np.signbit(out[1])


def signed_zero_runs(rng, k, n=200):
    """Sorted runs (float order) laced with signed zeros, +-inf and
    subnormals.  Equal-comparing values differ bitwise (``-0.0`` vs
    ``+0.0``), so the bits show which run each tie came from."""
    pool = np.array([0.0, -0.0, np.inf, -np.inf, 5e-324, -5e-324, 1.0,
                     -1.0, 2.2e-308])
    return [np.sort(np.concatenate([rng.choice(pool, n // 2),
                                    rng.normal(size=n // 2)]),
                    kind="stable") for _ in range(k)]


def test_merge_two_bitwise_matches_oracle(rng):
    from repro.kernels.multiway import losertree_merge
    for _ in range(5):
        a, b = signed_zero_runs(rng, 2)
        assert np.array_equal(merge_two(a, b).view(np.uint64),
                              losertree_merge([a, b]).view(np.uint64))


@pytest.mark.parametrize("side", ["a", "b"])
def test_merge_two_rejects_unsorted_input(side):
    good = np.array([1.0, 2.0, 3.0])
    bad = np.array([1.0, 3.0, 2.0])
    a, b = (bad, good) if side == "a" else (good, bad)
    with pytest.raises(ValidationError, match=f"input {side}.*index 1"):
        merge_two(a, b)


def test_merge_two_disjoint_ranges():
    a = np.arange(0.0, 10.0)
    b = np.arange(10.0, 20.0)
    assert np.array_equal(merge_two(a, b), np.arange(0.0, 20.0))
    assert np.array_equal(merge_two(b, a), np.arange(0.0, 20.0))


@given(a=sorted_arrays, b=sorted_arrays)
@settings(max_examples=100, deadline=None)
def test_property_merge_two_matches_reference(a, b):
    assert np.array_equal(merge_two(a, b), ref_merge(a, b))


# ---------------------------------------------------------------------------
# corank
# ---------------------------------------------------------------------------

def assert_corank_invariants(a, b, d, i, j):
    assert i + j == d
    assert 0 <= i <= len(a) and 0 <= j <= len(b)
    if i > 0 and j < len(b):
        assert a[i - 1] <= b[j]
    if j > 0 and i < len(a):
        assert b[j - 1] < a[i]


def test_corank_every_diagonal(rng):
    a = np.sort(rng.integers(0, 30, 50).astype(float))
    b = np.sort(rng.integers(0, 30, 70).astype(float))
    for d in range(len(a) + len(b) + 1):
        i, j = corank(d, a, b)
        assert_corank_invariants(a, b, d, i, j)


def test_corank_boundaries():
    a = np.array([1.0, 2.0])
    b = np.array([3.0, 4.0])
    assert corank(0, a, b) == (0, 0)
    assert corank(4, a, b) == (2, 2)
    assert corank(2, a, b) == (2, 0)  # all of a first


def test_corank_out_of_range():
    a = np.array([1.0])
    with pytest.raises(ValidationError):
        corank(3, a, a)


def test_corank_all_ties():
    """All-equal inputs: stability demands a's elements come first."""
    a = np.full(4, 5.0)
    b = np.full(4, 5.0)
    for d in range(9):
        i, j = corank(d, a, b)
        assert_corank_invariants(a, b, d, i, j)
        assert i == min(d, 4)  # take from a first


@given(a=sorted_arrays, b=sorted_arrays, frac=st.floats(0, 1))
@settings(max_examples=100, deadline=None)
def test_property_corank_prefix_is_merge_prefix(a, b, frac):
    d = int(frac * (len(a) + len(b)))
    i, j = corank(d, a, b)
    assert_corank_invariants(a, b, d, i, j)
    prefix = ref_merge(a[:i], b[:j])
    full = ref_merge(a, b)
    assert np.array_equal(prefix, full[:d])


# ---------------------------------------------------------------------------
# partition_merge / parallel_merge
# ---------------------------------------------------------------------------

def test_partition_merge_concatenates_to_full_merge(rng):
    a = np.sort(rng.normal(size=500))
    b = np.sort(rng.normal(size=321))
    for parts in (1, 2, 3, 7, 16):
        pieces = [merge_two(a[sa], b[sb])
                  for sa, sb in partition_merge(a, b, parts)]
        assert np.array_equal(np.concatenate(pieces), ref_merge(a, b))


def test_partition_merge_balanced(rng):
    a = np.sort(rng.normal(size=800))
    b = np.sort(rng.normal(size=800))
    parts = partition_merge(a, b, 8)
    sizes = [(sa.stop - sa.start) + (sb.stop - sb.start)
             for sa, sb in parts]
    assert max(sizes) - min(sizes) <= 1  # balanced to within one element


def test_partition_merge_invalid_parts():
    a = np.array([1.0])
    with pytest.raises(ValidationError):
        partition_merge(a, a, 0)


def test_parallel_merge_equals_serial(rng):
    a = np.sort(rng.normal(size=257))
    b = np.sort(rng.normal(size=129))
    for threads in (1, 2, 5, 16):
        assert np.array_equal(parallel_merge(a, b, threads),
                              merge_two(a, b))


@given(a=sorted_arrays, b=sorted_arrays,
       parts=st.integers(min_value=1, max_value=9))
@settings(max_examples=80, deadline=None)
def test_property_partitioned_merge_correct(a, b, parts):
    got = parallel_merge(a, b, threads=parts)
    assert np.array_equal(got, ref_merge(a, b))
