"""Tests for the stable pair-wise merge kernel."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ValidationError
from repro.kernels.mergepath import merge_two
from tests.kernels.oracles import (key_sorted, losertree_merge,
                                   losertree_merge_keys)

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


def test_merge_two_puts_negative_zero_first():
    """The two zeros compare equal but differ bitwise; the output is in
    key order whichever run each zero came from."""
    for a, b in (([-0.0, 1.0], [0.0, 1.0]), ([0.0, 1.0], [-0.0, 1.0])):
        out = merge_two(np.array(a), np.array(b))
        assert np.signbit(out[0]) and not np.signbit(out[1])


def signed_zero_runs(rng, k, n=200):
    """Key-sorted runs laced with signed zeros, +-inf and subnormals.
    Equal-comparing values differ bitwise (``-0.0`` vs ``+0.0``), so the
    bits show whether the zeros come out in key order."""
    pool = np.array([0.0, -0.0, np.inf, -np.inf, 5e-324, -5e-324, 1.0,
                     -1.0, 2.2e-308])
    return [key_sorted(np.concatenate([rng.choice(pool, n // 2),
                                       rng.normal(size=n // 2)]))
            for _ in range(k)]


def test_merge_two_bitwise_matches_oracle(rng):
    for _ in range(5):
        a, b = signed_zero_runs(rng, 2)
        want = losertree_merge_keys([a, b]).view(np.uint64)
        assert np.array_equal(merge_two(a, b).view(np.uint64), want)
        # A run sorted by value only (+0.0 before -0.0) merges the same.
        zeros = slice(np.searchsorted(a, 0, "left"),
                      np.searchsorted(a, 0, "right"))
        a[zeros] = a[zeros][::-1].copy()
        assert np.array_equal(merge_two(a, b).view(np.uint64), want)


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


def test_pairwise_merge_functional(rng):
    a = np.sort(rng.normal(size=400))
    b = np.sort(rng.normal(size=300))
    m = merge_two(a, b)
    assert np.array_equal(m, np.sort(np.concatenate([a, b])))
