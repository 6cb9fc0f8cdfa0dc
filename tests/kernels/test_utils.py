"""Tests for the float<->uint64 key transform and verification helpers."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.errors import ValidationError
from repro.kernels import utils
from repro.kernels.utils import (check_no_nan, is_sorted, same_multiset,
                                 sort_in_key_order)
from tests.kernels.oracles import (float64_to_ordered_uint64,
                                   ordered_uint64_to_float64)
from tests.kernels.test_radix import bitwise_reference, special_mix

finite_f64 = st.floats(allow_nan=False, allow_infinity=True, width=64)


def test_roundtrip_simple():
    a = np.array([-2.5, -0.0, 0.0, 1.0, np.inf, -np.inf])
    k = float64_to_ordered_uint64(a)
    back = ordered_uint64_to_float64(k)
    assert np.array_equal(a.view(np.uint64), back.view(np.uint64))


def test_order_preserved():
    a = np.array([3.5, -1.0, 0.0, 2.0, -7.25, 1e300, -1e300, np.inf])
    k = float64_to_ordered_uint64(a)
    assert np.array_equal(np.argsort(k, kind="stable"),
                          np.argsort(a, kind="stable"))
    # Sorting by key always yields a float-sorted sequence, even with
    # mixed zero signs (where key order refines float order).
    z = np.array([0.0, -0.0, 1.0, -0.0])
    kz = float64_to_ordered_uint64(z)
    by_key = z[np.argsort(kz, kind="stable")]
    assert np.all(by_key[:-1] <= by_key[1:])


def test_negative_zero_below_positive_zero():
    k = float64_to_ordered_uint64(np.array([-0.0, 0.0]))
    assert k[0] < k[1]


def test_nan_rejected():
    with pytest.raises(ValidationError):
        float64_to_ordered_uint64(np.array([np.nan]))
    with pytest.raises(ValidationError):
        check_no_nan(np.array([1.0, np.nan, 2.0]))


def test_wrong_dtypes_rejected():
    with pytest.raises(ValidationError):
        float64_to_ordered_uint64(np.zeros(3, dtype=np.float32))
    with pytest.raises(ValidationError):
        ordered_uint64_to_float64(np.zeros(3, dtype=np.int64))


def test_is_sorted():
    assert is_sorted(np.array([1.0, 1.0, 2.0]))
    assert not is_sorted(np.array([2.0, 1.0]))
    assert is_sorted(np.empty(0))
    assert is_sorted(np.array([5.0]))


@pytest.mark.parametrize("n", [utils._STRIP - 1, utils._STRIP,
                               utils._STRIP + 1, 2 * utils._STRIP + 1])
def test_is_sorted_compares_across_strips(n):
    """Every adjacent pair is compared, the pairs that straddle a strip
    boundary too, and a NaN anywhere fails."""
    strip = utils._STRIP
    a = np.arange(n, dtype=np.float64)
    assert is_sorted(a)
    for i in sorted({0, strip - 1, strip, n - 1} & set(range(n))):
        bad = a.copy()
        bad[i] = np.nan
        assert not is_sorted(bad)
        if i + 1 < n:
            bad = a.copy()
            bad[i:i + 2] = bad[i:i + 2][::-1].copy()
            assert not is_sorted(bad)
    # The zero block straddling a strip boundary sorts either way.
    zeros = a - min(strip, n - 4)
    zeros[np.abs(zeros) <= 2] = 0.0
    zeros[np.flatnonzero(zeros == 0)[::2]] = -0.0
    assert is_sorted(zeros)


def test_same_multiset():
    a = np.array([1.0, 2.0, 2.0])
    assert same_multiset(a, np.array([2.0, 1.0, 2.0]))
    assert not same_multiset(a, np.array([1.0, 2.0, 3.0]))
    assert not same_multiset(a, np.array([1.0, 2.0]))


def test_same_multiset_distinguishes_zero_signs():
    assert not same_multiset(np.array([0.0]), np.array([-0.0]))


@given(hnp.arrays(np.float64, st.integers(1, 200), elements=finite_f64))
@settings(max_examples=100, deadline=None)
def test_property_transform_is_monotone_bijection(a):
    k = float64_to_ordered_uint64(a)
    # Bijection: exact bitwise roundtrip.
    back = ordered_uint64_to_float64(k)
    assert np.array_equal(a.view(np.uint64), back.view(np.uint64))
    # Monotone: uint order equals float order for every pair.
    order_f = np.argsort(a, kind="stable")
    order_k = np.argsort(k, kind="stable")
    assert np.array_equal(a[order_f], a[order_k])


def dense_specials(rng, n):
    """``n`` floats, about half of them +-0.0, +-inf or subnormals."""
    pool = np.array([0.0, -0.0, np.inf, -np.inf, 5e-324, -5e-324,
                     2.2e-308, -2.2e-308])
    a = rng.normal(size=n)
    dense = rng.random(n) < 0.5
    a[dense] = rng.choice(pool, int(dense.sum()))
    return a


@pytest.mark.parametrize("n", [0, 1, 2, 3, 10, 110, 1000, 5000])
def test_key_order_sort_matches_bitwise_reference(rng, n):
    """The helper's bits equal the stable argsort of the keys, on inputs
    dense with both zeros (where a value-only sort may change their
    signs)."""
    for a in (dense_specials(rng, n), special_mix(rng, n)[:n]):
        want = bitwise_reference(a)
        sort_in_key_order(a)
        assert np.array_equal(a.view(np.uint64), want)


@pytest.mark.parametrize("zeros", [[0.0] * 50, [-0.0] * 50, [0.0], [-0.0],
                                   [1.0, -0.0, -1.0]])
def test_key_order_sort_of_zero_blocks(zeros):
    a = np.array(zeros)
    want = bitwise_reference(a)
    sort_in_key_order(a)
    assert np.array_equal(a.view(np.uint64), want)


def test_key_order_sort_of_a_strided_view(rng):
    outer = dense_specials(rng, 2001)
    odds, evens = outer[1::2], outer[::2].copy()
    want = bitwise_reference(odds)
    sort_in_key_order(odds)
    assert np.array_equal(outer[1::2].view(np.uint64), want)
    assert np.array_equal(outer[::2].view(np.uint64), evens.view(np.uint64))
