"""Regression tests for NaN handling in order checks and validation.

NaN comparisons are all False, which broke the original checks in two
ways: single-element (and trailing-NaN) arrays passed ``is_sorted``, and
the "first failing index" diagnostic computed via ``argmax(a[:-1] >
a[1:])`` pointed at index 0 regardless of where the violation was.
"""

import numpy as np
import pytest

from repro.errors import ValidationError
from repro.hetsort.validate import check_sorted_permutation
from repro.kernels.utils import first_unsorted_index, has_nan, is_sorted


def test_has_nan():
    assert has_nan(np.array([1.0, np.nan]))
    assert not has_nan(np.array([1.0, np.inf, -np.inf]))
    assert not has_nan(np.array([], dtype=np.float64))
    assert not has_nan(np.array([1, 2, 3]))  # int arrays can't hold NaN


def test_is_sorted_rejects_nan_everywhere():
    # The original bug: a lone NaN sailed through (len < 2 shortcut),
    # as did [x, nan] (x <= nan is False... but so is nan > x).
    assert not is_sorted(np.array([np.nan]))
    assert not is_sorted(np.array([1.0, np.nan]))
    assert not is_sorted(np.array([np.nan, 1.0]))
    assert not is_sorted(np.array([np.nan, np.nan]))
    assert not is_sorted(np.array([0.0, 1.0, np.nan, 2.0]))


@pytest.mark.parametrize("n, pos", [(n, pos) for n in range(1, 5)
                                    for pos in range(n)])
def test_is_sorted_rejects_a_nan_at_every_position(n, pos):
    a = np.arange(float(n))
    a[pos] = np.nan
    assert not is_sorted(a)


def test_is_sorted_normal_cases_unaffected():
    assert is_sorted(np.array([], dtype=np.float64))
    assert is_sorted(np.array([5.0]))
    assert is_sorted(np.array([-np.inf, 0.0, np.inf]))
    assert not is_sorted(np.array([2.0, 1.0]))


def test_first_unsorted_index_points_at_real_violation():
    assert first_unsorted_index(np.array([1.0, 2.0, 3.0])) is None
    assert first_unsorted_index(np.array([3.0, 1.0, 2.0])) == 0
    assert first_unsorted_index(np.array([1.0, 3.0, 2.0])) == 1
    # The argmax-over-'>' bug reported 0 here; the first violating pair
    # is (a[1], a[2]) = (1.0, nan).
    assert first_unsorted_index(np.array([0.0, 1.0, np.nan, 2.0])) == 1
    assert first_unsorted_index(np.array([np.nan])) == 0
    assert first_unsorted_index(np.array([], dtype=np.float64)) is None
    assert first_unsorted_index(np.array([7.0])) is None


def test_validation_rejects_nan_input_with_position():
    data = np.array([1.0, np.nan, 2.0, np.nan])
    with pytest.raises(ValidationError, match=r"index 1.*2 total"):
        check_sorted_permutation(data, np.sort(data))


def test_validation_reports_input_nan_when_output_has_nan_too():
    data = np.array([3.0, np.nan, 1.0])
    with pytest.raises(ValidationError) as err:
        check_sorted_permutation(data, np.sort(data))
    assert str(err.value) == ("input contains NaN (first at index 1, "
                              "1 total); keys must be totally ordered")


def test_validation_rejects_nan_output():
    original = np.array([1.0, 2.0, 3.0])
    bad_out = np.array([1.0, 2.0, np.nan])
    with pytest.raises(ValidationError, match="output contains NaN"):
        check_sorted_permutation(original, bad_out)


def test_validation_reports_unsorted_index():
    original = np.array([1.0, 2.0, 3.0])
    with pytest.raises(ValidationError, match="not sorted at index 1"):
        check_sorted_permutation(original, np.array([1.0, 3.0, 2.0]))


def test_validation_accepts_sorted_permutation():
    original = np.array([3.0, -np.inf, 1.0, np.inf])
    check_sorted_permutation(original, np.sort(original))


def test_validation_rejects_non_permutation():
    with pytest.raises(ValidationError, match="permutation"):
        check_sorted_permutation(np.array([1.0, 2.0]),
                                 np.array([1.0, 3.0]))
