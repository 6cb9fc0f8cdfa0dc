"""Tests for k-way merging: the multiway merge kernel against the
loser-tree oracle."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ValidationError
from repro.kernels.multiway import multiway_merge
from tests.kernels.oracles import (key_sorted, losertree_merge,
                                   losertree_merge_keys)

run_lists = st.lists(
    st.lists(st.integers(-30, 30), min_size=0, max_size=40)
    .map(lambda xs: np.array(sorted(xs), dtype=np.float64)),
    min_size=1, max_size=9,
)


def ref(runs):
    total = sum(len(r) for r in runs)
    if total == 0:
        return np.empty(0)
    return np.sort(np.concatenate([r for r in runs if len(r)]))


def make_runs(rng, k, max_len=60):
    return [np.sort(rng.integers(0, 40, rng.integers(0, max_len))
                    .astype(np.float64)) for _ in range(k)]


# ---------------------------------------------------------------------------
# losertree_merge (the oracle)
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("k", [1, 2, 3, 4, 5, 8, 13])
def test_losertree_various_k(rng, k):
    runs = make_runs(rng, k)
    assert np.array_equal(losertree_merge(runs), ref(runs))


def test_losertree_empty_inputs():
    assert len(losertree_merge([np.empty(0), np.empty(0)])) == 0
    assert len(losertree_merge([])) == 0


def test_losertree_single_run(rng):
    r = np.sort(rng.normal(size=50))
    out = losertree_merge([r])
    assert np.array_equal(out, r)
    assert out is not r  # must be a copy


def test_losertree_heavy_duplicates(rng):
    runs = [np.sort(rng.integers(0, 3, 50).astype(float)) for _ in range(5)]
    assert np.array_equal(losertree_merge(runs), ref(runs))


def test_losertree_rejects_2d():
    with pytest.raises(ValidationError):
        losertree_merge([np.zeros((2, 2))])


# ---------------------------------------------------------------------------
# multiway_merge (the fast engine)
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("k", [1, 2, 3, 6, 10, 17])
def test_multiway_matches_losertree(rng, k):
    runs = make_runs(rng, k)
    assert np.array_equal(multiway_merge(runs), losertree_merge(runs))


def test_multiway_empty():
    assert len(multiway_merge([np.empty(0)])) == 0


@pytest.mark.parametrize("dtype", [np.int32, np.uint64, np.float32])
def test_empty_merges_keep_run_dtype(dtype):
    for runs in ([np.array([], dtype)],
                 [np.array([], dtype), np.array([], dtype)]):
        assert multiway_merge(runs).dtype == dtype
        assert losertree_merge(runs).dtype == dtype


@pytest.mark.parametrize("k", [2, 3, 8])
def test_multiway_bitwise_matches_losertree(rng, k):
    pool = np.array([0.0, -0.0, np.inf, -np.inf, 5e-324, -5e-324, 1.0])
    runs = [key_sorted(np.concatenate([rng.choice(pool, 60),
                                       rng.normal(size=40)]))
            for _ in range(k)]
    assert np.array_equal(multiway_merge(runs).view(np.uint64),
                          losertree_merge_keys(runs).view(np.uint64))


def test_multiway_writes_into_out(rng):
    pool = np.array([0.0, -0.0, 1.0])
    runs = [key_sorted(np.concatenate([rng.choice(pool, 30),
                                       rng.normal(size=20)]))
            for _ in range(3)]
    out = np.empty(150)
    assert multiway_merge(runs, out=out) is out
    assert np.array_equal(out.view(np.uint64),
                          losertree_merge_keys(runs).view(np.uint64))


def test_multiway_rejects_unsorted_run():
    runs = [np.array([1.0, 2.0]), np.array([5.0, 4.0]), np.array([0.0])]
    with pytest.raises(ValidationError, match="run 1"):
        multiway_merge(runs)


def test_multiway_single_run_copies(rng):
    r = np.sort(rng.normal(size=20))
    out = multiway_merge([r])
    assert np.array_equal(out, r)
    out[0] = -999.0
    assert r[0] != -999.0


@given(runs=run_lists)
@settings(max_examples=80, deadline=None)
def test_property_multiway_equals_sorted_concat(runs):
    assert np.array_equal(multiway_merge(runs), ref(runs))


@given(runs=run_lists)
@settings(max_examples=40, deadline=None)
def test_property_losertree_equals_sorted_concat(runs):
    assert np.array_equal(losertree_merge(runs), ref(runs))


def test_multiway_merge_functional(rng):
    runs = [np.sort(rng.normal(size=100)) for _ in range(5)]
    m = multiway_merge(runs)
    assert np.array_equal(m, np.sort(np.concatenate(runs)))
