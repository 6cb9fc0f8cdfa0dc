"""Tests for k-way merging: loser tree, vectorised tree merge, and
multi-sequence partitioning."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ValidationError
from repro.kernels.multiway import (losertree_merge, multiway_merge,
                                    multiway_rank_split, partition_multiway)

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
    runs = [np.sort(np.concatenate([rng.choice(pool, 60),
                                    rng.normal(size=40)]), kind="stable")
            for _ in range(k)]
    assert np.array_equal(multiway_merge(runs).view(np.uint64),
                          losertree_merge(runs).view(np.uint64))


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


# ---------------------------------------------------------------------------
# multi-sequence selection / partitioning
# ---------------------------------------------------------------------------

def test_rank_split_extremes(rng):
    runs = make_runs(rng, 4)
    total = sum(map(len, runs))
    assert multiway_rank_split(runs, 0) == [0] * 4
    assert multiway_rank_split(runs, total) == [len(r) for r in runs]


def test_rank_split_prefix_property(rng):
    runs = make_runs(rng, 5)
    total = sum(map(len, runs))
    full = ref(runs)
    for rank in range(0, total + 1, max(1, total // 13)):
        cuts = multiway_rank_split(runs, rank)
        assert sum(cuts) == rank
        prefix = np.sort(np.concatenate(
            [r[:c] for r, c in zip(runs, cuts)])) if rank else np.empty(0)
        assert np.array_equal(prefix, full[:rank])


@pytest.mark.parametrize("dtype", [np.int64, np.uint64])
def test_rank_split_exact_above_2_53(dtype):
    """Integer keys above 2**53 do not survive a round trip through a
    Python float; the search must stay in the runs' dtype."""
    base = 2 ** 60
    runs = [np.array([base, base + 1, base + 2], dtype=dtype),
            np.array([base + 1, base + 3], dtype=dtype)]
    assert multiway_rank_split(runs, 3) == [2, 1]
    full = np.sort(np.concatenate(runs))
    for rank in range(6):
        cuts = multiway_rank_split(runs, rank)
        prefix = np.sort(np.concatenate([r[:c] for r, c in zip(runs, cuts)]))
        assert np.array_equal(prefix, full[:rank])
    for parts in (2, 3, 5):
        pieces = [multiway_merge([r[sl] for r, sl in zip(runs, grp)])
                  for grp in partition_multiway(runs, parts)]
        assert np.array_equal(np.concatenate(pieces), full)


def test_rank_split_out_of_range(rng):
    runs = make_runs(rng, 2)
    with pytest.raises(ValidationError):
        multiway_rank_split(runs, sum(map(len, runs)) + 1)


def test_partition_multiway_reassembles(rng):
    runs = make_runs(rng, 6, max_len=80)
    for parts in (1, 2, 4, 7):
        groups = partition_multiway(runs, parts)
        assert len(groups) == parts
        pieces = [multiway_merge([r[sl] for r, sl in zip(runs, grp)])
                  for grp in groups]
        assert np.array_equal(
            np.concatenate([p for p in pieces if len(p)]) if
            sum(map(len, pieces)) else np.empty(0),
            ref(runs))


def test_partition_multiway_balanced(rng):
    runs = [np.sort(rng.normal(size=100)) for _ in range(4)]
    groups = partition_multiway(runs, 8)
    sizes = [sum(sl.stop - sl.start for sl in grp) for grp in groups]
    assert max(sizes) - min(sizes) <= 1


def test_partition_multiway_invalid_parts(rng):
    with pytest.raises(ValidationError):
        partition_multiway(make_runs(rng, 2), 0)


@given(runs=run_lists, parts=st.integers(1, 6))
@settings(max_examples=60, deadline=None)
def test_property_partition_multiway(runs, parts):
    groups = partition_multiway(runs, parts)
    merged = [multiway_merge([r[sl] for r, sl in zip(runs, grp)])
              for grp in groups]
    flat = ([np.empty(0)] if not any(len(m) for m in merged)
            else [m for m in merged if len(m)])
    assert np.array_equal(np.concatenate(flat), ref(runs))
