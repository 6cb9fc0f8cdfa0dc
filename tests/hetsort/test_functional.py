"""Functional-mode integration tests: every approach must really sort.

These run the full simulated pipeline over real numpy arrays and verify
the output is a sorted permutation of the input -- the same code path the
timing experiments use.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import PlanError, ValidationError
from repro.hetsort import (Approach, HeterogeneousSorter,
                           check_sorted_permutation)
from repro.hw.platforms import PLATFORM1, PLATFORM2
from repro.kernels.utils import is_sorted, same_multiset
from repro.workloads import generate
from tests.kernels.oracles import key_sorted

APPROACHES = ["blinemulti", "pipedata", "pipemerge"]


def small_sorter(platform=PLATFORM1, **kw):
    kw.setdefault("batch_size", 25_000)
    kw.setdefault("pinned_elements", 4_000)
    return HeterogeneousSorter(platform, **kw)


@pytest.mark.parametrize("approach", APPROACHES)
def test_sorts_uniform_data(approach, rng):
    data = rng.random(100_000)
    res = small_sorter().sort(data, approach=approach)
    assert is_sorted(res.output)
    assert same_multiset(data, res.output)


@pytest.mark.parametrize("approach", APPROACHES)
@pytest.mark.parametrize("dist", ["gaussian", "sorted", "reverse",
                                  "duplicates", "nearly_sorted"])
def test_sorts_every_distribution(approach, dist):
    data = generate(60_000, dist, seed=7)
    res = small_sorter().sort(data, approach=approach)
    assert is_sorted(res.output)
    assert same_multiset(data, res.output)


def test_bline_functional(rng):
    data = rng.random(50_000)
    res = HeterogeneousSorter(PLATFORM1).sort(data, approach="bline")
    assert is_sorted(res.output)
    assert same_multiset(data, res.output)


def test_bline_pageable_functional(rng):
    data = rng.random(50_000)
    res = HeterogeneousSorter(PLATFORM1, staging="pageable").sort(
        data, approach="bline")
    assert is_sorted(res.output)
    assert same_multiset(data, res.output)


def test_bline_two_gpus_functional(rng):
    data = rng.random(40_000)
    res = HeterogeneousSorter(PLATFORM2, n_gpus=2).sort(
        data, approach="bline")
    assert is_sorted(res.output)
    assert same_multiset(data, res.output)
    assert res.plan.n_batches == 2


@pytest.mark.parametrize("approach", APPROACHES)
def test_two_gpu_pipelines_functional(approach, rng):
    data = rng.random(120_000)
    res = small_sorter(PLATFORM2, n_gpus=2).sort(data, approach=approach)
    assert is_sorted(res.output)
    assert same_multiset(data, res.output)


def test_blinemulti_pageable_functional(rng):
    data = rng.random(80_000)
    res = small_sorter(staging="pageable").sort(data,
                                                approach="blinemulti")
    assert is_sorted(res.output)
    assert same_multiset(data, res.output)


def test_parmemcpy_functional(rng):
    data = rng.random(100_000)
    res = small_sorter(memcpy_threads=8).sort(data, approach="pipemerge")
    assert is_sorted(res.output)
    assert same_multiset(data, res.output)


def test_uneven_last_batch(rng):
    """n not divisible by b_s: the remainder batch must still work."""
    data = rng.random(90_001)
    res = small_sorter().sort(data, approach="pipemerge")
    assert is_sorted(res.output)
    assert same_multiset(data, res.output)
    assert res.plan.batches[-1].size == 90_001 - 3 * 25_000


def test_single_batch_pipeline(rng):
    """n <= b_s: the pipelined approaches degenerate to one batch and a
    copy instead of a merge."""
    data = rng.random(10_000)
    res = small_sorter().sort(data, approach="pipedata")
    assert is_sorted(res.output)
    assert res.plan.n_batches == 1


def test_more_streams_than_batches(rng):
    data = rng.random(30_000)
    res = small_sorter(n_streams=4).sort(data, approach="pipedata")
    assert is_sorted(res.output)
    assert same_multiset(data, res.output)


def test_pipemerge_counts_pairwise_merges(rng):
    data = rng.random(250_000)  # 10 batches of 25k
    res = small_sorter().sort(data, approach="pipemerge")
    assert res.plan.n_batches == 10
    assert res.meta["pairwise_merged"] == res.plan.pairwise_merges == 4
    assert is_sorted(res.output)


def test_negative_values_and_special_floats(rng):
    data = np.concatenate([
        rng.normal(size=50_000) * 1e6,
        [np.inf, -np.inf, 0.0, -0.0, 1e-308, -1e-308],
    ])
    rng.shuffle(data)
    res = small_sorter().sort(data, approach="pipemerge")
    assert is_sorted(res.output)
    assert same_multiset(data, res.output)


def test_input_array_not_mutated(rng):
    data = rng.random(60_000)
    orig = data.copy()
    small_sorter().sort(data, approach="pipemerge")
    assert np.array_equal(data, orig)


def test_sort_requires_exactly_one_of_data_or_n(rng):
    s = small_sorter()
    with pytest.raises(PlanError):
        s.sort()
    with pytest.raises(PlanError):
        s.sort(data=rng.random(10), n=10)


def test_config_and_kwargs_mutually_exclusive():
    from repro.hetsort.config import SortConfig
    with pytest.raises(PlanError):
        HeterogeneousSorter(PLATFORM1, config=SortConfig(),
                            batch_size=100)


def test_validation_catches_corruption(monkeypatch, rng):
    """If the pipeline produced garbage, validation must fire."""
    from repro.hetsort import validate as v
    with pytest.raises(ValidationError):
        v.check_sorted_permutation(np.array([1.0, 2.0]),
                                   np.array([2.0, 1.0]))
    with pytest.raises(ValidationError):
        v.check_sorted_permutation(np.array([1.0, 2.0]),
                                   np.array([1.0, 3.0]))
    with pytest.raises(ValidationError):
        v.check_sorted_permutation(np.array([1.0]), None)


def swap_zero_pair(out):
    i = np.flatnonzero(np.signbit(out) & (out == 0))[-1]   # the last -0.0
    out[i:i + 2] = out[i:i + 2][::-1].copy()


def move_by_an_ulp(out):
    out[-2] = np.nextafter(out[-2], -np.inf)


def duplicate_over_next(out):
    out[-2] = out[-3]


def nan_in_output(out):
    out[500] = np.nan


@pytest.mark.parametrize("damage, message", [
    (swap_zero_pair, "zeros out of key order"),
    (move_by_an_ulp, "not a permutation"),
    (duplicate_over_next, "not a permutation"),
    (nan_in_output, "output contains NaN"),
])
def test_validation_rejects_one_damaged_element(rng, damage, message):
    """One damaged element of a key-ordered output is caught, including
    two zeros out of key order (equal by value, so a value-only check
    would pass them)."""
    data = rng.normal(size=1000)
    data[::10], data[5::20] = 0.0, -0.0
    out = key_sorted(data)
    check_sorted_permutation(data, out)
    damage(out)
    with pytest.raises(ValidationError, match=message):
        check_sorted_permutation(data, out)


@given(n=st.integers(1, 4000), seed=st.integers(0, 10))
@settings(max_examples=20, deadline=None)
def test_property_any_size_sorts(n, seed):
    data = generate(n, "uniform", seed=seed)
    res = HeterogeneousSorter(
        PLATFORM1, batch_size=max(1, n // 3),
        pinned_elements=max(1, n // 7)).sort(data, approach="pipemerge")
    assert is_sorted(res.output)
    assert same_multiset(data, res.output)
