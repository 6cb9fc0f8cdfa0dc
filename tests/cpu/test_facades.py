"""Tests for the host-side sort-library facades (functional + cost
model) and the Fig. 6 merge primitives the runs call directly."""

import numpy as np
import pytest

from repro.cpu import LIBRARIES, get_library
from repro.hw.platforms import PLATFORM1
from repro.kernels import merge_two, multiway_merge
from repro.kernels.utils import is_sorted, same_multiset


@pytest.mark.parametrize("name", sorted(LIBRARIES))
def test_every_library_sorts(name, rng):
    lib = get_library(name)
    a = rng.normal(size=3000)
    s = lib.sort(a, threads=8)
    assert is_sorted(s)
    assert same_multiset(a, s)


def test_unknown_library():
    with pytest.raises(KeyError):
        get_library("introsort9000")


def test_library_cost_models_bound_to_platform():
    n = 10 ** 8
    gnu = get_library("gnu")
    assert gnu.seconds(PLATFORM1, n, 16) == pytest.approx(
        PLATFORM1.sort_model("gnu").seconds(n, 16))


def test_sequential_libraries_ignore_threads(rng):
    std = get_library("std")
    a = rng.normal(size=500)
    assert np.array_equal(std.sort(a, threads=16), std.sort(a, threads=1))
    n = 10 ** 7
    assert std.seconds(PLATFORM1, n, 16) == std.seconds(PLATFORM1, n, 1)


def test_pairwise_merge_functional(rng):
    a = np.sort(rng.normal(size=400))
    b = np.sort(rng.normal(size=300))
    m = merge_two(a, b)
    assert np.array_equal(m, np.sort(np.concatenate([a, b])))


def test_multiway_merge_functional(rng):
    runs = [np.sort(rng.normal(size=100)) for _ in range(5)]
    m = multiway_merge(runs)
    assert np.array_equal(m, np.sort(np.concatenate(runs)))


def test_merge_cost_models():
    n = 10 ** 9
    t2 = PLATFORM1.merge.seconds(n, threads=16, k=2)
    t8 = PLATFORM1.merge.seconds(n, threads=16, k=8)
    assert t8 > t2  # k-way costs more per element
