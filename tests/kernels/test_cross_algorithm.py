"""Cross-algorithm consistency: every sorting kernel in the library must
agree with every other on identical inputs, across distributions."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.kernels import merge_two, multiway_merge, sample_sort, sort_floats
from repro.workloads import DISTRIBUTIONS, generate
from tests.kernels.oracles import losertree_merge

SORTERS = {
    "radix": sort_floats,
    "samplesort": lambda a: sample_sort(a, threads=8),
    "numpy": np.sort,
}


@pytest.mark.parametrize("dist", sorted(DISTRIBUTIONS))
def test_all_sorters_agree(dist):
    a = generate(3000, dist, seed=17)
    results = {name: fn(a) for name, fn in SORTERS.items()}
    ref = results.pop("numpy")
    for name, out in results.items():
        assert np.array_equal(out, ref), name


def test_sort_then_split_then_merge_roundtrip(rng):
    """Sorting, splitting into runs, and multiway-merging must be
    idempotent -- the pipeline's core algebraic identity."""
    a = rng.normal(size=5000)
    full = sort_floats(a)
    for k in (2, 3, 7):
        bounds = np.linspace(0, len(a), k + 1).astype(int)
        runs = [sort_floats(a[lo:hi])
                for lo, hi in zip(bounds[:-1], bounds[1:])]
        assert np.array_equal(multiway_merge(runs), full)
        assert np.array_equal(losertree_merge(runs), full)


def test_pairwise_merge_tree_equals_multiway(rng):
    runs = [np.sort(rng.normal(size=rng.integers(0, 200)))
            for _ in range(6)]
    tree = runs[0]
    for r in runs[1:]:
        tree = merge_two(tree, r)
    assert np.array_equal(tree, multiway_merge(runs))


@given(seed=st.integers(0, 50), n=st.integers(0, 500))
@settings(max_examples=25, deadline=None)
def test_property_radix_vs_samplesort(seed, n):
    a = generate(n, "gaussian", seed=seed)
    expected = np.sort(a)
    assert np.array_equal(sort_floats(a), expected)
    assert np.array_equal(sample_sort(a, threads=4), expected)
