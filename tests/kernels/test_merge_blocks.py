"""Hypothesis battery for the value-block merge both CPU merges share
(``kernels.utils.merge_in_key_order``).

``_BLOCK`` is patched down to a few elements, so that runs of a dozen
keys cross many block boundaries: disjoint runs (presorted input), runs
of one repeated value, empty and single-element runs, dense ±0 whose
zero block straddles a sampled splitter, ±inf and subnormals, in
float64, float32, int32 and uint64.  The output must equal the loser
tree merge over the keys bit for bit.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.kernels import utils
from repro.kernels.mergepath import merge_two
from repro.kernels.multiway import multiway_merge
from tests.kernels.oracles import (key_sorted, losertree_merge,
                                   losertree_merge_keys)

DTYPES = (np.float64, np.float32, np.int32, np.uint64)
SPECIALS = (-0.0, 0.0, -0.0, 0.0, np.inf, -np.inf, 5e-324, -5e-324,
            1e-45, -1e-45, 1.0, -1.0)
SHAPES = ("disjoint", "equal", "special", "dense")


def run_values(shape, i):
    """Unsorted values (at most 12) of run ``i`` in a case of ``shape``."""
    if shape == "disjoint":
        return st.lists(st.integers(100 * i, 100 * i + 50), max_size=12)
    if shape == "equal":
        return st.integers(0, 12).map(lambda n: [7] * n)
    if shape == "special":
        return st.lists(st.sampled_from(SPECIALS), max_size=12)
    return st.lists(st.integers(0, 9), max_size=12)


@st.composite
def merge_cases(draw):
    """(runs, block): 1-10 runs, each sorted in key order."""
    dtype = draw(st.sampled_from(DTYPES))
    shape = draw(st.sampled_from(SHAPES))
    if shape == "special" and np.dtype(dtype).kind != "f":
        shape = "dense"
    runs = [key_sorted(np.array(draw(run_values(shape, i)), np.float64))
            .astype(dtype) for i in range(draw(st.integers(1, 10)))]
    if draw(st.booleans()):
        runs.reverse()
    return runs, draw(st.integers(1, 4))


def expected(runs):
    """The loser tree over the keys: float runs through float64 keys
    (exact for float32, ±0 and subnormals), integer runs directly."""
    dtype = runs[0].dtype
    if dtype.kind == "f":
        return losertree_merge_keys(
            [r.astype(np.float64) for r in runs]).astype(dtype)
    return losertree_merge(runs)


def bits(a):
    return a.view(f"u{a.dtype.itemsize}")


@given(merge_cases())
@settings(max_examples=150, deadline=None)
def test_block_merge_matches_losertree_bits(case):
    runs, block = case
    want = bits(expected(runs))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(utils, "_BLOCK", block)
        got = multiway_merge(runs)
        assert got.dtype == runs[0].dtype
        assert np.array_equal(bits(got), want)
        out = np.empty(len(want), runs[0].dtype)
        assert multiway_merge(runs, out=out) is out
        assert np.array_equal(bits(out), want)
        if len(runs) == 2:
            assert np.array_equal(bits(merge_two(*runs)), want)


def test_zero_block_straddling_every_splitter(monkeypatch):
    """Every sampled splitter is a zero and the zero block spans many
    blocks' worth of keys: still one block, every -0.0 first."""
    monkeypatch.setattr(utils, "_BLOCK", 2)
    runs = [key_sorted(np.array([-1.0, -0.0, 0.0, -0.0, 0.0, 0.0, 2.0])),
            key_sorted(np.array([0.0, 0.0, -0.0, 0.0]))]
    want = losertree_merge_keys(runs)
    assert np.array_equal(bits(multiway_merge(runs)), bits(want))
    assert np.array_equal(bits(merge_two(*runs)), bits(want))
