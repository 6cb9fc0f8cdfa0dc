"""Micro-benchmarks of the *functional* kernels (real computation, real
wall-clock via pytest-benchmark).

These are the real-computation counterpart of the simulated studies: the
device sort kernel (Thrust stand-in) vs. numpy's sort, also on an input
laden with signed zeros, the LSD radix reference at 8-bit vs. 16-bit
digits (from ``tests/kernels/oracles.py``; the device sort's bits must
equal its own), the pair and multiway merges (also into a preallocated output,
as the final merge writes into ``B``; on the final merge's layout of
runs, on disjoint runs of presorted input and on duplicate-heavy runs,
each checked bit for bit against the key-sorted input), and sample
sort.

Compare locally with ``python -m pytest benchmarks/test_kernels_micro.py``
from the repository root (so ``tests`` imports); CI runs the file with
``--benchmark-disable`` as a smoke test of the sortedness asserts.
"""

import numpy as np
import pytest

from repro.kernels import merge_two, multiway_merge, sample_sort, sort_floats
from tests.kernels.oracles import (float64_to_ordered_uint64, key_sorted,
                                   lsd_radix_sort_u64,
                                   ordered_uint64_to_float64)

N = 200_000


@pytest.fixture(scope="module")
def data():
    return np.random.default_rng(42).random(N)


@pytest.fixture(scope="module")
def runs():
    rng = np.random.default_rng(7)
    return [np.sort(rng.random(N // 10)) for _ in range(10)]


def test_bench_radix_sort(benchmark, data):
    out = benchmark(sort_floats, data)
    assert np.all(out[:-1] <= out[1:])


def test_bench_radix_sort_signed_zeros(benchmark, data):
    """A fifth of the keys are -0.0 or +0.0: the device sort must put
    every -0.0 first (key order) whatever numpy's sort does to them."""
    laden = data - 0.5
    laden[::10], laden[5::10] = -0.0, 0.0
    out = benchmark(sort_floats, laden)
    assert np.all(out[:-1] <= out[1:])
    signs = np.signbit(out[out == 0])
    assert np.array_equal(signs, np.arange(len(signs)) < N // 10)
    # Bit for bit the LSD radix sort of the keys, the paper's algorithm.
    radix = lsd_radix_sort_u64(float64_to_ordered_uint64(laden))
    assert np.array_equal(out.view(np.uint64),
                          ordered_uint64_to_float64(radix).view(np.uint64))


@pytest.mark.parametrize("radix_bits", [8, 16])
def test_bench_radix_digit_width(benchmark, data, radix_bits):
    keys = float64_to_ordered_uint64(data)
    out = benchmark(lsd_radix_sort_u64, keys, radix_bits)
    assert np.all(out[:-1] <= out[1:])


def test_bench_numpy_sort_baseline(benchmark, data):
    out = benchmark(np.sort, data)
    assert np.all(out[:-1] <= out[1:])


def test_bench_sample_sort(benchmark, data):
    out = benchmark(sample_sort, data, 16)
    assert np.all(out[:-1] <= out[1:])


def test_bench_merge_two(benchmark, data):
    a = np.sort(data[:N // 2])
    b = np.sort(data[N // 2:])
    out = benchmark(merge_two, a, b)
    assert len(out) == N


def test_bench_multiway_merge_10_runs(benchmark, runs):
    out = benchmark(multiway_merge, runs)
    assert np.all(out[:-1] <= out[1:])


def test_bench_multiway_merge_into_out(benchmark, runs):
    buf = np.empty(N)
    out = benchmark(multiway_merge, runs, buf)
    assert out is buf and np.all(out[:-1] <= out[1:])


def test_bench_multiway_merge_8_runs(benchmark, data):
    runs8 = [np.sort(part) for part in np.array_split(data, 8)]
    out = benchmark(multiway_merge, runs8)
    assert np.all(out[:-1] <= out[1:])


def key_sorted_bits(runs):
    return key_sorted(np.concatenate(runs)).view(np.uint64)


def test_bench_multiway_merge_final_layout(benchmark):
    """The final merge of a 2e6-key PIPEMERGE sort: three pair-merged
    runs of 5e5 and two batches of 2.5e5, into ``B``."""
    rng = np.random.default_rng(11)
    runs = [np.sort(rng.random(n)) for n in (500_000,) * 3 + (250_000,) * 2]
    buf = np.empty(2_000_000)
    out = benchmark(multiway_merge, runs, buf)
    assert np.array_equal(out.view(np.uint64), key_sorted_bits(runs))


def test_bench_multiway_merge_disjoint_runs(benchmark, data):
    """Presorted input: each batch's run covers its own value range."""
    runs8 = np.array_split(np.sort(data), 8)
    out = benchmark(multiway_merge, runs8)
    assert np.array_equal(out.view(np.uint64), key_sorted_bits(runs8))


def test_bench_merge_two_duplicate_heavy(benchmark):
    """Four distinct values, both zeros among them."""
    rng = np.random.default_rng(5)
    pool = np.array([-1.0, -0.0, 0.0, 2.0])
    a, b = (key_sorted(rng.choice(pool, N // 2)) for _ in range(2))
    out = benchmark(merge_two, a, b)
    assert np.array_equal(out.view(np.uint64), key_sorted_bits([a, b]))
