"""Tests for the device sort kernel (the Thrust stand-in) and the LSD
radix sort reference it stands in for (``tests.kernels.oracles``)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import tests.kernels.oracles as oracles
from repro.errors import ValidationError
from repro.kernels.radix import sort_floats, sort_floats_inplace
from repro.kernels.utils import is_sorted, same_multiset
from tests.kernels.oracles import (counting_sort_pass,
                                   counting_sort_pass_reference,
                                   float64_to_ordered_uint64,
                                   lsd_radix_sort_u64,
                                   ordered_uint64_to_float64)

finite_f64 = st.floats(allow_nan=False, allow_infinity=True, width=64)


def special_mix(rng, n=3000):
    """Random floats laced with signed zeros, +-inf, subnormals and runs
    of exact duplicates (ties)."""
    specials = np.array([0.0, -0.0, np.inf, -np.inf, 5e-324, -5e-324,
                         2.2e-308, -2.2e-308, 1.5, 1.5, -1.5])
    a = np.concatenate([rng.normal(scale=1e3, size=n),
                        rng.choice(specials, size=n // 3),
                        np.repeat(rng.random(n // 30), 10)])
    rng.shuffle(a)
    return a


def bitwise_reference(a):
    """The radix sort's exact expected bits: numpy's sort of the
    order-preserving keys (``-0.0`` before ``+0.0``)."""
    return a.view(np.uint64)[np.argsort(float64_to_ordered_uint64(a),
                                        kind="stable")]


def radix_bits_of(a, radix_bits=16):
    """The LSD radix sort's output bits for float64 ``a``."""
    keys = lsd_radix_sort_u64(float64_to_ordered_uint64(a), radix_bits)
    return ordered_uint64_to_float64(keys).view(np.uint64)


def test_sorts_random_uniform(rng):
    a = rng.random(10_000)
    s = sort_floats(a)
    assert is_sorted(s)
    assert same_multiset(a, s)


def test_sorts_negatives_and_positives(rng):
    a = rng.normal(scale=1e6, size=5000)
    s = sort_floats(a)
    assert is_sorted(s)
    assert same_multiset(a, s)


def test_special_values_ordering():
    a = np.array([np.inf, -np.inf, 0.0, -0.0, 1e-300, -1e-300,
                  1e300, -1e300])
    s = sort_floats(a)
    assert is_sorted(s)
    assert s[0] == -np.inf and s[-1] == np.inf
    # -0.0 sorts immediately before +0.0 (bit-level order).
    zero_idx = np.where(s == 0.0)[0]
    assert np.signbit(s[zero_idx[0]]) and not np.signbit(s[zero_idx[1]])


def test_nan_rejected():
    with pytest.raises(ValidationError):
        sort_floats(np.array([1.0, np.nan]))


def test_empty_and_singleton():
    assert len(sort_floats(np.empty(0))) == 0
    assert sort_floats(np.array([3.14]))[0] == 3.14


def test_all_equal(rng):
    a = np.full(1000, 7.5)
    assert np.array_equal(sort_floats(a), a)


def test_already_sorted_and_reversed(rng):
    a = np.sort(rng.random(2000))
    assert np.array_equal(sort_floats(a), a)
    assert np.array_equal(sort_floats(a[::-1].copy()), a)


def test_inplace_variant(rng):
    a = rng.random(1000)
    expect = np.sort(a)
    sort_floats_inplace(a)
    assert np.array_equal(a, expect)


@pytest.mark.parametrize("radix_bits", [1, 4, 8, 11, 16, 24])
def test_radix_width_invariance(rng, radix_bits):
    a = rng.random(3000)
    assert np.array_equal(radix_bits_of(a, radix_bits),
                          np.sort(a).view(np.uint64))
    mixed = special_mix(rng)
    assert np.array_equal(radix_bits_of(mixed, radix_bits),
                          bitwise_reference(mixed))


def kernel_inputs(rng):
    """Named inputs for the kernel-vs-radix bit comparison."""
    mixed = special_mix(rng)
    wide = special_mix(rng, n=2000)
    return {
        "special_mix": mixed,
        "all_equal": np.full(500, -0.0),
        "presorted": np.sort(mixed),
        "reversed": np.sort(mixed)[::-1].copy(),
        "non_contiguous": wide[::3],
        "len0": np.empty(0),
        "len1": np.array([-0.0]),
        "len2": np.array([0.0, -0.0]),
    }


def test_kernel_bits_match_radix_reference(rng):
    """The kernel sorts the ordered keys, not by digits; its bits must
    equal the LSD radix sort's on every shape of input."""
    for name, a in kernel_inputs(rng).items():
        keep = a.copy()
        want = radix_bits_of(a)
        got = sort_floats(a)
        assert np.array_equal(got.view(np.uint64), want), name
        assert np.array_equal(a.view(np.uint64), keep.view(np.uint64)), name
        buf = a.copy()
        sort_floats_inplace(buf)
        assert np.array_equal(buf.view(np.uint64), want), name
    outer = special_mix(rng, n=900)
    want = radix_bits_of(outer[1::2])
    evens = outer[::2].copy()
    sort_floats_inplace(outer[1::2])         # a strided view, in place
    assert np.array_equal(outer[1::2].view(np.uint64), want)
    assert np.array_equal(outer[::2].view(np.uint64), evens.view(np.uint64))


def test_inplace_nan_rejected_and_buffer_untouched(rng):
    a = special_mix(rng, n=600)
    a[17] = np.nan
    keep = a.view(np.uint64).copy()
    with pytest.raises(ValidationError):
        sort_floats_inplace(a)
    assert np.array_equal(a.view(np.uint64), keep)


@pytest.mark.parametrize("radix_bits", [-4, 0, 25, True, 16.0, None])
def test_bad_radix_bits_rejected(radix_bits):
    """Unchecked, -4 leaves ``range(0, 64, -4)`` empty and returns the
    input unsorted, and 0 raises an untyped error from ``range``."""
    with pytest.raises(ValidationError):
        lsd_radix_sort_u64(np.array([3, 1, 2], dtype=np.uint64),
                           radix_bits=radix_bits)


def test_default_width_sorts_in_at_most_four_passes(rng, monkeypatch):
    calls = []
    real = oracles.counting_sort_pass

    def counting(*args):
        calls.append(args[2:])
        return real(*args)

    monkeypatch.setattr(oracles, "counting_sort_pass", counting)
    keys = rng.integers(0, 2 ** 64, size=5000, dtype=np.uint64)
    assert np.array_equal(lsd_radix_sort_u64(keys), np.sort(keys))
    assert len(calls) <= 4


def test_u64_keys_sorted(rng):
    keys = rng.integers(0, 2 ** 63, size=4000).astype(np.uint64)
    out = lsd_radix_sort_u64(keys)
    assert np.array_equal(out, np.sort(keys))


def test_u64_rejects_wrong_dtype():
    with pytest.raises(ValidationError):
        lsd_radix_sort_u64(np.arange(10, dtype=np.int64))


def test_stability_via_payload(rng):
    """Equal keys must keep their original relative order."""
    keys = rng.integers(0, 8, size=2000).astype(np.uint64)
    payload = np.arange(2000)
    out_keys, out_payload = lsd_radix_sort_u64(keys, payload=payload)
    assert np.array_equal(out_keys, np.sort(keys))
    for k in np.unique(keys):
        grp = out_payload[out_keys == k]
        assert np.array_equal(grp, np.sort(grp)), "stability violated"


@pytest.mark.parametrize("radix_bits", [11, 16])
def test_stability_via_payload_wide_digits(rng, radix_bits):
    """Equal keys keep their input order at 11 bits, whose last pass is
    narrower (64 = 5 * 11 + 9), and at the 16-bit default."""
    base = rng.integers(0, 2 ** 64, size=40, dtype=np.uint64)
    keys = rng.choice(base, size=3000)
    payload = np.arange(len(keys))
    out_keys, out_payload = lsd_radix_sort_u64(keys, radix_bits=radix_bits,
                                               payload=payload)
    order = np.argsort(keys, kind="stable")
    assert np.array_equal(out_keys, keys[order])
    assert np.array_equal(out_payload, order)


def test_inputs_not_modified(rng):
    keys = rng.integers(0, 2 ** 64, size=500, dtype=np.uint64)
    payload = np.arange(500)
    keep_k, keep_p = keys.copy(), payload.copy()
    out_keys, out_payload = lsd_radix_sort_u64(keys, payload=payload)
    assert np.array_equal(keys, keep_k) and np.array_equal(payload, keep_p)
    same = np.full(10, 7, dtype=np.uint64)   # every pass is skipped
    out = lsd_radix_sort_u64(same, payload=np.arange(10))
    assert out[0] is not same and np.array_equal(out[0], same)


def test_payload_length_mismatch_rejected(rng):
    with pytest.raises(ValidationError):
        lsd_radix_sort_u64(np.zeros(4, dtype=np.uint64),
                           payload=np.zeros(3))


def test_counting_pass_matches_pure_python_oracle(rng):
    keys = rng.integers(0, 2 ** 64, size=500, dtype=np.uint64)
    for shift in (0, 8, 56):
        got, _ = counting_sort_pass(keys, None, shift, 8)
        want = counting_sort_pass_reference(keys, shift, 8)
        assert np.array_equal(got, want)


@pytest.mark.parametrize("bits", [1, 7, 8, 9, 16, 17, 24])
def test_counting_pass_every_digit_width(rng, bits):
    keys = rng.integers(0, 2 ** 64, size=400, dtype=np.uint64)
    for shift in (0, 64 - bits):
        got, _ = counting_sort_pass(keys, None, shift, bits)
        assert np.array_equal(got,
                              counting_sort_pass_reference(keys, shift, bits))


def test_counting_pass_width_validation(rng):
    keys = np.zeros(4, dtype=np.uint64)
    with pytest.raises(ValidationError):
        counting_sort_pass(keys, None, 0, 0)
    with pytest.raises(ValidationError):
        counting_sort_pass(keys, None, 0, 32)


@given(hnp.arrays(np.float64, st.integers(0, 300), elements=finite_f64))
@settings(max_examples=80, deadline=None)
def test_property_matches_numpy_sort(a):
    got = sort_floats(a)
    assert is_sorted(got)
    assert same_multiset(a, got)


@given(hnp.arrays(np.uint64, st.integers(0, 300),
                  elements=st.integers(0, 2 ** 64 - 1)))
@settings(max_examples=80, deadline=None)
def test_property_u64_matches_numpy(keys):
    assert np.array_equal(lsd_radix_sort_u64(keys), np.sort(keys))
