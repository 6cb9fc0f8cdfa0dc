"""Property tests for the pair-wise merge (seeded-random loops).

Adversarial inputs: heavy duplicates, all-equal keys, empty sides,
single elements and +/-inf keys, each checked against the oracle
``np.sort`` of the stable concatenation.
"""

import numpy as np

from repro.kernels.mergepath import merge_two

RNG_SEED = 0xC0FFEE
N_CASES = 150


def random_sorted_pair(rng):
    """Adversarial generator: sizes skewed to tiny, values drawn from a
    small alphabet (duplicate-heavy) with occasional +/-inf."""
    sizes = [0, 0, 1, 1, 2, 3, 5, 8, 17, 64, 257]
    n = int(rng.choice(sizes))
    m = int(rng.choice(sizes))
    alphabet = rng.choice([3, 8, 1000])
    a = rng.integers(0, alphabet, size=n).astype(np.float64)
    b = rng.integers(0, alphabet, size=m).astype(np.float64)
    # Sprinkle infinities in ~a third of the cases.
    if rng.random() < 0.35:
        for arr in (a, b):
            if len(arr):
                mask = rng.random(len(arr)) < 0.2
                arr[mask] = rng.choice([-np.inf, np.inf])
    a.sort()
    b.sort()
    return a, b


def test_merge_two_matches_numpy_random():
    rng = np.random.default_rng(RNG_SEED + 1)
    for _ in range(N_CASES):
        a, b = random_sorted_pair(rng)
        got = merge_two(a, b)
        want = np.sort(np.concatenate([a, b]), kind="stable")
        np.testing.assert_array_equal(got, want)


def test_merge_two_stability_with_tagged_ties():
    # Tag values in the fraction so equal keys are distinguishable:
    # a-elements carry .25, b-elements .75; floor() compares them equal
    # under the integer key, but merge order must put all a's first.
    a = np.array([1.25, 1.25, 2.25])
    b = np.array([1.75, 2.75, 2.75])
    keyed_a = np.floor(a)
    keyed_b = np.floor(b)
    merged = merge_two(keyed_a, keyed_b)
    assert merged.tolist() == [1.0, 1.0, 1.0, 2.0, 2.0, 2.0]
    # Reconstruct with tags via the same positional computation.
    n, m = len(a), len(b)
    pos_a = np.arange(n) + np.searchsorted(keyed_b, keyed_a, side="left")
    pos_b = np.arange(m) + np.searchsorted(keyed_a, keyed_b, side="right")
    out = np.empty(n + m)
    out[pos_a] = a
    out[pos_b] = b
    # Within each group of equal integer keys, a-tags precede b-tags.
    assert out.tolist() == [1.25, 1.25, 1.75, 2.25, 2.75, 2.75]


def test_merge_two_empty_and_single():
    e = np.empty(0)
    one = np.array([3.0])
    np.testing.assert_array_equal(merge_two(e, e), e)
    np.testing.assert_array_equal(merge_two(e, one), one)
    np.testing.assert_array_equal(merge_two(one, e), one)
    np.testing.assert_array_equal(merge_two(one, np.array([1.0])),
                                  np.array([1.0, 3.0]))


def test_merge_two_infinities():
    a = np.array([-np.inf, 0.0, np.inf])
    b = np.array([-np.inf, np.inf, np.inf])
    got = merge_two(a, b)
    np.testing.assert_array_equal(
        got, np.array([-np.inf, -np.inf, 0.0, np.inf, np.inf, np.inf]))
