"""Byte pin of the functional sort's output for every approach.

The differential battery compares outputs with ``assert_array_equal``,
which treats ``-0.0 == +0.0``, and no golden pair digests output bytes.
So a kernel that swapped the two zeros, or any other pair of equal but
distinct bit patterns, would pass both.  This pins the SHA-256 of the
output's raw ``uint64`` bits for a seeded input laced with signed zeros,
infinities, subnormals and runs of exact duplicates.  A change that only
makes a kernel faster must leave every digest unchanged.  Run as a
script to print the digests.

BLINE sorts the whole input as one device batch, so its bits are those
of the order-preserving keys' sort (``-0.0`` before every ``+0.0``).
The merging approaches interleave the two zeros by the merges' own
tie-breaking, which is why their shared digest differs.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.hetsort import APPROACH_RUNNERS, HeterogeneousSorter
from repro.hw.platforms import PLATFORM1

N = 60_000


def special_input(seed: int = 2023, n: int = N) -> np.ndarray:
    """``n`` seeded floats: normals, specials and runs of duplicates."""
    rng = np.random.default_rng(seed)
    specials = np.array([0.0, -0.0, np.inf, -np.inf, 5e-324, -5e-324,
                         2.2e-308, -2.2e-308, 1.5, 1.5, -1.5])
    dup = n // 10
    a = np.concatenate([rng.normal(scale=1e3, size=n - n // 3 - dup),
                        rng.choice(specials, size=n // 3),
                        np.repeat(rng.random(dup // 10), 10)])
    rng.shuffle(a)
    return a


def output_digest(approach: str) -> str:
    """SHA-256 of the sorted output's bits for one approach."""
    kw = {} if approach == "bline" else {"batch_size": 15_000}
    sorter = HeterogeneousSorter(PLATFORM1, pinned_elements=3_000, **kw)
    res = sorter.sort(special_input(), approach=approach)
    return hashlib.sha256(res.output.view(np.uint64).tobytes()).hexdigest()


PINS = {
    "bline":
        "a868a1ae0f3fb88e0d11f059cd7912096f926db26cee7a61532029b8d91631f1",
    "blinemulti":
        "e0b55bb73422e0d638ea834e678c0989393558043e26986db31755ab354d5d90",
    "gpumerge":
        "e0b55bb73422e0d638ea834e678c0989393558043e26986db31755ab354d5d90",
    "pipedata":
        "e0b55bb73422e0d638ea834e678c0989393558043e26986db31755ab354d5d90",
    "pipemerge":
        "e0b55bb73422e0d638ea834e678c0989393558043e26986db31755ab354d5d90",
}


@pytest.mark.parametrize("approach", sorted(APPROACH_RUNNERS))
def test_output_bytes_are_pinned(approach):
    assert output_digest(approach) == PINS[approach]


def test_input_has_every_special():
    a = special_input()
    assert len(a) == N
    bits = set(a.view(np.uint64).tolist())
    for v in (0.0, -0.0, np.inf, -np.inf, 5e-324, -5e-324):
        assert np.array([v]).view(np.uint64)[0] in bits


if __name__ == "__main__":
    for approach in sorted(APPROACH_RUNNERS):
        print(f"{approach}  {output_digest(approach)}")
