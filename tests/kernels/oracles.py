"""Pure-Python reference algorithms the kernel tests compare against.

Neither runs in the program: the merges and the device sort are numpy
kernels.  These are the paper's textbook algorithms written out step by
step, so a test can check a kernel's bits against an independent
construction rather than against another numpy call.
"""

from __future__ import annotations

import typing as _t

import numpy as np

from repro.errors import ValidationError
from repro.kernels.utils import (float64_to_ordered_uint64,
                                 ordered_uint64_to_float64)


def losertree_merge(runs: _t.Sequence[np.ndarray]) -> np.ndarray:
    """Tournament-tree k-way merge (stable; ties resolved by run index).

    The loser tree keeps the current minimum's competitors ("losers") in
    internal nodes so each output element costs exactly ``ceil(log2 k)``
    comparisons -- the work bound the paper's merge-cost argument uses.
    """
    for r in runs:
        if r.ndim != 1:
            raise ValidationError("runs must be 1-D arrays")
    dtype = np.result_type(*runs) if runs else np.float64
    runs = [r for r in runs if len(r)]
    k = len(runs)
    if k == 0:
        return np.empty(0, dtype=dtype)
    if k == 1:
        return runs[0].astype(dtype)
    total = sum(len(r) for r in runs)
    out = np.empty(total, dtype=dtype)

    # Pad the contestant count to a power of two with sentinel runs
    # (exhausted runs and pad runs both present the +infinity sentinel).
    size = 1
    while size < k:
        size *= 2
    pos = [0] * k                     # cursor per run

    def key(run_idx: int):
        """Current head of a run, or None as the +infinity sentinel."""
        if run_idx >= k or pos[run_idx] >= len(runs[run_idx]):
            return None
        return runs[run_idx][pos[run_idx]]

    def less(i: int, j: int) -> bool:
        """Stable comparison of run heads (sentinels lose; ties go to the
        lower run index)."""
        a, b = key(i), key(j)
        if b is None:
            return a is not None
        if a is None:
            return False
        return bool(a < b) or (bool(a == b) and i < j)

    # tree[1..size-1] hold the loser of each internal match.
    tree = [-1] * size

    def build(node: int) -> int:
        """Play the initial tournament; store losers, return the winner."""
        if node >= size:
            return node - size        # leaf: contestant index
        left = build(2 * node)
        right = build(2 * node + 1)
        if less(left, right):
            tree[node] = right
            return left
        tree[node] = left
        return right

    winner = build(1)
    for idx in range(total):
        out[idx] = key(winner)
        pos[winner] += 1
        # Replay only the winner's path to the root: ceil(log2 k) matches.
        cur = winner
        node = (size + winner) // 2
        while node >= 1:
            if less(tree[node], cur):
                tree[node], cur = cur, tree[node]
            node //= 2
        winner = cur
    return out


def key_sorted(a: np.ndarray) -> np.ndarray:
    """``a`` sorted by its ordered ``uint64`` keys (``-0.0`` before
    ``+0.0``): the order every kernel's output follows."""
    return ordered_uint64_to_float64(np.sort(float64_to_ordered_uint64(a)))


def losertree_merge_keys(runs: _t.Sequence[np.ndarray]) -> np.ndarray:
    """The loser tree run over the key-sorted runs' keys, mapped back:
    the merges' expected bits.  Equal keys are equal bits, so the tie
    order by run cannot show."""
    return ordered_uint64_to_float64(
        losertree_merge([float64_to_ordered_uint64(r) for r in runs]))


def counting_sort_pass_reference(keys, shift: int, bits: int):
    """Pure-Python stable counting sort on one radix digit.

    Buckets only the digits that occur and emits them in digit order:
    O(n log n) at worst, whatever ``bits``, and no numpy sorting.
    """
    mask = (1 << bits) - 1
    buckets: dict[int, list] = {}
    for k in keys:
        buckets.setdefault((int(k) >> shift) & mask, []).append(k)
    out = []
    for digit in sorted(buckets):
        out.extend(buckets[digit])
    return np.array(out, dtype=np.uint64) if len(out) else \
        np.empty(0, dtype=np.uint64)
