"""k-way multiway merging (the GNU ``multiway_merge`` stand-in).

The paper merges the sorted batches with the GNU library's parallel
multiway merge: ``O(n log k)`` work, one pass over the data, more
cache-efficient than cascaded pair-wise merging (Sec. III-A).  Three
implementations are provided:

* :func:`losertree_merge` -- the textbook tournament ("loser tree")
  multiway merge; genuinely single-pass and ``O(n log k)`` comparisons.
  Pure Python, used as the reference oracle.
* :func:`multiway_merge` -- the engine used by the functional layer.
  It copies the runs into one output buffer and sorts it in place with
  numpy's stable sort.  For float64 that is timsort, which finds the k
  presorted runs in one scan and merges them by galloping, so the work
  stays ``O(n log k)`` (the single-pass bound of Casanova et al.'s
  multiway mergesort).  Stability by input position resolves ties by
  run index, exactly like the oracle.  Every run is first checked to be
  sorted in O(n): a stable sort would otherwise silently repair the
  output of a broken GPU sort instead of exposing it.
* :func:`partition_multiway` -- multi-sequence selection: cuts k sorted
  runs at a global rank so each simulated thread gets an independent,
  balanced share, generalising Merge Path to k runs.  Verified against
  the oracle in the tests.
"""

from __future__ import annotations

import typing as _t

import numpy as np

from repro.errors import ValidationError
from repro.kernels.utils import check_sorted_run
from repro.obs.profile import profiled

__all__ = ["losertree_merge", "multiway_merge", "partition_multiway",
           "multiway_rank_split"]


def _check_runs(runs: _t.Sequence[np.ndarray]) -> None:
    for r in runs:
        if r.ndim != 1:
            raise ValidationError("runs must be 1-D arrays")


@profiled("multiway.losertree_merge",
          size_of=lambda runs: sum(len(r) for r in runs))
def losertree_merge(runs: _t.Sequence[np.ndarray]) -> np.ndarray:
    """Tournament-tree k-way merge (stable; ties resolved by run index).

    The loser tree keeps the current minimum's competitors ("losers") in
    internal nodes so each output element costs exactly ``ceil(log2 k)``
    comparisons -- the work bound the paper's merge-cost argument uses.
    """
    _check_runs(runs)
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


@profiled("multiway.multiway_merge",
          size_of=lambda runs: sum(len(r) for r in runs))
def multiway_merge(runs: _t.Sequence[np.ndarray]) -> np.ndarray:
    """Stable k-way merge (ties resolved by run index) into a new array.

    Equivalent output to :func:`losertree_merge`, at numpy speed.  Raises
    :class:`ValidationError` if any run is not sorted.
    """
    _check_runs(runs)
    if not runs:
        return np.empty(0)
    for i, r in enumerate(runs):
        check_sorted_run(r, f"merge run {i}")
    out = np.concatenate(runs)
    out.sort(kind="stable")
    return out


def multiway_rank_split(runs: _t.Sequence[np.ndarray], rank: int
                        ) -> list[int]:
    """Multi-sequence selection: per-run cuts ``c`` with ``sum(c) == rank``
    such that ``concat(run[:c])`` are exactly the ``rank`` smallest
    elements (ties split arbitrarily but consistently by run order).

    Binary search over the value domain using ``searchsorted`` per run.
    """
    total = sum(len(r) for r in runs)
    if not 0 <= rank <= total:
        raise ValidationError(f"rank {rank} outside [0, {total}]")
    if rank == 0:
        return [0] * len(runs)
    if rank == total:
        return [len(r) for r in runs]

    # Binary search over the discrete set of run values, in the runs'
    # own dtype (a Python float would round integers above 2**53), for
    # the smallest value v with count_le(v) >= rank.
    def count_le(v) -> list[int]:
        return [int(np.searchsorted(r, v, side="right")) for r in runs]

    def count_lt(v) -> list[int]:
        return [int(np.searchsorted(r, v, side="left")) for r in runs]

    pool = np.unique(np.concatenate(runs))
    lo, hi = 0, len(pool) - 1
    while lo < hi:
        mid = (lo + hi) // 2
        if sum(count_le(pool[mid])) >= rank:
            hi = mid
        else:
            lo = mid + 1
    v = pool[lo]
    below = count_lt(v)
    need = rank - sum(below)   # how many copies of v itself to include
    cuts = below[:]
    for i, r in enumerate(runs):
        if need <= 0:
            break
        avail = int(np.searchsorted(r, v, side="right")) - below[i]
        take = min(avail, need)
        cuts[i] += take
        need -= take
    if need != 0:  # pragma: no cover - defensive
        raise ValidationError("rank split failed to converge")
    return cuts


def partition_multiway(runs: _t.Sequence[np.ndarray], parts: int
                       ) -> list[list[slice]]:
    """Cut k sorted runs into ``parts`` independent groups of slices whose
    merges concatenate to the full multiway merge.

    This is what each thread of the parallel multiway merge processes.
    """
    if parts < 1:
        raise ValidationError(f"parts must be >= 1, got {parts}")
    total = sum(len(r) for r in runs)
    prev = [0] * len(runs)
    out: list[list[slice]] = []
    for p in range(1, parts + 1):
        rank = (p * total) // parts
        cuts = multiway_rank_split(runs, rank)
        out.append([slice(a, b) for a, b in zip(prev, cuts)])
        prev = cuts
    return out
