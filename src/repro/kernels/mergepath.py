"""Merge Path: partitioned parallel pair-wise merging.

The paper's pipelined pair-wise merges (PIPEMERGE, Sec. III-D3) and the
GNU-library parallel merge it benchmarks (Fig. 6) both split one merge
across threads.  The standard technique is *Merge Path* [Green, Odeh &
Birk 2014, ref 18 of the paper]: the merge of sorted ``A`` and ``B`` is a
monotone path through an |A| x |B| grid; cutting the path at evenly spaced
cross-diagonals yields independent, equally sized sub-merges.

``corank(d, a, b)`` finds where diagonal ``d`` crosses the path via binary
search; ``partition_merge`` cuts both inputs into ``p`` balanced segment
pairs; ``merge_two`` merges a segment pair stably.

``merge_two`` is the functional engine.  It copies both runs into one
output buffer and sorts it in place with numpy's stable sort.  For
float64 that sort is timsort, which finds the two presorted runs in one
scan and merges them by galloping: one linear pass, like Merge Path's
per-thread sequential merge.  Stability by input position makes ties
favour ``a``, exactly as the merge path's cut does.  Because a stable
sort would also silently repair unsorted input, ``merge_two`` first
checks in O(n) that both runs are sorted and raises
:class:`~repro.errors.ValidationError` otherwise.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ValidationError
from repro.kernels.utils import check_sorted_run
from repro.obs.profile import profiled

__all__ = ["corank", "partition_merge", "merge_two", "parallel_merge"]


def corank(d: int, a: np.ndarray, b: np.ndarray) -> tuple[int, int]:
    """Coordinates ``(i, j)`` with ``i + j = d`` where cross-diagonal ``d``
    intersects the merge path of sorted ``a`` and ``b``.

    The returned split is *stable*: ties are taken from ``a`` first.
    Invariants (checked by the property tests):

    * ``a[:i]`` and ``b[:j]`` together are the ``d`` smallest elements;
    * ``i == 0`` or ``a[i-1] <= b[j]`` (when ``j < len(b)``);
    * ``j == 0`` or ``b[j-1] <  a[i]`` (when ``i < len(a)``).
    """
    if not 0 <= d <= len(a) + len(b):
        raise ValidationError(
            f"diagonal {d} outside [0, {len(a) + len(b)}]")
    lo = max(0, d - len(b))
    hi = min(d, len(a))
    while lo < hi:
        i = (lo + hi) // 2
        j = d - i
        if j > 0 and i < len(a) and b[j - 1] >= a[i]:
            # Prefix holds b[j-1] but excludes the not-larger a[i]; a
            # stable merge (ties from a first) would emit a[i] earlier,
            # so the cut takes too few elements from a.
            lo = i + 1
        elif i > 0 and j < len(b) and a[i - 1] > b[j]:
            # Prefix holds a[i-1] but excludes the smaller b[j]: too
            # many elements from a.
            hi = i - 1
        else:
            return i, j
    return lo, d - lo


def partition_merge(a: np.ndarray, b: np.ndarray, parts: int
                    ) -> list[tuple[slice, slice]]:
    """Cut the merge of ``a`` and ``b`` into ``parts`` balanced,
    independent segment pairs ``(slice_of_a, slice_of_b)``.

    Concatenating ``merge_two`` of each pair in order equals the full
    merge.
    """
    if parts < 1:
        raise ValidationError(f"parts must be >= 1, got {parts}")
    total = len(a) + len(b)
    cuts = [(k * total) // parts for k in range(parts + 1)]
    coords = [corank(d, a, b) for d in cuts]
    out = []
    for (i0, j0), (i1, j1) in zip(coords[:-1], coords[1:]):
        out.append((slice(i0, i1), slice(j0, j1)))
    return out


@profiled("mergepath.merge_two",
          size_of=lambda a, b: len(a) + len(b))
def merge_two(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Stable merge of two sorted arrays (ties favour ``a``).

    Raises :class:`ValidationError` if either input is not sorted.
    """
    check_sorted_run(a, "merge input a")
    check_sorted_run(b, "merge input b")
    out = np.concatenate((a, b))
    out.sort(kind="stable")
    return out


def parallel_merge(a: np.ndarray, b: np.ndarray, threads: int = 1
                   ) -> np.ndarray:
    """Merge via Merge Path partitioning into ``threads`` segments.

    Segments are processed serially here (the host has one real core; the
    *simulated* speedup lives in the cost model), but the partitioning is
    exactly what each OpenMP thread would receive, and the tests verify
    the segments are independent and balanced.
    """
    if threads <= 1:
        return merge_two(a, b)
    pieces = [merge_two(a[sa], b[sb])
              for sa, sb in partition_merge(a, b, threads)]
    return np.concatenate(pieces) if pieces else \
        np.empty(0, dtype=np.result_type(a, b))
