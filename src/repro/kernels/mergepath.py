"""Pair-wise merging of two sorted runs.

The paper's pipelined pair-wise merges (PIPEMERGE, Sec. III-D3) and the
GNU-library parallel merge it benchmarks (Fig. 6) split one merge across
threads with *Merge Path* [Green, Odeh & Birk 2014, ref 18 of the
paper].  Here the thread split lives only in the cost model
(``platform.merge.seconds(n, threads, k=2)``); the functional merge is
one kernel.

``merge_two`` copies both runs into one output buffer and sorts it in
place with numpy's stable sort.  For float64 that sort is timsort, which
finds the two presorted runs in one scan and merges them by galloping:
one linear pass, like Merge Path's per-thread sequential merge.
Stability by input position makes ties favour ``a``, exactly as the
merge path's cut does.  Because a stable sort would also silently repair
unsorted input, ``merge_two`` first checks in O(n) that both runs are
sorted and raises :class:`~repro.errors.ValidationError` otherwise.
"""

from __future__ import annotations

import numpy as np

from repro.kernels.utils import check_sorted_run
from repro.obs.profile import profiled

__all__ = ["merge_two"]


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
