"""Pair-wise merging of two sorted runs.

The paper's pipelined pair-wise merges (PIPEMERGE, Sec. III-D3) and the
GNU-library parallel merge it benchmarks (Fig. 6) split one merge across
threads with *Merge Path* [Green, Odeh & Birk 2014, ref 18 of the
paper].  The thread count is charged by the cost model
(``platform.merge.seconds(n, threads, k=2)``); the functional merge
makes the same kind of split by value instead of by thread.

``merge_two`` runs :func:`~repro.kernels.utils.merge_in_key_order`, the
merge both CPU merges share: it cuts the two runs at splitters sampled
from both into independent value blocks of about 8 K elements, and
copies and sorts each block inside the L2 cache.  On one core that
beats one sort of the whole concatenation, whose passes over 4 MB
leave the cache.  The output is in the runs' ``uint64`` key order, like
the device sort's, so which run a tie came from cannot show in its
bits.  Because sorting a block would also silently repair unsorted
input, ``merge_two`` first checks in O(n) that both runs are sorted and
raises :class:`~repro.errors.ValidationError` otherwise.
"""

from __future__ import annotations

import numpy as np

from repro.kernels.utils import check_sorted_run, merge_in_key_order
from repro.obs.profile import profiled

__all__ = ["merge_two"]


@profiled("mergepath.merge_two",
          size_of=lambda a, b, *_, **__: len(a) + len(b))
def merge_two(a: np.ndarray, b: np.ndarray,
              out: np.ndarray | None = None) -> np.ndarray:
    """Merge two sorted arrays in key order into ``out`` (default: a new
    array).

    Raises :class:`ValidationError` if either input is not sorted.
    """
    check_sorted_run(a, "merge input a")
    check_sorted_run(b, "merge input b")
    return merge_in_key_order((a, b), out)
