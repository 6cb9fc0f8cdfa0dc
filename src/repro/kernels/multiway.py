"""k-way multiway merging (the GNU ``multiway_merge`` stand-in).

The paper merges the sorted batches with the GNU library's parallel
multiway merge: ``O(n log k)`` work, one pass over the data, more
cache-efficient than cascaded pair-wise merging (Sec. III-A).  GNU
splits the runs into independent segments by multi-sequence selection
(Casanova et al.) and merges one segment per thread; the thread count
is charged by the cost model.

:func:`multiway_merge` runs
:func:`~repro.kernels.utils.merge_in_key_order`, which makes that split
by value: every run is sampled for splitters, ``searchsorted`` cuts each
run into independent blocks of about 8 K elements, and each block is
copied into its slice of the output (new, or the caller's ``out``: the
final merge writes straight into ``B``) and sorted there, inside the L2
cache.  One core gains from it because each small sort stays in cache
and does ``log`` of the block size, not of the whole output, in work per
element; a block that one run fills alone, as on presorted input, is
only copied.  The output is in the runs' ``uint64`` key order, like the
device sort's, so ties carry no run order; the tests compare it bit for
bit with a tournament ("loser tree") merge over the keys.  Every run is
first checked to be sorted in O(n): a block sort would otherwise
silently repair the output of a broken GPU sort.
"""

from __future__ import annotations

import typing as _t

import numpy as np

from repro.errors import ValidationError
from repro.kernels.utils import check_sorted_run, merge_in_key_order
from repro.obs.profile import profiled

__all__ = ["multiway_merge"]


@profiled("multiway.multiway_merge",
          size_of=lambda runs, *_, **__: sum(len(r) for r in runs))
def multiway_merge(runs: _t.Sequence[np.ndarray],
                   out: np.ndarray | None = None) -> np.ndarray:
    """k-way merge in key order into ``out`` (default: a new array).

    Raises :class:`ValidationError` if any run is not sorted.
    """
    if any(r.ndim != 1 for r in runs):
        raise ValidationError("runs must be 1-D arrays")
    if not runs:
        return np.empty(0)
    for i, r in enumerate(runs):
        check_sorted_run(r, f"merge run {i}")
    return merge_in_key_order(runs, out)
