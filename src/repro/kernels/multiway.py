"""k-way multiway merging (the GNU ``multiway_merge`` stand-in).

The paper merges the sorted batches with the GNU library's parallel
multiway merge: ``O(n log k)`` work, one pass over the data, more
cache-efficient than cascaded pair-wise merging (Sec. III-A).  Its
thread split (multi-sequence selection, Casanova et al.) lives only in
the cost model; the functional merge is one kernel.

:func:`multiway_merge` copies the runs into one buffer (new, or the
caller's ``out``: the final merge writes straight into ``B``) and sorts
it in place with :func:`~repro.kernels.utils.sort_in_key_order`, which
at 8 runs of 2.5e5 beats timsort's galloping ``O(n log k)`` merge of
the presorted runs by about 2x.  The output is in the runs' ``uint64``
key order, like the device sort's, so ties carry no run order; the tests
compare it bit for bit with a tournament ("loser tree") merge over the
keys.  Every run is first checked to be sorted in O(n): a sort would
otherwise silently repair the output of a broken GPU sort.
"""

from __future__ import annotations

import typing as _t

import numpy as np

from repro.errors import ValidationError
from repro.kernels.utils import check_sorted_run, sort_in_key_order
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
    out = np.concatenate(runs, out=out)
    sort_in_key_order(out)
    return out
