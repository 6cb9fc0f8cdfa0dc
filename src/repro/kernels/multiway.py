"""k-way multiway merging (the GNU ``multiway_merge`` stand-in).

The paper merges the sorted batches with the GNU library's parallel
multiway merge: ``O(n log k)`` work, one pass over the data, more
cache-efficient than cascaded pair-wise merging (Sec. III-A).  Its
thread split (multi-sequence selection, Casanova et al.) lives only in
the cost model; the functional merge is one kernel.

:func:`multiway_merge` copies the runs into one output buffer and sorts
it in place with numpy's stable sort.  For float64 that is timsort,
which finds the k presorted runs in one scan and merges them by
galloping, so the work stays ``O(n log k)`` (the single-pass bound of
Casanova et al.'s multiway mergesort).  Stability by input position
resolves ties by run index, as a tournament ("loser tree") merge does;
the tests compare it bit for bit with one.  Every run is first checked
to be sorted in O(n): a stable sort would otherwise silently repair the
output of a broken GPU sort instead of exposing it.
"""

from __future__ import annotations

import typing as _t

import numpy as np

from repro.errors import ValidationError
from repro.kernels.utils import check_sorted_run
from repro.obs.profile import profiled

__all__ = ["multiway_merge"]


@profiled("multiway.multiway_merge",
          size_of=lambda runs: sum(len(r) for r in runs))
def multiway_merge(runs: _t.Sequence[np.ndarray]) -> np.ndarray:
    """Stable k-way merge (ties resolved by run index) into a new array.

    Raises :class:`ValidationError` if any run is not sorted.
    """
    if any(r.ndim != 1 for r in runs):
        raise ValidationError("runs must be 1-D arrays")
    if not runs:
        return np.empty(0)
    for i, r in enumerate(runs):
        check_sorted_run(r, f"merge run {i}")
    out = np.concatenate(runs)
    out.sort(kind="stable")
    return out
