"""Functional sorting and merging algorithms (the real computation).

These are the algorithms the paper's system calls into libraries for,
implemented from scratch on numpy primitives:

* :mod:`repro.kernels.radix` -- device sort (Thrust/CUB stand-in);
* :mod:`repro.kernels.mergepath` -- pair-wise merge of two runs;
* :mod:`repro.kernels.multiway` -- k-way merge (GNU ``multiway_merge``
  stand-in);
* :mod:`repro.kernels.samplesort` -- parallel sample sort (GNU parallel
  mode sort stand-in).

Both merges split their runs into independent value blocks, as
multi-sequence selection does, but sort the blocks one after another;
the thread split is charged by the platform's merge cost model.
"""

from repro.kernels.mergepath import merge_two
from repro.kernels.multiway import multiway_merge
from repro.kernels.radix import sort_floats, sort_floats_inplace
from repro.kernels.samplesort import sample_sort
from repro.kernels.utils import (first_unsorted_index, has_nan, is_sorted,
                                 same_multiset)

__all__ = [
    "sort_floats", "sort_floats_inplace",
    "merge_two", "multiway_merge", "sample_sort",
    "is_sorted", "same_multiset", "has_nan", "first_unsorted_index",
]
