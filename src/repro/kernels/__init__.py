"""Functional sorting and merging algorithms (the real computation).

These are the algorithms the paper's system calls into libraries for,
implemented from scratch on numpy primitives:

* :mod:`repro.kernels.radix` -- device sort (Thrust/CUB stand-in), LSD radix;
* :mod:`repro.kernels.bitonic` -- data-oblivious bitonic network;
* :mod:`repro.kernels.mergepath` -- Merge Path pair-wise parallel merge;
* :mod:`repro.kernels.multiway` -- loser-tree and partitioned k-way merge
  (GNU ``multiway_merge`` stand-in);
* :mod:`repro.kernels.samplesort` -- parallel sample sort (GNU parallel
  mode sort stand-in);
* :mod:`repro.kernels.quicksort` -- introsort (``std::sort`` stand-in).
"""

from repro.kernels.bitonic import bitonic_sort, bitonic_sort_inplace
from repro.kernels.mergepath import (corank, merge_two, parallel_merge,
                                     partition_merge)
from repro.kernels.multiway import (losertree_merge, multiway_merge,
                                    multiway_rank_split, partition_multiway)
from repro.kernels.quicksort import introsort
from repro.kernels.radix import (lsd_radix_sort_u64, sort_floats,
                                 sort_floats_inplace)
from repro.kernels.samplesort import sample_sort
from repro.kernels.utils import (first_unsorted_index,
                                 float64_to_ordered_uint64, has_nan,
                                 is_sorted, ordered_uint64_to_float64,
                                 same_multiset)

__all__ = [
    "sort_floats", "sort_floats_inplace", "lsd_radix_sort_u64",
    "bitonic_sort", "bitonic_sort_inplace",
    "merge_two", "parallel_merge", "partition_merge", "corank",
    "multiway_merge", "losertree_merge", "partition_multiway",
    "multiway_rank_split",
    "sample_sort", "introsort",
    "float64_to_ordered_uint64", "ordered_uint64_to_float64",
    "is_sorted", "same_multiset", "has_nan", "first_unsorted_index",
]
