"""Parallel sample sort -- the functional stand-in for the GNU parallel
mode sort (the paper's CPU reference implementation, Sec. IV-C).

The GNU ``__gnu_parallel::sort`` the paper benchmarks is a multiway
mergesort/balanced quicksort hybrid; sample sort captures its structure:

1. draw an oversampled random sample, sort it, pick ``p - 1`` splitters;
2. partition the input into ``p`` buckets by splitter (vectorised with
   ``searchsorted`` -- exactly the binary search each element undergoes);
3. sort each bucket independently (one bucket per simulated thread) in
   key order (all zeros share one bucket, since ``-0.0 == +0.0``);
4. concatenate -- buckets are disjoint ranges, so no merge is needed.

The bucket layout (which elements each "thread" would own) is exposed for
the tests; buckets are sorted serially here since simulated parallelism is
the cost model's job.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ValidationError
from repro.kernels.utils import check_no_nan, sort_in_key_order
from repro.obs.profile import profiled

__all__ = ["sample_splitters", "partition_by_splitters", "sample_sort"]

#: Oversampling factor: splitters are drawn from a sample of
#: ``OVERSAMPLE * p`` elements, the classic choice for balanced buckets.
OVERSAMPLE = 32


def sample_splitters(a: np.ndarray, parts: int) -> np.ndarray:
    """``parts - 1`` splitters from a sorted oversample of ``a``, drawn
    with a fixed seed so the buckets are the same on every run."""
    if parts < 1:
        raise ValidationError(f"parts must be >= 1, got {parts}")
    if parts == 1 or len(a) == 0:
        return a[:0]
    rng = np.random.default_rng(0x5EED)
    m = min(len(a), OVERSAMPLE * parts)
    sample = np.sort(rng.choice(a, size=m, replace=True))
    idx = (np.arange(1, parts) * m) // parts
    return sample[idx]


def partition_by_splitters(a: np.ndarray, splitters: np.ndarray
                           ) -> list[np.ndarray]:
    """Split ``a`` into ``len(splitters) + 1`` buckets.

    Bucket ``i`` holds elements in ``(splitters[i-1], splitters[i]]``
    boundaries chosen so every element lands in exactly one bucket.
    """
    if len(splitters) == 0:
        return [a.copy()]
    which = np.searchsorted(splitters, a, side="left")
    return [a[which == b] for b in range(len(splitters) + 1)]


@profiled("samplesort.sample_sort", size_of=lambda a, *_, **__: len(a))
def sample_sort(a: np.ndarray, threads: int = 1) -> np.ndarray:
    """Sorted copy of ``a`` via sample sort with ``threads`` buckets."""
    a = np.asarray(a)
    if a.ndim != 1:
        raise ValidationError("sample_sort expects a 1-D array")
    check_no_nan(a)
    splitters = (a[:0] if len(a) < 2 or threads <= 1
                 else sample_splitters(a, threads))
    buckets = partition_by_splitters(a, splitters)
    for b in buckets:
        sort_in_key_order(b)
    return np.concatenate(buckets)
