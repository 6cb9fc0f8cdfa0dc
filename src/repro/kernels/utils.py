"""Shared helpers for the functional sorting kernels.

Every kernel's output follows one order: by value, NaN rejected up
front (it has no place in a total order; Thrust's behaviour on NaN keys
is unspecified too), and every ``-0.0`` before every ``+0.0``.  That is
IEEE 754 ``totalOrder`` for non-NaN values, the order a radix sort
gives when it sorts the floats' order-preserving ``uint64`` keys (the
key maps and that radix sort are the tests' reference, in
``tests/kernels/oracles.py``).  The kernels reach it without the keys,
through :func:`sort_in_key_order` and, for sorted runs,
:func:`merge_in_key_order`.  Hazard: numpy's SIMD float sort
(numpy 2.4, AVX-512) may change the signs of zeros when both are
present, so both helpers count the ``-0.0`` before they sort.
"""

from __future__ import annotations

import typing as _t

import numpy as np

from repro.errors import ValidationError

__all__ = [
    "sort_in_key_order", "merge_in_key_order", "check_no_nan", "has_nan",
    "is_sorted", "first_unsorted_index", "check_sorted_run",
    "same_multiset",
]


def has_nan(a: np.ndarray) -> bool:
    """True if ``a`` is a float array containing at least one NaN."""
    return a.dtype.kind == "f" and bool(np.isnan(a).any())


def check_no_nan(a: np.ndarray) -> None:
    """Raise :class:`ValidationError` if ``a`` contains NaN."""
    if has_nan(a):
        raise ValidationError("input contains NaN; keys must be totally "
                              "ordered")


def sort_in_key_order(a: np.ndarray) -> None:
    """Sort a NaN-free array in place by value, every ``-0.0`` before
    every ``+0.0``: count the ``-0.0``, run ``ndarray.sort()``, rewrite
    the zero block as that many ``-0.0`` followed by ``+0.0``."""
    neg_zeros = int(np.count_nonzero(np.signbit(a[a == 0])))
    a.sort()
    lo, hi = np.searchsorted(a, 0, "left"), np.searchsorted(a, 0, "right")
    a[lo:lo + neg_zeros] = -0.0
    a[lo + neg_zeros:hi] = 0


#: Elements per value block of :func:`merge_in_key_order`: 64 KiB of
#: float64, so a block's pieces are copied and sorted inside the L2 cache.
_BLOCK = 8192


def merge_in_key_order(runs: _t.Sequence[np.ndarray],
                       out: np.ndarray | None = None) -> np.ndarray:
    """Merge NaN-free sorted runs into ``out`` (default: a new array of
    the dtype ``np.concatenate`` gives) in key order.

    Multi-sequence selection by value: every ``_BLOCK``-th element of
    every run is a splitter, and ``searchsorted`` cuts each run at the
    sorted, distinct splitters, so equal values (``-0.0`` and ``+0.0``
    too) always fall in one block.  Each block's pieces are copied into
    their slice of ``out``, which is sorted in place unless a single run
    filled it.  The zero block is then rewritten as every run's
    ``-0.0`` followed by ``+0.0``, as :func:`sort_in_key_order` does.
    """
    total = sum(len(r) for r in runs)
    if out is None:
        out = np.empty(total, np.result_type(*runs))
    elif out.shape != (total,):
        raise ValueError(f"out has shape {out.shape}, the runs hold "
                         f"{total} elements")
    splitters = np.unique(np.concatenate([r[_BLOCK::_BLOCK] for r in runs]))
    cuts = [[0, *np.searchsorted(r, splitters, "left").tolist(), len(r)]
            for r in runs]
    bounds = np.sum(cuts, axis=0).tolist()
    for j in range(len(bounds) - 1):
        pieces = [r[c[j]:c[j + 1]] for r, c in zip(runs, cuts)
                  if c[j] < c[j + 1]]
        if not pieces:
            continue
        block = out[bounds[j]:bounds[j + 1]]
        np.concatenate(pieces, out=block)
        if len(pieces) > 1:
            block.sort()
    lo = hi = neg_zeros = 0
    for r in runs:
        z_lo = np.searchsorted(r, 0, "left")
        z_hi = np.searchsorted(r, 0, "right")
        neg_zeros += int(np.count_nonzero(np.signbit(r[z_lo:z_hi])))
        lo, hi = lo + int(z_lo), hi + int(z_hi)
    out[lo:lo + neg_zeros] = -0.0
    out[lo + neg_zeros:hi] = 0
    return out


#: Elements per strip of the whole-array checks (:func:`is_sorted`, the
#: validator), so they allocate 64 KiB masks, not masks an array long.
_STRIP = 1 << 16


def is_sorted(a: np.ndarray) -> bool:
    """True if ``a`` is non-decreasing under a *total* order.

    NaN-explicit: NaN compares False against everything, so an array
    containing NaN is never considered sorted -- including single-element
    and ``[x, ..., x, nan]`` tails that elementwise ``<=`` checks would
    wave through or reject for the wrong reason.  From two elements on,
    every element takes part in a ``<=`` that a NaN fails, so no
    separate NaN scan is needed.
    """
    if len(a) < 2:
        return not has_nan(a)
    # Strips overlapping by one element: every adjacent pair is compared.
    last = len(a) - 1
    return all(np.all(a[i:min(i + _STRIP, last)] <= a[i + 1:i + 1 + _STRIP])
               for i in range(0, last, _STRIP))


def first_unsorted_index(a: np.ndarray) -> int | None:
    """Index of the first order violation, or ``None`` if sorted.

    A violation at ``i`` means ``not (a[i] <= a[i+1])`` -- the negated
    form deliberately catches NaN (for which both ``<=`` and ``>`` are
    False, so the naive ``argmax(a[:-1] > a[1:])`` misreports index 0).
    A NaN at position 0 of a single-element array reports index 0.
    """
    if len(a) == 0:
        return None
    if has_nan(a):
        nan_idx = int(np.isnan(a).argmax())
        if len(a) < 2:
            return nan_idx
    if len(a) < 2:
        return None
    bad = ~(a[:-1] <= a[1:])
    idx = bad.nonzero()[0]
    return int(idx[0]) if len(idx) else None


def check_sorted_run(a: np.ndarray, what: str = "run") -> None:
    """Raise :class:`ValidationError` unless ``a`` is sorted (O(n)).

    The merges call this on every input run: they merge by sorting
    value blocks of the runs, which would otherwise silently repair the
    output of a broken upstream sort instead of exposing it.
    """
    if not is_sorted(a):
        raise ValidationError(
            f"{what} is not sorted at index {first_unsorted_index(a)}")


def same_multiset(a: np.ndarray, b: np.ndarray) -> bool:
    """True if ``b`` is a permutation of ``a`` (bit-level comparison, so
    ``-0.0`` and ``+0.0`` are distinguished)."""
    if a.shape != b.shape or a.dtype != b.dtype:
        return False
    if a.dtype == np.float64:
        a = a.view(np.uint64)
        b = b.view(np.uint64)
    return bool(np.array_equal(np.sort(a), np.sort(b)))
