"""Shared helpers for the functional sorting kernels.

The key transform maps IEEE-754 doubles to unsigned 64-bit integers whose
unsigned order equals the floats' numeric order -- the standard trick that
lets a radix sort (Thrust's algorithm for primitive keys) handle floating
point: flip all bits of negatives, flip only the sign bit of positives.

NaNs are rejected up front (they have no place in a total order; Thrust's
behaviour on NaN keys is unspecified too).  ``-0.0`` and ``+0.0`` compare
equal as floats but map to distinct keys (``-0.0`` before ``+0.0``), which
still yields a correctly sorted float array.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ValidationError

__all__ = [
    "float64_to_ordered_uint64", "ordered_uint64_to_float64",
    "check_no_nan", "has_nan", "is_sorted", "first_unsorted_index",
    "check_sorted_run", "same_multiset",
]

_SIGN = np.uint64(0x8000000000000000)
_FULL = np.uint64(0xFFFFFFFFFFFFFFFF)


def has_nan(a: np.ndarray) -> bool:
    """True if ``a`` is a float array containing at least one NaN."""
    return a.dtype.kind == "f" and bool(np.isnan(a).any())


def check_no_nan(a: np.ndarray) -> None:
    """Raise :class:`ValidationError` if ``a`` contains NaN."""
    if has_nan(a):
        raise ValidationError("input contains NaN; keys must be totally "
                              "ordered")


def float64_to_ordered_uint64(a: np.ndarray) -> np.ndarray:
    """Order-preserving bijection from float64 to uint64.

    >>> import numpy as np
    >>> x = np.array([3.5, -1.0, 0.0, -0.0, np.inf, -np.inf])
    >>> k = float64_to_ordered_uint64(x)
    >>> (np.argsort(k, kind="stable") == np.argsort(x, kind="stable")).all()
    np.True_
    """
    if a.dtype != np.float64:
        raise ValidationError(f"expected float64, got {a.dtype}")
    check_no_nan(a)
    bits = a.view(np.uint64)
    mask = np.where(bits >> np.uint64(63) == 1, _FULL, _SIGN)
    return bits ^ mask


def ordered_uint64_to_float64(k: np.ndarray) -> np.ndarray:
    """Inverse of :func:`float64_to_ordered_uint64`."""
    if k.dtype != np.uint64:
        raise ValidationError(f"expected uint64, got {k.dtype}")
    mask = np.where(k >> np.uint64(63) == 1, _SIGN, _FULL)
    return (k ^ mask).view(np.float64)


def is_sorted(a: np.ndarray) -> bool:
    """True if ``a`` is non-decreasing under a *total* order.

    NaN-explicit: NaN compares False against everything, so an array
    containing NaN is never considered sorted -- including single-element
    and ``[x, ..., x, nan]`` tails that elementwise ``<=`` checks would
    wave through or reject for the wrong reason.
    """
    if has_nan(a):
        return False
    if len(a) < 2:
        return True
    return bool(np.all(a[:-1] <= a[1:]))


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

    The merges call this on every input run: they merge by stably
    sorting the concatenated runs, which would otherwise silently repair
    the output of a broken upstream sort instead of exposing it.
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
