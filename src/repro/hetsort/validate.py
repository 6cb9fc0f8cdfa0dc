"""Output validation for functional-mode runs.

One sort checks a good output: it equals ``np.sort`` of the input by
value (exact, since equal non-NaN floats other than ±0 have equal bits)
and its zero block holds the input's ``-0.0`` count, then ``+0.0``: the
key order.  The sort runs in the caller's scratch array when it passes
one (the sorter and the service pass ``W``, dead once the final merge
has filled ``B``), else into a new array.  The kernels' helpers are not
called, so they cannot hide a bug.  ``np.array_equal`` (without
``equal_nan``) is False whenever either array holds a NaN, so a match
also proves both NaN-free.

NaN handling is explicit: NaN compares False against everything, so a
NaN-laden output could slip through a naive elementwise ``<=`` check
(single-element arrays) or make the "first failing index" diagnostic lie
(``argmax`` over an all-False ``>`` mask reports index 0).  On a
mismatch, the diagnosis therefore reports NaN, with positions, before
any order violation.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ValidationError
from repro.kernels.utils import _STRIP, first_unsorted_index, has_nan

__all__ = ["check_sorted_permutation"]


#: The bits of ``-0.0``: one ``uint64`` comparison finds every one.
_NEG_ZERO_BITS = np.float64(-0.0).view(np.uint64)


def check_sorted_permutation(original: np.ndarray, output: np.ndarray,
                             scratch: np.ndarray | None = None) -> None:
    """Raise :class:`ValidationError` unless ``output`` is a permutation
    of the float64 array ``original`` sorted in key order (NaN-free;
    ``-0.0`` before ``+0.0``).

    ``scratch``, an array of ``original``'s shape and dtype whose
    contents may be overwritten, receives the sorted copy of the input
    that the check compares against; without it the copy is a new array.
    """
    if output is None:
        raise ValidationError("no output produced (timing-only run?)")
    if output.dtype != original.dtype or not _equal(
            _sorted_copy(original, scratch), output):
        if has_nan(original):
            idx = int(np.isnan(original).argmax())
            raise ValidationError(
                f"input contains NaN (first at index {idx}, "
                f"{int(np.isnan(original).sum())} total); keys must be "
                "totally ordered")
        if has_nan(output):
            idx = int(np.isnan(output).argmax())
            raise ValidationError(
                f"output contains NaN (first at index {idx}, "
                f"{int(np.isnan(output).sum())} total) although the "
                "input had none")
        bad = first_unsorted_index(output)
        if bad is not None:
            raise ValidationError(
                f"output not sorted at index {bad}: "
                f"{output[bad]!r} followed by {output[bad + 1]!r}")
        raise ValidationError(
            "output is not a permutation of the input")
    keys = original.view(np.uint64)
    neg = sum(int(np.count_nonzero(keys[i:i + _STRIP] == _NEG_ZERO_BITS))
              for i in range(0, len(keys), _STRIP))
    lo = int(np.searchsorted(output, 0, "left"))
    signs = np.signbit(output[lo:np.searchsorted(output, 0, "right")])
    if not (signs[:neg].all() and not signs[neg:].any()):
        raise ValidationError(
            f"zeros out of key order: the zero block at index {lo} must "
            f"hold {neg} -0.0 then {len(signs) - neg} +0.0")


def _equal(a: np.ndarray, b: np.ndarray) -> bool:
    """``np.array_equal(a, b)`` for 1-D arrays, compared strip by strip."""
    return a.shape == b.shape and all(
        np.array_equal(a[i:i + _STRIP], b[i:i + _STRIP])
        for i in range(0, len(a), _STRIP))


def _sorted_copy(original: np.ndarray,
                 scratch: np.ndarray | None) -> np.ndarray:
    """``np.sort(original)``, made in ``scratch`` when one is given."""
    if scratch is None:
        return np.sort(original)
    if scratch.shape != original.shape or scratch.dtype != original.dtype:
        raise ValueError(
            f"scratch is {scratch.dtype}{list(scratch.shape)}, the input "
            f"{original.dtype}{list(original.shape)}")
    np.copyto(scratch, original)
    scratch.sort()
    return scratch
