"""Least-significant-digit radix sort for 64-bit keys.

This is the functional stand-in for ``thrust::sort`` / CUB's radix sort
(the on-GPU sorting engine of the paper, Sec. III-B).  Like Thrust it:

* sorts *out of place* (ping-pong between two buffers, doubling the memory
  footprint -- the property that halves the usable batch size);
* processes ``radix_bits`` of the key per pass, LSD first, using a stable
  counting-sort scatter per pass;
* handles floats through the order-preserving bit transform of
  :mod:`repro.kernels.utils`.

Each pass's stable scatter is a stable ``argsort`` of the pass's digits.
The digits are built in the narrowest unsigned dtype that holds them:
``uint8`` up to 8 bits, ``uint16`` up to 16 and ``uint32`` for 17-24.
numpy's stable sort is a radix (counting) sort only for integer dtypes
of 16 bits or less; wider digits fall back to timsort.  The default
16-bit digit therefore keeps every pass a true counting sort and sorts a
64-bit key in 4 passes instead of the 8 that 8-bit digits need -- the
pass-count argument of Stehle & Jacobsen's hybrid radix sort.  A pass
whose digit is the same for every key is the identity and is skipped
(the usual MSB-pruning optimisation).  A tiny pure-Python counting sort
is provided as an independent oracle for the tests.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ValidationError
from repro.kernels.utils import (float64_to_ordered_uint64,
                                 ordered_uint64_to_float64)
from repro.obs.profile import profiled

__all__ = [
    "lsd_radix_sort_u64", "sort_floats", "sort_floats_inplace",
    "counting_sort_pass", "counting_sort_pass_reference",
]


def _digit_dtype(bits: int) -> type:
    """Narrowest unsigned dtype holding a ``bits``-wide digit."""
    if bits <= 8:
        return np.uint8
    if bits <= 16:
        return np.uint16
    return np.uint32


def counting_sort_pass(keys: np.ndarray, payload: np.ndarray | None,
                       shift: int, bits: int
                       ) -> tuple[np.ndarray, np.ndarray | None]:
    """One stable counting-sort pass on digit ``(keys >> shift) & mask``.

    Returns reordered ``(keys, payload)`` as new arrays, or the inputs
    themselves when every key has the same digit (the pass is then the
    identity).
    """
    if not 1 <= bits <= 24:
        raise ValidationError(f"radix pass width must be 1..24, got {bits}")
    mask = np.uint64((1 << bits) - 1)
    digits = ((keys >> np.uint64(shift)) & mask).astype(_digit_dtype(bits))
    if len(digits) and (digits == digits[0]).all():
        return keys, payload
    # Stable argsort on small integers == counting-sort permutation.
    order = np.argsort(digits, kind="stable")
    out_keys = keys[order]
    out_payload = payload[order] if payload is not None else None
    return out_keys, out_payload


def counting_sort_pass_reference(keys, shift: int, bits: int):
    """Pure-Python stable counting sort on one digit (test oracle).

    O(n + 2^bits), no numpy sorting involved.
    """
    mask = (1 << bits) - 1
    buckets: list[list] = [[] for _ in range(1 << bits)]
    for k in keys:
        buckets[(int(k) >> shift) & mask].append(k)
    out = []
    for b in buckets:
        out.extend(b)
    return np.array(out, dtype=np.uint64) if len(out) else \
        np.empty(0, dtype=np.uint64)


def lsd_radix_sort_u64(keys: np.ndarray, radix_bits: int = 16,
                       payload: np.ndarray | None = None):
    """Sort uint64 ``keys`` (optionally permuting ``payload`` alongside).

    Passes skip automatically when every key shares the same digit (the
    usual MSB-pruning optimisation); the sort remains stable.  The inputs
    are never modified.

    Returns ``sorted_keys`` or ``(sorted_keys, permuted_payload)``.
    """
    if keys.dtype != np.uint64:
        raise ValidationError(f"expected uint64 keys, got {keys.dtype}")
    if payload is not None and len(payload) != len(keys):
        raise ValidationError("payload length mismatch")
    out, pay = keys, payload
    for shift in range(0, 64, radix_bits):
        out, pay = counting_sort_pass(out, pay, shift,
                                      min(radix_bits, 64 - shift))
    if out is keys:
        out = keys.copy()
    if payload is None:
        return out
    return out, (payload.copy() if pay is payload else pay)


@profiled("radix.sort_floats", size_of=lambda a, *_, **__: len(a))
def sort_floats(a: np.ndarray, radix_bits: int = 16) -> np.ndarray:
    """Radix-sort a float64 array (returns a new array)."""
    keys = float64_to_ordered_uint64(np.ascontiguousarray(a))
    return ordered_uint64_to_float64(lsd_radix_sort_u64(keys, radix_bits))


def sort_floats_inplace(a: np.ndarray, radix_bits: int = 16) -> None:
    """Radix-sort a float64 array in place (the runtime's default device
    sort kernel -- "in place" from the caller's view; internally it
    ping-pongs like Thrust)."""
    a[:] = sort_floats(a, radix_bits)
