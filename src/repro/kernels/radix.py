"""The device sort kernel and the LSD radix sort it stands in for.

The paper sorts each batch with Thrust's radix sort (Sec. III-B), whose
time comes from the calibrated cost model; the functional kernel only
produces the batch's bytes.  A radix sort orders floats by the
order-preserving ``uint64`` keys of :mod:`repro.kernels.utils` (NaN
rejected, ``-0.0`` before ``+0.0``), and a multiset of keys has one
sorted order.  :func:`sort_floats_inplace` reaches it without the maps,
with one in-place :func:`~repro.kernels.utils.sort_in_key_order`, so
the bits equal the LSD radix sort's at every digit width.  Thrust's
out-of-place ping-pong buffer, which halves the usable batch size, is
charged by the device-memory accounting, not by the kernel.

:func:`lsd_radix_sort_u64` is the paper's algorithm, kept as the tests'
reference, entered and left through the key maps.  Each pass sorts
``radix_bits`` of the key, LSD first, by a stable ``argsort`` of digits
in the narrowest unsigned dtype that holds them (``uint8``,
``uint16``, or ``uint32`` for 17-24 bits).  numpy's stable sort is a
counting sort only up to 16 bits, so the default 16-bit digit sorts a
64-bit key in 4 counting passes -- Stehle & Jacobsen's pass-count
argument.  A pass whose digit is the same for every key is skipped (MSB
pruning).  The tests check each pass against a pure-Python counting
sort.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ValidationError
from repro.kernels.utils import check_no_nan, sort_in_key_order
from repro.obs.profile import profiled

__all__ = [
    "lsd_radix_sort_u64", "sort_floats", "sort_floats_inplace",
    "counting_sort_pass",
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


def lsd_radix_sort_u64(keys: np.ndarray, radix_bits: int = 16,
                       payload: np.ndarray | None = None):
    """Sort uint64 ``keys`` (optionally permuting ``payload`` alongside).

    Passes skip automatically when every key shares the same digit (the
    usual MSB-pruning optimisation); the sort remains stable.  The inputs
    are never modified.

    Returns ``sorted_keys`` or ``(sorted_keys, permuted_payload)``.
    ``radix_bits`` must be an ``int`` in 1..24.
    """
    if (isinstance(radix_bits, bool) or not isinstance(radix_bits, int)
            or not 1 <= radix_bits <= 24):
        raise ValidationError(
            f"radix_bits must be an int in 1..24, got {radix_bits!r}")
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


def sort_floats(a: np.ndarray) -> np.ndarray:
    """Sort a float64 array in key order (a new array)."""
    out = np.array(a, order="C")
    sort_floats_inplace(out)
    return out


@profiled("radix.sort_floats", size_of=lambda a, *_, **__: len(a))
def sort_floats_inplace(a: np.ndarray) -> None:
    """Sort a float64 array in place, in key order: the runtime's default
    device sort kernel.  A NaN input raises before ``a`` is written."""
    check_no_nan(a)
    sort_in_key_order(a)
