"""The device sort kernel.

The paper sorts each batch with Thrust's radix sort (Sec. III-B), whose
time comes from the calibrated cost model; the functional kernel only
produces the batch's bytes.  A radix sort orders floats by their
order-preserving ``uint64`` keys (NaN rejected, ``-0.0`` before
``+0.0``), and a multiset of keys has one sorted order.
:func:`sort_floats_inplace` reaches it without the keys, with one
in-place :func:`~repro.kernels.utils.sort_in_key_order`, so the bits
equal the LSD radix sort's at every digit width; the tests check them
against that radix sort, kept in ``tests/kernels/oracles.py``.
Thrust's out-of-place ping-pong buffer, which halves the usable batch
size, is charged by the device-memory accounting, not by the kernel.
"""

from __future__ import annotations

import numpy as np

from repro.kernels.utils import check_no_nan, sort_in_key_order
from repro.obs.profile import profiled

__all__ = ["sort_floats", "sort_floats_inplace"]


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
