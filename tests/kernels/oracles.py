"""Reference algorithms the kernel tests compare against.

None runs in the program: the merges and the device sort are numpy
kernels that sort and merge the floats by value.  These are the paper's
textbook algorithms written out step by step, so a test can check a
kernel's bits against an independent construction rather than against
another numpy call:

* the order-preserving float64 <-> uint64 key maps;
* the LSD radix sort over those keys (Thrust's algorithm, Sec. III-B);
* the loser-tree k-way merge;
* a pure-Python counting-sort pass, the radix pass's own reference.
"""

from __future__ import annotations

import typing as _t

import numpy as np

from repro.errors import ValidationError
from repro.kernels.utils import check_no_nan

_SIGN = np.uint64(0x8000000000000000)


def float64_to_ordered_uint64(a: np.ndarray) -> np.ndarray:
    """Order-preserving bijection from float64 to uint64.

    Flip all bits of negatives, only the sign bit of positives: the
    standard trick that lets a radix sort handle floating point.  NaN is
    rejected; ``-0.0`` maps below ``+0.0``, so the key order is IEEE 754
    ``totalOrder``, the one order every kernel's output follows.

    >>> import numpy as np
    >>> x = np.array([3.5, -1.0, 0.0, -0.0, np.inf, -np.inf])
    >>> k = float64_to_ordered_uint64(x)
    >>> (np.argsort(k, kind="stable") == np.argsort(x, kind="stable")).all()
    np.True_
    """
    if a.dtype != np.float64:
        raise ValidationError(f"expected float64, got {a.dtype}")
    check_no_nan(a)
    # The arithmetic shift spreads the sign bit: all ones for negatives.
    mask = (a.view(np.int64) >> 63).view(np.uint64)
    mask |= _SIGN
    return np.bitwise_xor(mask, a.view(np.uint64), out=mask)


def ordered_uint64_to_float64(k: np.ndarray) -> np.ndarray:
    """Inverse of :func:`float64_to_ordered_uint64`."""
    if k.dtype != np.uint64:
        raise ValidationError(f"expected uint64, got {k.dtype}")
    mask = (k.view(np.int64) >> 63).view(np.uint64)
    np.invert(mask, out=mask)
    mask |= _SIGN
    return np.bitwise_xor(mask, k, out=mask).view(np.float64)


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

    The paper's device sort algorithm.  Each pass sorts ``radix_bits``
    of the key, LSD first, by a stable ``argsort`` of digits in the
    narrowest unsigned dtype that holds them (``uint8``, ``uint16``, or
    ``uint32`` for 17-24 bits).  numpy's stable sort is a counting sort
    only up to 16 bits, so the default 16-bit digit sorts a 64-bit key
    in 4 counting passes -- Stehle & Jacobsen's pass-count argument.
    A pass whose digit is the same for every key is skipped (MSB
    pruning); the sort remains stable.  The inputs are never modified.

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


def losertree_merge(runs: _t.Sequence[np.ndarray]) -> np.ndarray:
    """Tournament-tree k-way merge (stable; ties resolved by run index).

    The loser tree keeps the current minimum's competitors ("losers") in
    internal nodes so each output element costs exactly ``ceil(log2 k)``
    comparisons -- the work bound the paper's merge-cost argument uses.
    """
    for r in runs:
        if r.ndim != 1:
            raise ValidationError("runs must be 1-D arrays")
    dtype = np.result_type(*runs) if runs else np.float64
    runs = [r for r in runs if len(r)]
    k = len(runs)
    if k == 0:
        return np.empty(0, dtype=dtype)
    if k == 1:
        return runs[0].astype(dtype)
    total = sum(len(r) for r in runs)
    out = np.empty(total, dtype=dtype)

    # Pad the contestant count to a power of two with sentinel runs
    # (exhausted runs and pad runs both present the +infinity sentinel).
    size = 1
    while size < k:
        size *= 2
    pos = [0] * k                     # cursor per run

    def key(run_idx: int):
        """Current head of a run, or None as the +infinity sentinel."""
        if run_idx >= k or pos[run_idx] >= len(runs[run_idx]):
            return None
        return runs[run_idx][pos[run_idx]]

    def less(i: int, j: int) -> bool:
        """Stable comparison of run heads (sentinels lose; ties go to the
        lower run index)."""
        a, b = key(i), key(j)
        if b is None:
            return a is not None
        if a is None:
            return False
        return bool(a < b) or (bool(a == b) and i < j)

    # tree[1..size-1] hold the loser of each internal match.
    tree = [-1] * size

    def build(node: int) -> int:
        """Play the initial tournament; store losers, return the winner."""
        if node >= size:
            return node - size        # leaf: contestant index
        left = build(2 * node)
        right = build(2 * node + 1)
        if less(left, right):
            tree[node] = right
            return left
        tree[node] = left
        return right

    winner = build(1)
    for idx in range(total):
        out[idx] = key(winner)
        pos[winner] += 1
        # Replay only the winner's path to the root: ceil(log2 k) matches.
        cur = winner
        node = (size + winner) // 2
        while node >= 1:
            if less(tree[node], cur):
                tree[node], cur = cur, tree[node]
            node //= 2
        winner = cur
    return out


def key_sorted(a: np.ndarray) -> np.ndarray:
    """``a`` sorted by its ordered ``uint64`` keys (``-0.0`` before
    ``+0.0``): the order every kernel's output follows."""
    return ordered_uint64_to_float64(np.sort(float64_to_ordered_uint64(a)))


def losertree_merge_keys(runs: _t.Sequence[np.ndarray]) -> np.ndarray:
    """The loser tree run over the key-sorted runs' keys, mapped back:
    the merges' expected bits.  Equal keys are equal bits, so the tie
    order by run cannot show."""
    return ordered_uint64_to_float64(
        losertree_merge([float64_to_ordered_uint64(r) for r in runs]))


def counting_sort_pass_reference(keys, shift: int, bits: int):
    """Pure-Python stable counting sort on one radix digit.

    Buckets only the digits that occur and emits them in digit order:
    O(n log n) at worst, whatever ``bits``, and no numpy sorting.
    """
    mask = (1 << bits) - 1
    buckets: dict[int, list] = {}
    for k in keys:
        buckets.setdefault((int(k) >> shift) & mask, []).append(k)
    out = []
    for digit in sorted(buckets):
        out.extend(buckets[digit])
    return np.array(out, dtype=np.uint64) if len(out) else \
        np.empty(0, dtype=np.uint64)
