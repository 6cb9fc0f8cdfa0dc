"""A sorter's host workspace.

A :class:`HeterogeneousSorter` keeps the host arrays of its last
finished functional run (W, the pair-merge outputs, the staging and
device arrays) and the next functional run draws from them instead of
allocating.  Reuse must move no output bit and no simulated second, and
the output B stays the caller's own: fresh every run, never a
workspace array.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import PLATFORM1, HeterogeneousSorter
from repro.errors import ValidationError
from repro.hetsort.context import HostWorkspace
from repro.hetsort.validate import check_sorted_permutation
from repro.sim.faults import FaultPlan
from tests.kernels.oracles import key_sorted

N = 60_000
BS = 15_000
PINNED = 3_000
#: A ``FaultPlan.random`` seed that degrades PIPEMERGE batches of this
#: size to the CPU fallback.
FALLBACK_SEED = 0


def uniform(n: int, seed: int) -> np.ndarray:
    return np.random.default_rng(seed).uniform(-1.0, 1.0, size=n)


def laced(n: int, seed: int) -> np.ndarray:
    """``n`` seeded normals, a third of them replaced by signed zeros and
    infinities."""
    rng = np.random.default_rng(seed)
    a = rng.normal(size=n)
    a[rng.integers(0, n, size=n // 3)] = rng.choice(
        np.array([0.0, -0.0, np.inf, -np.inf]), size=n // 3)
    return a


#: (input, sort keywords), in the order one sorter runs them: a miss
#: (first run), a hit (same shape), a miss (another n), every approach,
#: both BLINE staging modes and a CPU fallback.
CASES = [
    (uniform(N, 1), dict(approach="pipemerge", batch_size=BS)),
    (uniform(N, 2), dict(approach="pipemerge", batch_size=BS)),
    (laced(40_000, 3), dict(approach="pipemerge", batch_size=10_000)),
    (laced(N, 4), dict(approach="bline")),
    (laced(N, 4), dict(approach="bline", staging="pageable")),
    (uniform(N, 5), dict(approach="blinemulti", batch_size=BS)),
    (laced(N, 6), dict(approach="blinemulti", batch_size=BS,
                       staging="pageable")),
    (laced(N, 7), dict(approach="pipedata", batch_size=BS)),
    (laced(N, 8), dict(approach="gpumerge", batch_size=BS)),
    (laced(N, 9), dict(approach="pipemerge", batch_size=BS,
                       fallback=True)),
    (uniform(N, 10), dict(approach="pipemerge", batch_size=BS)),
]


def run(sorter: HeterogeneousSorter, data: np.ndarray, kw: dict):
    kw = dict(kw)
    if kw.pop("fallback", False):
        kw["faults"] = FaultPlan.random(FALLBACK_SEED)
    return sorter.sort(data, **kw)


def bits(a: np.ndarray) -> np.ndarray:
    return a.view(np.uint64)


def test_reuse_moves_no_bit_and_no_simulated_second():
    sorter = HeterogeneousSorter(PLATFORM1, pinned_elements=PINNED)
    kept: list[tuple[np.ndarray, np.ndarray]] = []
    nan_input = uniform(N, 11)
    nan_input[123] = np.nan
    for i, (data, kw) in enumerate(CASES):
        if i == 6:
            # A run that raises drops what it drew; later runs are
            # unaffected.
            with pytest.raises(ValidationError, match="NaN"):
                sorter.sort(nan_input, approach="pipemerge", batch_size=BS)
        res = run(sorter, data, kw)
        fresh = run(HeterogeneousSorter(PLATFORM1, pinned_elements=PINNED),
                    data, kw)
        np.testing.assert_array_equal(bits(res.output), bits(fresh.output))
        assert res.elapsed == fresh.elapsed
        if kw.get("fallback"):
            assert any(d["reason"] == "cpu.fallback"
                       for d in res.meta["degrades"])
        for earlier, frozen in kept:
            np.testing.assert_array_equal(bits(earlier), frozen)
            assert not np.shares_memory(earlier, res.output)
        kept.append((res.output, bits(res.output).copy()))
        for arr in sorter.workspace.arrays():
            for out, _ in kept:
                assert not np.shares_memory(out, arr)


def test_same_shape_reuses_every_array_and_another_n_replaces_them():
    sorter = HeterogeneousSorter(PLATFORM1, batch_size=BS,
                                 pinned_elements=PINNED)
    assert sorter.workspace.arrays() == []
    sorter.sort(uniform(N, 1), approach="pipemerge")
    first = sorter.workspace.arrays()
    # W, four staging arrays, two device arrays and one pair run.
    assert sorted(map(len, first)) == [PINNED] * 4 + [N // 2] * 3 + [N]
    sorter.sort(uniform(N, 2), approach="pipemerge")
    second = sorter.workspace.arrays()
    # Each array comes back in the role it had (same draw position).
    assert [id(a) for a in second] == [id(a) for a in first]
    sorter.sort(uniform(40_000, 3), approach="pipemerge", batch_size=10_000)
    assert max(map(len, sorter.workspace.arrays())) == 40_000


def test_timing_runs_keep_the_workspace():
    sorter = HeterogeneousSorter(PLATFORM1, batch_size=BS,
                                 pinned_elements=PINNED)
    sorter.sort(uniform(N, 1), approach="pipemerge")
    held = {id(a) for a in sorter.workspace.arrays()}
    sorter.sort(n=N, approach="pipemerge")
    assert {id(a) for a in sorter.workspace.arrays()} == held


def test_workspace_hands_an_array_out_once():
    a, b = np.empty(4), np.empty(4)
    ws = HostWorkspace([a, b])
    got = [ws.take(4), ws.take(4), ws.take(4)]
    assert got[0] is a and got[1] is b
    assert got[2] is not a and got[2] is not b
    assert ws.take(3).shape == (3,) and ws.arrays() == []


# ---------------------------------------------------------------------------
# The validator's scratch array
# ---------------------------------------------------------------------------

def message(original, output, **kw) -> str | None:
    try:
        check_sorted_permutation(original, output, **kw)
    except ValidationError as exc:
        return str(exc)
    return None


def _zeros() -> np.ndarray:
    a = np.random.default_rng(5).normal(size=1000)
    a[::10], a[5::20] = 0.0, -0.0
    return a


def _swap_zeros(a: np.ndarray) -> np.ndarray:
    out = key_sorted(a)
    i = np.flatnonzero(np.signbit(out) & (out == 0))[-1]
    out[i:i + 2] = out[i:i + 2][::-1].copy()
    return out


def _with_nan(a: np.ndarray, i: int) -> np.ndarray:
    a = a.copy()
    a[i] = np.nan
    return a


@pytest.mark.parametrize("original, output", [
    (_zeros(), key_sorted(_zeros())),
    (_zeros(), _swap_zeros(_zeros())),
    (_zeros(), _with_nan(key_sorted(_zeros()), 500)),
    (_with_nan(_zeros(), 7), np.sort(_with_nan(_zeros(), 7))),
    (np.array([1.0, 2.0, 3.0]), np.array([1.0, 3.0, 2.0])),
    (np.array([1.0, 2.0]), np.array([1.0, 3.0])),
    (np.array([1.0, 2.0]), None),
], ids=["ok", "zeros", "nan-out", "nan-in", "unsorted", "not-perm",
        "none"])
def test_scratch_changes_no_message(original, output):
    want = message(original, output)
    scratch = np.full(original.shape, 9.0)
    assert message(original, output, scratch=scratch) == want
    if want is None:
        np.testing.assert_array_equal(scratch, np.sort(original))


def test_zero_count_reads_strided_input():
    base = np.zeros(2000)
    base[::2] = _zeros()
    base[1::2] = 7.0       # +0.0 nowhere between the strided elements
    original = base[::2]
    assert not original.flags.contiguous
    out = key_sorted(np.ascontiguousarray(original))
    check_sorted_permutation(original, out)
    check_sorted_permutation(original, out, scratch=np.empty(1000))
    neg = int(np.count_nonzero(np.signbit(original) & (original == 0)))
    zeros = int(np.count_nonzero(original == 0))
    lo = int(np.searchsorted(out, 0.0))
    want = message(original, _swap_zeros(original))
    assert want == (f"zeros out of key order: the zero block at index {lo} "
                    f"must hold {neg} -0.0 then {zeros - neg} +0.0")
    assert message(original, _swap_zeros(original),
                   scratch=np.empty(1000)) == want


def test_scratch_of_another_shape_is_refused():
    with pytest.raises(ValueError, match="scratch"):
        check_sorted_permutation(np.ones(3), np.ones(3),
                                 scratch=np.empty(4))
