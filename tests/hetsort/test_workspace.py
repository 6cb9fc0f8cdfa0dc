"""A sorter's host workspace.

A :class:`HeterogeneousSorter` keeps the host arrays of its last
finished functional run (W, the staging and device arrays) and the next
functional run draws from them instead of allocating.  Pair merges
write their merged runs into the front of B, which is not written
before the last pair merge, and back over their inputs' W slots, so a
run holds no other host array.  Reuse must move no output bit and no
simulated second, and the output B stays the caller's own: fresh every
run, never a workspace array.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import PLATFORM1, PLATFORM2, HeterogeneousSorter
from repro.errors import ValidationError
from repro.hetsort.context import HostWorkspace, SortedRun
from repro.hetsort.validate import check_sorted_permutation
from repro.hetsort.workers import merge_pair_in_w
from repro.kernels.utils import _STRIP as STRIP
from repro.sim.faults import FaultPlan
from tests.hetsort.test_workers import make_ctx
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
    # W, four staging arrays and two device arrays.
    assert sorted(map(len, first)) == [PINNED] * 4 + [N // 2] * 2 + [N]
    sorter.sort(uniform(N, 2), approach="pipemerge")
    second = sorter.workspace.arrays()
    # Each array comes back in the role it had (same draw position).
    assert [id(a) for a in second] == [id(a) for a in first]
    sorter.sort(uniform(40_000, 3), approach="pipemerge", batch_size=10_000)
    assert max(map(len, sorter.workspace.arrays())) == 40_000


# ---------------------------------------------------------------------------
# What a sorter keeps: W, the staging and device arrays
# ---------------------------------------------------------------------------

BIG_N, BIG_BS, BIG_PINNED = 2_000_000, 250_000, 50_000


@pytest.mark.parametrize("approach", ["pipedata", "pipemerge", "gpumerge"])
def test_a_sorter_keeps_w_and_the_worker_arrays(approach):
    sorter = HeterogeneousSorter(PLATFORM1, batch_size=BIG_BS,
                                 pinned_elements=BIG_PINNED)
    sorter.sort(uniform(BIG_N, 1), approach=approach)
    first = sorter.workspace.arrays()
    # W, then two staging and one device array per stream (two
    # streams); no merge array of any length, W's included.
    assert sorted(map(len, first)) == sorted(
        [BIG_N] + [BIG_PINNED] * 4 + [2 * BIG_BS] * 2)
    assert round(sum(a.nbytes for a in first) / 2**20, 1) == 24.4
    sorter.sort(uniform(BIG_N, 2), approach=approach)
    assert [id(a) for a in sorter.workspace.arrays()] == \
        [id(a) for a in first]


#: (approach, sorter keywords, fault-plan seed); the faulted GPUMERGE
#: run pair-merges a run left in two W slots, through ``multiway_merge``.
WRITE_THROUGH = [
    ("pipemerge", dict(batch_size=BS, pinned_elements=PINNED), None),
    ("gpumerge", dict(batch_size=BS, pinned_elements=PINNED), None),
    ("gpumerge", dict(n_gpus=2, n_streams=3, batch_size=100_000,
                      pinned_elements=20_000), 2),
]


@pytest.mark.parametrize("approach, kw, seed", WRITE_THROUGH,
                         ids=["pipemerge", "gpumerge", "gpumerge-faulted"])
def test_pair_merges_write_through_the_output(monkeypatch, approach, kw,
                                              seed):
    """Every pair merge writes its keys into the front of B, the array
    that becomes ``result.output``, and into no workspace array."""
    import repro.hetsort.gpumerge as gpumerge
    import repro.hetsort.workers as workers

    merging: list[bool] = []
    outs: dict[str, list[np.ndarray]] = {"merge_two": [],
                                         "multiway_merge": []}

    def pair_spy(*args, merge=workers.merge_pair_in_w):
        merging.append(True)
        try:
            merge(*args)
        finally:
            merging.pop()

    for module in (workers, gpumerge):
        monkeypatch.setattr(module, "merge_pair_in_w", pair_spy)
    for name in outs:
        def kernel_spy(*args, name=name, kernel=getattr(workers, name),
                       **kwargs):
            if merging:
                outs[name].append(kwargs["out"])
            return kernel(*args, **kwargs)

        monkeypatch.setattr(workers, name, kernel_spy)
    n_gpus = kw.get("n_gpus", 1)
    data = laced(N if seed is None else 1_000_000, 14)
    sorter = HeterogeneousSorter(PLATFORM2 if n_gpus > 1 else PLATFORM1,
                                 **kw)
    res = sorter.sort(data, approach=approach, faults=(
        None if seed is None else FaultPlan.random(seed, n_gpus=n_gpus)))
    np.testing.assert_array_equal(bits(res.output), bits(key_sorted(data)))
    assert outs["merge_two"]
    if seed is not None:
        assert outs["multiway_merge"]
    for out in outs["merge_two"] + outs["multiway_merge"]:
        assert np.shares_memory(out, res.output)
        assert not any(np.shares_memory(out, arr)
                       for arr in sorter.workspace.arrays())


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
# Merged runs in W: pairs whose slots are not adjacent
# ---------------------------------------------------------------------------

def elements(*runs: SortedRun) -> np.ndarray:
    """The W element indices that ``runs`` cover, sorted."""
    return np.sort(np.concatenate([np.arange(off, off + size)
                                   for r in runs for off, size in r.slices]))


def tiles(out: SortedRun, first: SortedRun, second: SortedRun) -> bool:
    """``out`` covers exactly its inputs' W elements, its slices in
    address order and no two of them touching."""
    return (np.array_equal(elements(out), elements(first, second))
            and out.size == first.size + second.size
            and all(sum(a) < b[0] for a, b in zip(out.slices,
                                                  out.slices[1:])))


def test_a_merged_run_tiles_its_inputs_slots():
    def run(*slices):
        return SortedRun(size=sum(s for _, s in slices), slices=slices)

    assert SortedRun.pair(run((10, 5)), run((0, 10))).slices == ((0, 15),)
    assert SortedRun.pair(run((0, 5)), run((20, 5))).slices == \
        ((0, 5), (20, 5))
    assert SortedRun.pair(run((0, 5), (20, 5)), run((5, 15))).slices == \
        ((0, 25),)
    # Random slots of [0, n) merged in random pairs, as a merge tree
    # over out-of-order runs does: every merged run covers exactly its
    # inputs' elements, in address order, no two slices touching, and
    # the last run is all of W.
    rng = np.random.default_rng(3)
    for _ in range(50):
        cuts = np.unique(rng.integers(1, 100, size=rng.integers(1, 12)))
        bounds = [0, *map(int, cuts), 100]
        runs = [run((lo, hi - lo)) for lo, hi in zip(bounds, bounds[1:])]
        while len(runs) > 1:
            i, j = sorted(rng.choice(len(runs), size=2, replace=False))
            first, second = runs.pop(j), runs.pop(i)
            out = SortedRun.pair(first, second)
            assert tiles(out, first, second)
            runs.append(out)
        assert runs[0].slices == ((0, 100),)


def test_a_non_adjacent_pair_merges_into_its_two_slots():
    data = laced(40_000, 13)
    ctx = make_ctx(n=40_000, bs=10_000, data=data, approach="gpumerge")
    runs = []
    for b in ctx.plan.batches:
        ctx.W.data[b.offset:b.offset + b.size] = key_sorted(
            data[b.offset:b.offset + b.size])
        runs.append(ctx.finish_run(b))
    last = ctx.W.data[30_000:].copy()
    # Batches 2 and 0: the merged run fills slot 0, then slot 2.
    out = SortedRun.pair(runs[2], runs[0])
    merge_pair_in_w(ctx, runs[2], runs[0], out)
    assert out.slices == ((0, 10_000), (20_000, 10_000))
    np.testing.assert_array_equal(
        bits(np.concatenate(out.pieces(ctx))),
        bits(key_sorted(np.concatenate([data[:10_000],
                                        data[20_000:30_000]]))))
    # Merged again with batch 1, as GPUMERGE's next tree level does.
    again = SortedRun.pair(out, runs[1])
    merge_pair_in_w(ctx, out, runs[1], again)
    assert again.slices == ((0, 30_000),)
    np.testing.assert_array_equal(bits(ctx.W.data[:30_000]),
                                  bits(key_sorted(data[:30_000])))
    np.testing.assert_array_equal(bits(ctx.W.data[30_000:]), bits(last))


#: Machines and stream counts where seeded random faults make runs
#: complete out of address order, so some pairs are not adjacent.
FAULTED = [(PLATFORM2, 2, 2), (PLATFORM2, 2, 3), (PLATFORM2, 2, 4),
           (PLATFORM1, 1, 3), (PLATFORM1, 1, 4),
           (PLATFORM2, 1, 3), (PLATFORM2, 1, 4)]


@pytest.mark.parametrize("approach", ["pipemerge", "gpumerge"])
@pytest.mark.parametrize("platform, n_gpus, n_streams", FAULTED,
                         ids=[f"{p.name}-{g}gpu-{s}s" for p, g, s in FAULTED])
def test_faulted_runs_with_non_adjacent_pairs(monkeypatch, platform, n_gpus,
                                              n_streams, approach):
    pairs: list[tuple[SortedRun, SortedRun, SortedRun]] = []
    pair = SortedRun.pair.__func__

    def spy(cls, first, second):
        out = pair(cls, first, second)
        pairs.append((first, second, out))
        return out

    monkeypatch.setattr(SortedRun, "pair", classmethod(spy))
    kw = dict(n_gpus=n_gpus, n_streams=n_streams, batch_size=100_000,
              pinned_elements=20_000)
    data = laced(1_000_000, 12)
    want = bits(key_sorted(data))
    sorter = HeterogeneousSorter(platform, **kw)
    for seed in range(1, 6):
        faults = FaultPlan.random(seed, n_gpus=n_gpus)
        res = sorter.sort(data, approach=approach, faults=faults)
        fresh = HeterogeneousSorter(platform, **kw).sort(
            data, approach=approach, faults=faults)
        np.testing.assert_array_equal(bits(res.output), want)
        np.testing.assert_array_equal(bits(fresh.output), want)
        assert res.elapsed == fresh.elapsed
    assert any(len(out.slices) > 1 for _, _, out in pairs)
    if approach == "gpumerge":
        # ... and a later tree level merges such a two-slot run again.
        assert any(len(first.slices) + len(second.slices) > 2
                   for first, second, _ in pairs)
    assert all(tiles(out, first, second) for first, second, out in pairs)


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


@pytest.mark.parametrize("data", [
    uniform(N, 15).astype(np.float32),
    laced(2 * N, 16)[::2],
], ids=["float32", "strided"])
def test_validator_reads_the_runs_own_input(monkeypatch, data):
    """The sorter validates against ``ctx.A.data``, the float64 copy the
    run already made, not a second conversion of the caller's input."""
    import repro.hetsort.sorter as sorter_mod

    contexts, originals = [], []

    class Spied(sorter_mod.RunContext):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            contexts.append(self)

    def spy(original, *args, **kwargs):
        originals.append(original)
        return check_sorted_permutation(original, *args, **kwargs)

    monkeypatch.setattr(sorter_mod, "RunContext", Spied)
    monkeypatch.setattr(sorter_mod, "check_sorted_permutation", spy)
    res = HeterogeneousSorter(PLATFORM1, pinned_elements=PINNED).sort(
        data, approach="pipemerge", batch_size=BS)
    (ctx,), (original,) = contexts, originals
    assert original is ctx.A.data
    np.testing.assert_array_equal(bits(res.output),
                                  bits(key_sorted(data.astype(np.float64))))


# ---------------------------------------------------------------------------
# The validator compares in strips: every message as from whole arrays
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("n", [STRIP - 1, STRIP, STRIP + 1, 2 * STRIP + 1])
def test_strips_change_no_message(n):
    # Distinct integers, so bumping one sorted element by 0.5 keeps the
    # output sorted but makes it no permutation.
    original = np.random.default_rng(n).permutation(n).astype(np.float64)
    out = np.sort(original)
    assert message(original, out) is None
    for i in sorted({0, STRIP - 1, STRIP, n - 1} & set(range(n))):
        bumped = out.copy()
        bumped[i] += 0.5
        assert message(original, bumped) == \
            "output is not a permutation of the input"
        assert message(original, _with_nan(out, i)) == (
            f"output contains NaN (first at index {i}, 1 total) although "
            "the input had none")
        if i + 1 < n:
            swapped = out.copy()
            swapped[i:i + 2] = swapped[i:i + 2][::-1].copy()
            assert message(original, swapped) == (
                f"output not sorted at index {i}: {out[i + 1]!r} followed "
                f"by {out[i]!r}")
    # Six zeros at c - 2 .. c + 3, every other one -0.0, straddling the
    # strip boundary with -0.0 on both sides (the array's end when there
    # is one strip).
    c = min(STRIP, n - 4)
    original = np.arange(n, dtype=np.float64) - c
    original[c - 2:c + 4] = 0.0
    original[c - 1:c + 4:2] = -0.0
    assert message(original, key_sorted(original)) is None
    assert message(original, _swap_zeros(original)) == (
        f"zeros out of key order: the zero block at index {c - 2} must "
        "hold 3 -0.0 then 3 +0.0")
