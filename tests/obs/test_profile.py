"""Profiling hooks: disabled by default, zero behavioural footprint.

The acceptance criterion: enabling the hooks changes no sorted output
and no simulated timeline -- only wall-clock statistics appear, under
the kernel names ``perfbench/layers.py`` reads.
"""

import numpy as np
import pytest

from repro.hetsort import HeterogeneousSorter
from repro.hw.platforms import PLATFORM1
from repro.kernels.radix import sort_floats
from repro.obs import profile as prof
from repro.sim.faults import FaultPlan, FaultSpec
from repro.workloads import generate


@pytest.fixture(autouse=True)
def clean_profiling():
    prof.disable_profiling()
    prof.reset_profiling()
    yield
    prof.disable_profiling()
    prof.reset_profiling()


def test_disabled_by_default_records_nothing():
    assert not prof.profiling_enabled()
    sort_floats(np.array([3.0, 1.0, 2.0]))
    assert prof.profiling_stats() == {}


def test_enabled_records_stats_without_changing_results():
    data = np.array([5.0, -1.0, 3.0, 0.0, 2.0])
    baseline = sort_floats(data)
    prof.enable_profiling()
    profiled_out = sort_floats(data)
    prof.disable_profiling()
    np.testing.assert_array_equal(baseline, profiled_out)
    stats = prof.profiling_stats()
    assert "radix.sort_floats" in stats
    s = stats["radix.sort_floats"]
    assert s.calls == 1
    assert s.elements == len(data)
    assert s.total_s >= 0.0


def test_stats_accumulate_and_reset():
    prof.enable_profiling()
    sort_floats(np.array([2.0, 1.0]))
    sort_floats(np.array([4.0, 3.0, 0.0]))
    s = prof.profiling_stats()["radix.sort_floats"]
    assert s.calls == 2
    assert s.elements == 5
    prof.reset_profiling()
    assert prof.profiling_stats() == {}


def test_profiling_does_not_change_timeline_or_output():
    """The hard guarantee: identical simulated timeline and identical
    sorted output with profiling on vs. off."""
    n = 40_000
    kw = dict(batch_size=10_000, pinned_elements=2_000, n_streams=2)
    data = generate(n, "uniform", seed=7)

    off = HeterogeneousSorter(PLATFORM1, **kw).sort(data.copy(),
                                                    approach="pipemerge")
    prof.enable_profiling()
    on = HeterogeneousSorter(PLATFORM1, **kw).sort(data.copy(),
                                                   approach="pipemerge")
    prof.disable_profiling()

    assert on.elapsed == off.elapsed
    assert len(on.trace.spans) == len(off.trace.spans)
    for sa, sb in zip(on.trace.spans, off.trace.spans):
        assert (sa.category, sa.label, sa.start, sa.end) == \
            (sb.category, sb.label, sb.start, sb.end)
    np.testing.assert_array_equal(on.output, off.output)
    # ... the run really was profiled, under exactly the kernel names
    # perfbench reads (the engine loop itself is not a profiled kernel).
    assert set(prof.profiling_stats()) == {
        "radix.sort_floats", "mergepath.merge_two",
        "multiway.multiway_merge"}
    assert prof.profiling_stats()["radix.sort_floats"].calls > 0

    # A lost GPU degrades its batches to the CPU sample sort.
    prof.reset_profiling()
    prof.enable_profiling()
    lost = HeterogeneousSorter(PLATFORM1, **kw).sort(
        data.copy(), approach="blinemulti", faults=FaultPlan(faults=(
            FaultSpec(kind="gpu.lost", gpu=0, at_s=0.0),)))
    prof.disable_profiling()
    np.testing.assert_array_equal(lost.output, off.output)
    assert prof.profiling_stats()["samplesort.sample_sort"].calls > 0


def test_size_of_errors_are_swallowed():
    @prof.profiled("boom", size_of=lambda *a, **k: 1 / 0)
    def fn(x):
        return x + 1

    prof.enable_profiling()
    assert fn(1) == 2
    assert prof.profiling_stats()["boom"].elements == 0


def test_snapshot_is_frozen_and_sorted():
    prof.enable_profiling()
    sort_floats(np.array([2.0, 1.0]))
    snap = prof.snapshot()
    assert list(snap) == sorted(snap)
    frozen = snap["radix.sort_floats"]
    assert frozen == prof.profiling_stats()["radix.sort_floats"]
    assert frozen is not prof.profiling_stats()["radix.sort_floats"]

    sort_floats(np.array([4.0, 3.0, 0.0]))       # later calls...
    assert frozen.calls == 1                     # ...never mutate it
    assert prof.profiling_stats()["radix.sort_floats"].calls == 2
    prof.reset_profiling()
    assert frozen.calls == 1                     # reset doesn't either
