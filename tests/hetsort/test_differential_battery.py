"""Differential battery: every approach x every distribution vs np.sort.

The oracle is exact: functional mode must produce byte-identical output
to ``np.sort`` of the ordered ``uint64`` keys (mapped back: ``-0.0``
before ``+0.0``) for every registered approach on uniform, pre-sorted,
reverse-sorted, heavy-duplicate and ``special`` inputs (the golden
gate's input laced with signed zeros, infinities and subnormals).  The
outputs are compared as ``uint64`` views, because ``assert_array_equal``
treats the two zeros as equal.  Each run's metrics must also satisfy the
structural invariants of the observability layer.
"""

import numpy as np
import pytest

from repro.hetsort import APPROACH_RUNNERS, HeterogeneousSorter
from repro.hw.platforms import PLATFORM1
from repro.workloads import generate
from tests.kernels.oracles import key_sorted

DISTRIBUTIONS = ["uniform", "sorted", "reverse", "duplicates", "special"]
N = 60_000


def battery_sorter(approach):
    if approach == "bline":
        # BLINE plans exactly one batch per GPU; let the planner size it.
        return HeterogeneousSorter(PLATFORM1, pinned_elements=3_000)
    return HeterogeneousSorter(PLATFORM1, batch_size=15_000,
                               pinned_elements=3_000)


def check_metrics_invariants(res):
    m = res.metrics
    assert m, "SortResult.metrics must be populated"
    makespan = m["makespan_s"]

    # Per lane: utilization in [0, 1] and busy + idle == makespan.
    assert m["lanes"], "at least one lane must have activity"
    for lane, lm in m["lanes"].items():
        assert 0.0 <= lm["utilization"] <= 1.0 + 1e-12, lane
        assert lm["busy_s"] + lm["idle_s"] == pytest.approx(makespan), lane

    # Overlap matrix: symmetric, and every pairwise overlap bounded by
    # the smaller of the two categories' own (collapsed) busy time.
    ov = m["overlap_matrix"]
    for a in ov:
        for b in ov:
            assert ov[a][b] == pytest.approx(ov[b][a])
            assert ov[a][b] <= min(ov[a][a], ov[b][b]) + 1e-9

    # Component accounting reproduces the trace's own totals exactly.
    for cat, total in m["components"].items():
        assert abs(total - res.trace.total(cat)) < 1e-9

    assert 0.0 < m["overlap_efficiency"] <= 1.0 + 1e-12
    assert m["critical_path_s"] <= makespan + 1e-9


def check_causal_invariants(res):
    """The span DAG must be valid, its critical path must tile the
    makespan exactly, and the what-if identity must reproduce the
    measured makespan (the PR's acceptance criteria)."""
    graph = res.causal_graph()             # validates on construction
    report = res.critical_path_report()
    assert report["duration"] == res.trace.makespan()
    assert report["lead_in"] == 0.0
    assert graph.whatif_makespan({}) == res.trace.makespan()


@pytest.mark.parametrize("dist", DISTRIBUTIONS)
@pytest.mark.parametrize("approach", sorted(APPROACH_RUNNERS))
def test_approach_matches_numpy(approach, dist, gate):
    data = (gate.special_input(N, 42) if dist == "special"
            else generate(N, dist, seed=42))
    res = battery_sorter(approach).sort(data.copy(), approach=approach)
    np.testing.assert_array_equal(res.output.view(np.uint64),
                                  key_sorted(data).view(np.uint64))
    check_metrics_invariants(res)
    check_causal_invariants(res)


@pytest.mark.parametrize("approach", sorted(APPROACH_RUNNERS))
def test_timing_mode_metrics_invariants(approach):
    """Timing-only runs (no data) must satisfy the same invariants."""
    sorter = battery_sorter(approach)
    res = sorter.sort(n=1_000_000, approach=approach)
    check_metrics_invariants(res)
    assert res.metrics["counters"], "live counters must be recorded"
    done = res.metrics["counters"].get("batches.completed")
    assert done is not None and done["last"] >= 1
