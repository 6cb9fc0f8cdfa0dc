"""The ``repro.events/v1`` event logs the golden corpus pins.

Each ``*/log`` golden pair runs one scenario with a :class:`JsonlSink`
and a :class:`WatchdogSink` attached and freezes the log's digest; its
invariant is the schema header and the scenario's exact per-kind event
counts.  The scenarios cover every emission point a single run or a
service run reaches: spans, queues, counters, phases, memory and flow
events, injected faults with their retries, graceful-degradation
replans, and the service's job lifecycle and controller epochs.  These
tests check each pair against ``benchmarks/results/golden.json``.

A change to how observers are wired must leave every pair reproducing;
a change to what a run emits refreezes the pair deliberately with
``python benchmarks/gate.py --update PAIR``.
"""

from __future__ import annotations

import pytest

#: Test id -> golden pair.
PAIRS = {
    "functional-pipemerge": "functional_pipemerge/log",
    "functional-pipemerge-random17": "functional_pipemerge_random17/log",
    "functional-pipemerge-pinned50": "functional_pipemerge_pinned50/log",
    "timing-pipedata-platform2-2gpus":
        "timing_pipedata_platform2_2gpus/log",
    "timing-service-fixed-levels": "timing_service_fixed_levels/log",
}


@pytest.mark.parametrize("name", sorted(PAIRS))
def test_event_log_bytes_are_pinned(golden_failures, name):
    assert golden_failures[PAIRS[name]] == []
