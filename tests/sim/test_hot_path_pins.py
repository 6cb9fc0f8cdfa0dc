"""A paper-chunked sort and a strict-priority service, as golden pairs.

A timing PIPEMERGE run on PLATFORM1 at n = 2e8 with the paper's pinned
buffer of p_s = 2e5 elements stages each batch through ~10^3 chunks, so
it exercises every per-chunk path (staging copies, async copies,
per-copy synchronisation, the flow ledger and the gauges) a thousand
times.  The timing strict-priority service run adds concurrent tenants
under a layered allocator, the QoS path ``FlowNetwork.transfer`` reads.

The golden corpus pins each artifact; these tests check each pair
against ``benchmarks/results/golden.json``.  A change that only makes
these paths cheaper must leave every pair reproducing;
``python benchmarks/gate.py --update PAIR`` refreezes one on purpose.
"""

from __future__ import annotations

import pytest

#: Test id -> golden pair.
PAIRS = {
    "pipemerge-2e8/report": "pipemerge_2e8/report",
    "pipemerge-2e8/flows": "pipemerge_2e8/flows",
    "pipemerge-2e8/counters": "pipemerge_2e8/counters",
    "service-strict-priority/verdict": "serve_strict_priority_seed5/verdict",
}


@pytest.mark.parametrize("name", sorted(PAIRS))
def test_artifact_bytes_are_pinned(golden_failures, name):
    assert golden_failures[PAIRS[name]] == []
