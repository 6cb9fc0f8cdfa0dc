"""Output bits of the functional sort for every approach.

The differential battery compares outputs with ``assert_array_equal``,
which treats ``-0.0 == +0.0``.  So a kernel that swapped the two zeros,
or any other pair of equal but distinct bit patterns, would pass it.
The golden pairs ``special_<approach>/output`` pin the sorted output's
``uint64`` bits for a seeded input laced with signed zeros,
infinities, subnormals and runs of exact duplicates; these tests check
each pair against ``benchmarks/results/golden.json``.  A change that
only makes a kernel faster must leave every pair reproducing;
``python benchmarks/gate.py --update PAIR`` refreezes one on purpose.

Every kernel sorts in the order of the ordered ``uint64`` keys, so the
five approaches pin one digest, also when a batch degrades to the CPU
sample sort.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.hetsort import APPROACH_RUNNERS, HeterogeneousSorter
from repro.hw.platforms import PLATFORM1
from repro.sim.faults import FaultPlan

#: A ``FaultPlan.random`` seed that degrades at least one batch of every
#: approach's special scenario to the CPU.
FALLBACK_SEED = 0


@pytest.mark.parametrize("approach", sorted(APPROACH_RUNNERS))
def test_output_bytes_are_pinned(golden_failures, approach):
    assert golden_failures[f"special_{approach}/output"] == []


def test_every_approach_pins_one_digest(gate):
    pairs = gate.load_golden(gate.GOLDEN)["pairs"]
    digests = {pairs[f"special_{a}/output"]["sha256"]
               for a in APPROACH_RUNNERS}
    assert len(digests) == 1


@pytest.mark.parametrize("approach", sorted(APPROACH_RUNNERS))
def test_cpu_fallback_keeps_the_digest(gate, approach):
    sc = next(sc for sc in gate.SCENARIOS
              if sc["name"] == f"special_{approach}")
    sorter = HeterogeneousSorter(
        PLATFORM1, **{k: sc[k] for k in gate._SORT_KWARGS if k in sc})
    res = sorter.sort(gate.special_input(sc["n"], sc["data"][1]),
                      approach=approach,
                      faults=FaultPlan.random(FALLBACK_SEED))
    assert res.metrics["counters"]["batches.degraded"]["last"] >= 1
    want = gate.load_golden(gate.GOLDEN)["pairs"]["special_bline/output"]
    assert gate.sha256(res.output.view(np.uint64).tolist()) == want["sha256"]


def test_input_has_every_special(gate):
    sc = next(sc for sc in gate.SCENARIOS if sc["name"] == "special_bline")
    a = gate.special_input(sc["n"], sc["data"][1])
    assert len(a) == 60_000
    bits = set(a.view(np.uint64).tolist())
    for v in (0.0, -0.0, np.inf, -np.inf, 5e-324, -5e-324):
        assert np.array([v]).view(np.uint64)[0] in bits
