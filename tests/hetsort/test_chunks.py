"""``SortPlan.chunks`` is a lazy, range-backed sequence of the tuples
the staging loop used to build as a list."""

import pytest

from repro.hetsort.config import SortConfig
from repro.hetsort.plan import make_plan
from repro.hw.platforms import PLATFORM1


def _reference(plan, batch):
    out = []
    done = 0
    while done < batch.size:
        step = min(plan.pinned_elements, batch.size - done)
        out.append((batch.offset + done, done, step))
        done += step
    return out


@pytest.mark.parametrize("n, bs, ps", [
    (10 ** 6, 250_000, 64_000), (1000, 1000, 1), (999, 500, 7),
    (5, 5, 5)])
def test_chunks_are_a_lazy_sequence_of_the_loop_tuples(n, bs, ps):
    plan = make_plan(n, PLATFORM1, SortConfig(
        approach="pipedata", batch_size=bs, pinned_elements=ps))
    for batch in plan.batches:
        want = _reference(plan, batch)
        chunks = plan.chunks(batch)
        assert not isinstance(chunks, list)
        assert len(chunks) == len(want) and list(chunks) == want
        assert [chunks[i] for i in range(-len(want), len(want))] == want * 2
        assert list(chunks[1:3]) == want[1:3]
        assert list(chunks[::-1]) == want[::-1]
        with pytest.raises(IndexError):
            chunks[len(want)]
