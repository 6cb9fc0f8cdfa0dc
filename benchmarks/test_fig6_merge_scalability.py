"""Fig. 6: pair-wise merge scalability on PLATFORM1.

(a) response time merging two sorted sublists of 0.5e9 elements each
(n = 1e9 total) for 1-16 threads; (b) speedup.  Paper anchor: 8.14x at
16 threads (memory-bound, so well below perfect).

The functional counterpart (the pair merge really merging arrays) is
micro-benchmarked in test_kernels_micro.py.
"""

import pytest

from repro.hw import PLATFORM1
from repro.reporting import render_table

THREADS = [1, 2, 4, 8, 16]
N = 10 ** 9


def sweep():
    times = {t: PLATFORM1.merge.seconds(N, threads=t, k=2) for t in THREADS}
    return times


def test_fig6(report, benchmark):
    times = sweep()
    t1 = times[1]
    rows = [[t, f"{times[t]:.3f}", f"{t1 / times[t]:.2f}", t]
            for t in THREADS]
    report(render_table(
        ["threads", "time [s]", "speedup", "perfect"],
        rows,
        title=f"Fig. 6: merging two sorted 0.5e9-element sublists "
              f"(PLATFORM1); paper: 7.0 s sequential, 8.14x @ 16T"))

    assert t1 == pytest.approx(7.0, rel=0.02)
    assert t1 / times[16] == pytest.approx(8.14, rel=0.02)
    ys = [times[t] for t in THREADS]
    assert ys == sorted(ys, reverse=True)
    # Memory-bound: visibly below perfect scaling at 16 threads.
    assert t1 / times[16] < 0.75 * 16

    benchmark.pedantic(sweep, rounds=1, iterations=1)
