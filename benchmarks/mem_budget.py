"""Peak-RSS budgets of a paper-scale timing sort and of repeated
functional sorts.

    PYTHONPATH=src python benchmarks/mem_budget.py

Timing: runs timing-only PIPEMERGE on PLATFORM1 (p_s = 2e5, the
paper-scale benchmark's configuration) at n = 5e8 and n = 2e9, each in a
fresh process, and prints each process's peak resident set size
(``ru_maxrss``).  Everything a run keeps -- trace, flow ledger, counter
series -- grows with n, so the growth between the two sizes is what the
recorders cost per key.  It must stay within ``BUDGET_MB_PER_1E9``
megabytes per 10^9 keys.

Functional: per approach (PIPEDATA, PIPEMERGE, then GPUMERGE), one
fresh process, one sorter, six functional sorts of the same 2e6 keys
(b_s = 2.5e5, p_s = 5e4, the functional benchmark's configuration),
each result dropped before the next sort.  The sorter keeps the host
arrays of its last run and the next run reuses them, each in the role
it had, so the peak after the last sort must stay within
``FUNCTIONAL_BUDGET_MB`` of the peak after the first.  What it keeps
(printed as the workspace) must be exactly W and, per stream worker,
two staging arrays of p_s and one device array of 2 b_s float64s,
computed from the run's plan: pair merges write through the front of
B, so an array kept for merging alone fails the check.

Exits 1 when a budget is exceeded or the workspace holds any other
array (Linux, where ``ru_maxrss`` is in KiB).
"""

from __future__ import annotations

import os
import pathlib
import subprocess
import sys

SIZES = (500_000_000, 2_000_000_000)
BUDGET_MB_PER_1E9 = 6.0
PINNED = 200_000

CHILD = f"""
import resource, sys
from repro import HeterogeneousSorter, PLATFORM1
res = HeterogeneousSorter(PLATFORM1, pinned_elements={PINNED}).sort(
    n=int(sys.argv[1]), approach="pipemerge")
print(len(res.trace.spans), res.flow_ledger.n_flows,
      resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
"""


FUNCTIONAL_N = 2_000_000
FUNCTIONAL_BATCH = 250_000
FUNCTIONAL_PINNED = 50_000
FUNCTIONAL_SORTS = 6
FUNCTIONAL_BUDGET_MB = 2.0
FUNCTIONAL_APPROACHES = ("pipedata", "pipemerge", "gpumerge")

FUNCTIONAL_CHILD = f"""
import resource, sys
from repro import HeterogeneousSorter, PLATFORM1
from repro.workloads import generate
data = generate({FUNCTIONAL_N}, "uniform", seed=1)
sorter = HeterogeneousSorter(PLATFORM1, batch_size={FUNCTIONAL_BATCH},
                             pinned_elements={FUNCTIONAL_PINNED})
for _ in range({FUNCTIONAL_SORTS}):
    plan = sorter.sort(data, approach=sys.argv[1]).plan
    print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
print(sum(a.nbytes for a in sorter.workspace.arrays()))
# W, then two staging arrays and one device array per stream worker.
print(8 * (plan.n + plan.n_gpus * plan.n_streams
           * (2 * plan.pinned_elements + 2 * plan.batch_size)))
"""


def child(code: str, *args: str) -> str:
    """Stdout of ``code`` run in a fresh interpreter on this checkout."""
    src = pathlib.Path(__file__).resolve().parent.parent / "src"
    path = os.pathsep.join(filter(None, [str(src),
                                         os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-c", code, *args],
                          env=dict(os.environ, PYTHONPATH=path),
                          capture_output=True, text=True,
                          check=True).stdout


def peak_rss_mb(n: int) -> float:
    """Peak RSS (MB) of one fresh process that sorts ``n`` keys."""
    spans, flows, rss_kib = map(int, child(CHILD, str(n)).split())
    print(f"n={n:.1e}: {spans} spans, {flows} flows, "
          f"peak RSS {rss_kib / 1024:.1f} MB")
    return rss_kib / 1024


def timing_ok() -> bool:
    (n0, n1), (r0, r1) = SIZES, [peak_rss_mb(n) for n in SIZES]
    growth = (r1 - r0) / ((n1 - n0) / 1e9)
    ok = growth <= BUDGET_MB_PER_1E9
    print(f"RSS growth {growth:.2f} MB per 1e9 keys "
          f"(budget {BUDGET_MB_PER_1E9}): {'ok' if ok else 'OVER BUDGET'}")
    return ok


def functional_ok(approach: str) -> bool:
    *kib, held, expected = map(int,
                               child(FUNCTIONAL_CHILD, approach).split())
    peaks = [k / 1024 for k in kib]
    growth = peaks[-1] - peaks[0]
    ok = growth <= FUNCTIONAL_BUDGET_MB
    print(f"functional {approach} n={FUNCTIONAL_N:.0e}: peak RSS after "
          "each sort " + " ".join(f"{p:.1f}" for p in peaks) + " MB; "
          f"workspace {held / 2**20:.1f} MiB")
    print(f"growth from sort 1 to sort {FUNCTIONAL_SORTS}: {growth:.2f} MB "
          f"(budget {FUNCTIONAL_BUDGET_MB}): "
          f"{'ok' if ok else 'OVER BUDGET'}")
    exact = held == expected
    print(f"workspace {held} B, W and the worker arrays {expected} B: "
          f"{'ok' if exact else 'EXTRA ARRAYS'}")
    return ok and exact


def main() -> int:
    results = [timing_ok()]
    results += [functional_ok(a) for a in FUNCTIONAL_APPROACHES]
    return 0 if all(results) else 1


if __name__ == "__main__":
    raise SystemExit(main())
