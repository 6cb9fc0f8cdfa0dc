"""Peak-RSS budget of a timing-only paper-scale sort.

    PYTHONPATH=src python benchmarks/mem_budget.py

Runs timing-only PIPEMERGE on PLATFORM1 (p_s = 2e5, the paper-scale
benchmark's configuration) at n = 5e8 and n = 2e9, each in a fresh
process, and prints each process's peak resident set size
(``ru_maxrss``).  Everything a run keeps -- trace, flow ledger, counter
series -- grows with n, so the growth between the two sizes is what the
recorders cost per key.  Exits 1 when it exceeds ``BUDGET_MB_PER_1E9``
megabytes per 10^9 keys (Linux, where ``ru_maxrss`` is in KiB).
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


def peak_rss_mb(n: int) -> float:
    """Peak RSS (MB) of one fresh process that sorts ``n`` keys."""
    src = pathlib.Path(__file__).resolve().parent.parent / "src"
    path = os.pathsep.join(filter(None, [str(src),
                                         os.environ.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", CHILD, str(n)],
                         env=dict(os.environ, PYTHONPATH=path),
                         capture_output=True, text=True, check=True)
    spans, flows, rss_kib = map(int, out.stdout.split())
    print(f"n={n:.1e}: {spans} spans, {flows} flows, "
          f"peak RSS {rss_kib / 1024:.1f} MB")
    return rss_kib / 1024


def main() -> int:
    (n0, n1), (r0, r1) = SIZES, [peak_rss_mb(n) for n in SIZES]
    growth = (r1 - r0) / ((n1 - n0) / 1e9)
    ok = growth <= BUDGET_MB_PER_1E9
    print(f"RSS growth {growth:.2f} MB per 1e9 keys "
          f"(budget {BUDGET_MB_PER_1E9}): {'ok' if ok else 'OVER BUDGET'}")
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
