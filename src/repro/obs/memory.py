"""Memory observatory: the byte-exact allocation ledger, occupancy
watermarks, leak detection, and the analytic capacity planner.

The paper's entire design is driven by scarce GPU memory -- batch sizes,
stream counts and pinned staging buffers all exist to sort datasets
larger than device memory (Sec. III-B/III-C) -- yet the earlier
observability layers watch *time* only.  This module watches *space*:

* :class:`MemoryLedger` (``repro.memory/v1``) -- every ``cudaMalloc`` /
  ``cudaFree`` / ``cudaMallocHost`` / pinned release becomes one
  timestamped ledger entry with the pool's running balance.  The ledger
  is wired through :class:`repro.cuda.runtime.Runtime` and
  :class:`repro.hw.machine.Machine`'s pinned pool by
  :class:`~repro.hetsort.sorter.HeterogeneousSorter`, and publishes
  ``mem.alloc`` / ``mem.free`` / ``mem.watermark`` events onto the PR-4
  :class:`~repro.obs.events.EventBus` behind the same
  zero-overhead-when-disabled single ``is None`` check every other
  emission point uses.  Recording is strictly passive -- the ledger
  never schedules simulation events, so attaching it never perturbs the
  simulated timeline or the canonical run report;

* **leak detection** -- :meth:`MemoryLedger.check_balanced` requires
  every pool's balance to return to zero by ``run.end``, *including*
  degraded and fault-injected runs (``free_surviving`` releases a dead
  worker's buffers; :meth:`SimGPU.free <repro.hw.gpu.SimGPU.free>`
  deliberately works on lost devices so their ledgers still balance);

* :func:`plan_memory` -- the analytic capacity planner behind ``repro
  plan-mem``: given (platform, n, approach, batch size, streams),
  predict peak device and pinned occupancy *from the plan alone* and
  check it against the machine's capacities before any simulation runs.
  The worker geometry is exact: every worker holds ``2 b_s`` elements
  of device memory (Thrust sorts out of place, Sec. III-B) and -- when
  staging through pinned buffers -- ``2 p_s`` elements of pinned host
  memory, for its whole lifetime.  Workers allocate up front and free at
  the end, so on a healthy run the measured peak *equals* the
  prediction;

* :func:`memory_conformance` -- predicted-vs-measured peak residuals in
  the PR-3 conformance shape (per-pool residual, relative error, a
  pinned tolerance band).
"""

from __future__ import annotations

import typing as _t

from repro.errors import MemoryLedgerError
from repro.obs.events import EV

__all__ = [
    "MEMORY_SCHEMA", "MEMPLAN_SCHEMA", "MEMORY_CONFORMANCE_SCHEMA",
    "PLAN_TOLERANCE", "MemoryLedger", "plan_memory", "measured_peaks",
    "memory_conformance",
]

MEMORY_SCHEMA = "repro.memory/v1"
MEMPLAN_SCHEMA = "repro.memplan/v1"
MEMORY_CONFORMANCE_SCHEMA = "repro.memory_conformance/v1"

#: Pinned tolerance band for predicted-vs-measured peak occupancy.  The
#: planner's geometry is exact on healthy runs, so the band exists only
#: to absorb intentional future model refinements -- the tiny/ci grids
#: must stay at zero residual.
PLAN_TOLERANCE = 0.01


class MemoryLedger:
    """A byte-exact, timestamped allocation ledger over named pools.

    Pools are ``"gpu<i>"`` (device global memory) and ``"pinned"``
    (the host's pinned staging pool).  ``clock`` is a zero-argument
    callable returning simulated seconds (normally ``lambda:
    env.now``); ``capacities`` maps pool names to their byte capacity
    (used for headroom and the ``mem.watermark`` events' context).

    The ledger is an observer: it records what the runtime already did
    and never raises on *capacity* (the runtime's own OOM checks own
    that) -- only on impossible accounting (a pool balance going
    negative), which would mean the instrumentation itself is wrong.
    """

    def __init__(self, clock: _t.Callable[[], float] | None = None,
                 capacities: _t.Mapping[str, int] | None = None) -> None:
        self._clock = clock if clock is not None else (lambda: 0.0)
        self.capacities: dict[str, int] = dict(capacities or {})
        #: Ledger entries in record order:
        #: ``{"t", "op", "pool", "name", "nbytes", "balance"}`` (+ the
        #: allocation span id for pinned allocations).
        self.entries: list[dict] = []
        self.balances: dict[str, int] = {}
        self.peaks: dict[str, int] = {}
        self.n_allocs = 0
        self.n_frees = 0
        #: Optional :class:`~repro.obs.events.EventBus` (set by the run
        #: session); ``None`` costs one ``is None`` check per recorded
        #: operation.
        self.bus = None

    # -- recording -----------------------------------------------------------

    def _record(self, op: str, pool: str, nbytes: int, name: str,
                span: int | None) -> None:
        nbytes = int(nbytes)
        if nbytes < 0:
            raise MemoryLedgerError(
                f"{op} of negative size {nbytes} B in pool {pool!r}")
        balance = self.balances.get(pool, 0)
        balance += nbytes if op == "alloc" else -nbytes
        if balance < 0:
            raise MemoryLedgerError(
                f"pool {pool!r} balance went negative ({balance} B) "
                f"freeing {nbytes} B ({name!r}): the instrumentation "
                "recorded a free it never saw allocated")
        self.balances[pool] = balance
        entry = {"t": self._clock(), "op": op, "pool": pool,
                 "name": name, "nbytes": nbytes, "balance": balance}
        if span is not None:
            entry["span"] = span
        self.entries.append(entry)
        if op == "alloc":
            self.n_allocs += 1
            if self.bus is not None:
                self.bus.emit(EV.MEM_ALLOC, pool=pool, name=name,
                              nbytes=nbytes, balance=balance)
            if balance > self.peaks.get(pool, 0):
                self.peaks[pool] = balance
                if self.bus is not None:
                    self.bus.emit(
                        EV.MEM_WATERMARK, pool=pool, peak_bytes=balance,
                        capacity_bytes=self.capacities.get(pool))
        else:
            self.n_frees += 1
            if self.bus is not None:
                self.bus.emit(EV.MEM_FREE, pool=pool, name=name,
                              nbytes=nbytes, balance=balance)

    def device_alloc(self, gpu: int, nbytes: int, name: str = "") -> None:
        """Record a successful ``cudaMalloc`` on ``gpu``."""
        self._record("alloc", f"gpu{gpu}", nbytes, name, None)

    def device_free(self, gpu: int, nbytes: int, name: str = "") -> None:
        """Record a ``cudaFree`` on ``gpu``."""
        self._record("free", f"gpu{gpu}", nbytes, name, None)

    def pinned_alloc(self, nbytes: int, name: str = "",
                     span: int | None = None) -> None:
        """Record a successful ``cudaMallocHost`` (``span`` is the
        allocation's trace span id, the ledger's causal attribution)."""
        self._record("alloc", "pinned", nbytes, name, span)

    def pinned_free(self, nbytes: int, name: str = "") -> None:
        """Record a ``cudaFreeHost``."""
        self._record("free", "pinned", nbytes, name, None)

    # -- derived views -------------------------------------------------------

    def pools(self) -> list[str]:
        """Every pool the ledger or its capacities know, sorted with
        ``pinned`` last (display order)."""
        names = set(self.balances) | set(self.capacities)
        return sorted(names, key=lambda p: (p == "pinned", p))

    def timeline(self, pool: str) -> list[tuple[float, int]]:
        """The pool's occupancy as a step series ``[(t, balance)]``
        starting at ``(0.0, 0)``."""
        out: list[tuple[float, int]] = [(0.0, 0)]
        for e in self.entries:
            if e["pool"] == pool:
                out.append((e["t"], e["balance"]))
        return out

    def leaks(self) -> dict[str, int]:
        """Pools whose balance is not zero (leaked bytes)."""
        return {p: b for p, b in sorted(self.balances.items()) if b != 0}

    def check_balanced(self) -> None:
        """Raise :class:`~repro.errors.MemoryLedgerError` unless every
        pool balanced back to zero (the leak detector)."""
        leaks = self.leaks()
        if leaks:
            detail = ", ".join(f"{p}={b} B" for p, b in leaks.items())
            raise MemoryLedgerError(
                f"memory ledger did not balance to zero at run end: "
                f"{detail} ({self.n_allocs} allocs, {self.n_frees} frees)")

    def headroom(self, pool: str) -> int | None:
        """Fragmentation-free headroom: capacity minus peak occupancy
        (the simulated allocator is exact, so every unoccupied byte is
        usable).  None for pools of unknown capacity."""
        cap = self.capacities.get(pool)
        if cap is None:
            return None
        return cap - self.peaks.get(pool, 0)

    def summary(self) -> dict:
        """The compact block exported as ``result.metrics["memory"]``."""
        return {
            "peak_device_bytes": {p: self.peaks.get(p, 0)
                                  for p in self.pools() if p != "pinned"},
            "peak_pinned_bytes": self.peaks.get("pinned", 0),
            "n_allocs": self.n_allocs,
            "n_frees": self.n_frees,
            "balanced": not self.leaks(),
        }

    def to_dict(self) -> dict:
        """The full ``repro.memory/v1`` ledger document."""
        pools = {}
        for p in self.pools():
            pools[p] = {
                "capacity_bytes": self.capacities.get(p),
                "peak_bytes": self.peaks.get(p, 0),
                "balance_bytes": self.balances.get(p, 0),
                "headroom_bytes": self.headroom(p),
                "n_allocs": sum(1 for e in self.entries
                                if e["pool"] == p and e["op"] == "alloc"),
                "n_frees": sum(1 for e in self.entries
                               if e["pool"] == p and e["op"] == "free"),
            }
        return {
            "schema": MEMORY_SCHEMA,
            "pools": pools,
            "balanced": not self.leaks(),
            "entries": [dict(e) for e in self.entries],
        }


# ---------------------------------------------------------------------------
# Analytic capacity planner
# ---------------------------------------------------------------------------

def plan_memory(platform, n: int, config=None, n_gpus: int = 1,
                **config_kw) -> dict:
    """Predict peak device/pinned occupancy for a sort *before running
    it* and check the prediction against the platform's capacities.

    Accepts either a :class:`~repro.hetsort.config.SortConfig` or the
    same keywords the sorter takes.  Raises
    :class:`~repro.errors.PlanError` exactly where the simulation would
    (a single batch that cannot fit on a device) -- that is the
    planner's cheapest rejection.  Beyond it, the planner also rejects
    *aggregate* oversubscription the per-batch check cannot see: the
    sum of every concurrent worker's pinned staging buffers against
    what host DRAM leaves after the pageable working set (A + W + B =
    3n, Sec. III-C).

    Returns a ``repro.memplan/v1`` document (``ok``, per-pool
    prediction/capacity/headroom, and human-readable ``violations``).
    """
    # Lazy imports: repro.obs must stay importable without dragging the
    # sorter stack in (hetsort imports repro.obs.counters).
    from repro.cuda.buffers import ELEM
    from repro.errors import PlanError
    from repro.hetsort.config import Approach, SortConfig, Staging
    from repro.hetsort.plan import make_plan

    if config is not None and config_kw:
        raise PlanError("pass either a SortConfig or keywords, not both")
    cfg = config if config is not None else SortConfig(**config_kw)
    plan = make_plan(int(n), platform, cfg, n_gpus=n_gpus)

    # Concurrent workers, straight from the plan's batch assignment:
    # blocking approaches run one host thread per GPU with work; the
    # pipelined ones run one per (gpu, stream) pair with work (workers
    # with an empty queue return before allocating anything).
    if cfg.approach in (Approach.BLINE, Approach.BLINEMULTI):
        device_workers = {g: 1 for g in
                          sorted({b.gpu for b in plan.batches})}
    else:
        device_workers: dict[int, int] = {}
        for g, s in sorted({(b.gpu, b.stream_slot) for b in plan.batches}):
            device_workers[g] = device_workers.get(g, 0) + 1
    n_workers = sum(device_workers.values())

    staged = (cfg.approach in Approach.PIPELINED
              or cfg.staging == Staging.PINNED)
    device_per_worker = 2 * plan.batch_size * ELEM
    pinned_per_worker = 2 * plan.pinned_elements * ELEM if staged else 0

    predicted = {f"gpu{g}": device_workers.get(g, 0) * device_per_worker
                 for g in range(n_gpus)}
    predicted["pinned"] = n_workers * pinned_per_worker

    capacities = {f"gpu{g}": platform.gpus[g].mem_bytes
                  for g in range(n_gpus)}
    capacities["pinned"] = (platform.hostmem.capacity_bytes
                            - plan.host_bytes)

    pools = {}
    violations = []
    for pool in sorted(predicted, key=lambda p: (p == "pinned", p)):
        need, have = predicted[pool], capacities[pool]
        ok = need <= have
        pools[pool] = {"predicted_bytes": need, "capacity_bytes": have,
                       "headroom_bytes": have - need, "ok": ok}
        if not ok:
            what = ("pinned staging buffers" if pool == "pinned"
                    else "worker device buffers")
            violations.append(
                f"{pool}: {what} need {need} B but only {have} B are "
                f"available" + (" after the 3n pageable working set"
                                if pool == "pinned" else ""))
    return {
        "schema": MEMPLAN_SCHEMA,
        "point": {
            "platform": platform.name, "approach": cfg.approach,
            "n": plan.n, "n_gpus": n_gpus, "n_streams": plan.n_streams,
            "batch_size": plan.batch_size,
            "pinned_elements": plan.pinned_elements,
        },
        "per_worker": {"device_bytes": device_per_worker,
                       "pinned_bytes": pinned_per_worker},
        "workers": {f"gpu{g}": c for g, c in sorted(device_workers.items())},
        "predicted": predicted,
        "pools": pools,
        "ok": not violations,
        "violations": violations,
    }


def measured_peaks(result) -> dict[str, int]:
    """The measured per-pool peaks of a finished run, in the planner's
    pool naming (from ``result.metrics["memory"]``)."""
    mem = result.metrics.get("memory")
    if mem is None:
        raise MemoryLedgerError(
            "result carries no memory ledger (metrics['memory'] absent)")
    peaks = dict(mem.get("peak_device_bytes", {}))
    peaks["pinned"] = mem.get("peak_pinned_bytes", 0)
    return peaks


def memory_conformance(memplan: dict, measured: _t.Mapping[str, int],
                       tolerance: float = PLAN_TOLERANCE) -> dict:
    """Predicted-vs-measured peak-occupancy residuals, per pool.

    ``memplan`` is a :func:`plan_memory` document; ``measured`` maps
    pool names to measured peak bytes (see :func:`measured_peaks`).
    A pool conforms when ``|measured - predicted| <= tolerance *
    predicted`` (a zero prediction requires a zero measurement).
    """
    predicted = memplan["predicted"]
    pools = {}
    ok = True
    for pool in sorted(set(predicted) | set(measured),
                       key=lambda p: (p == "pinned", p)):
        pred = int(predicted.get(pool, 0))
        meas = int(measured.get(pool, 0))
        residual = meas - pred
        rel = residual / pred if pred else (0.0 if meas == 0 else None)
        pool_ok = (abs(residual) <= tolerance * pred if pred
                   else meas == 0)
        pools[pool] = {"predicted_bytes": pred, "measured_bytes": meas,
                       "residual_bytes": residual, "rel": rel,
                       "ok": pool_ok}
        ok = ok and pool_ok
    return {
        "schema": MEMORY_CONFORMANCE_SCHEMA,
        "point": dict(memplan["point"]),
        "tolerance": tolerance,
        "pools": pools,
        "ok": ok,
    }
