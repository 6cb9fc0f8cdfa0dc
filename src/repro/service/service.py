"""The multi-tenant sort service simulator.

One shared :class:`~repro.hw.machine.Machine` (GPUs, core pool, pinned
memory, interconnects) serves an open-loop stream of sort jobs from many
tenants.  The service is built and run by the same
:class:`~repro.hetsort.session.RunSession` as a single sort (ledgers,
fault injector with its timed faults, event bus), with the admission
dispatcher as the root process.  Each admitted job runs the
*unmodified* single-run machinery -- ``RunContext`` + the approach
runners of :mod:`repro.hetsort` -- against a per-job
:class:`_MachineView` that exposes only the job's assigned GPUs: jobs
address devices by job index, the runtime records by physical index.
QoS enters through the engine, not the runners: the service stamps a
:class:`~repro.sim.allocators.QosTag` on each job's root process,
processes inherit it, and every flow the job opens carries the tenant's
priority and share to the per-link bandwidth allocators.

Admission is FIFO with conservative accounting: a job is admitted only
when its full worst-case footprint (3n pageable host bytes + pinned
staging upper bound + per-GPU device working set) fits in what the
currently running jobs leave, so no admitted job can hit a simulated OOM.
Head-of-line blocking is intentional -- bypassing the head would make
admission order depend on job sizes and wreck the differential batteries'
"same stream, same outputs" guarantee.
"""

from __future__ import annotations

import hashlib
import typing as _t
from collections import deque
from dataclasses import dataclass, field

from repro.cuda import ELEM, Runtime
from repro.errors import ValidationError
from repro.hetsort.config import SortConfig
from repro.hetsort.context import RunContext
from repro.hetsort.plan import SortPlan, make_plan
from repro.hetsort.session import RunSession
from repro.hetsort.validate import check_sorted_permutation
from repro.hw.machine import Machine
from repro.hw.platforms import PLATFORM1
from repro.hw.spec import PlatformSpec
from repro.obs.events import EV
from repro.obs.flows import FlowLedger
from repro.obs.memory import MemoryLedger
from repro.service.controller import AdaptiveController
from repro.service.verdict import build_verdict
from repro.service.workload import JobSpec, Tenant, build_jobs, job_data_seed
from repro.sim.allocators import FixedLevels, QosTag, make_allocator
from repro.sim.engine import Event
from repro.workloads import generate

__all__ = ["ServiceConfig", "ServiceResult", "SortService", "run_service"]


@dataclass(frozen=True)
class ServiceConfig:
    """Service-level knobs (per-job sort knobs are derived from these)."""

    allocator: str = "fair-share"   #: per-link bandwidth policy name
    seed: int = 0                   #: arrival + dataset seed
    functional: bool = True         #: move and validate real data
    gpus_per_job: int = 1           #: devices each job sorts across
    max_concurrent: int = 8         #: admission cap on running jobs
    batch_size: int = 25_000        #: per-job b_s (small: jobs share GPUs)
    n_streams: int = 2              #: per-job streams per GPU
    pinned_elements: int = 25_000   #: per-job staging buffer elements
    controller: bool = True         #: run the adaptive level controller
    epoch_s: float = 0.05           #: controller period (simulated s)
    reclaim: float = 0.9            #: idle-level fraction loaned per epoch

    def __post_init__(self) -> None:
        if self.gpus_per_job < 1:
            raise ValidationError("gpus_per_job must be >= 1")
        if self.max_concurrent < 1:
            raise ValidationError("max_concurrent must be >= 1")
        # Phrased so that NaN fails too.
        if not self.epoch_s > 0:
            raise ValidationError(
                f"epoch_s must be > 0, got {self.epoch_s}")
        if not 0.0 <= self.reclaim < 1.0:
            raise ValidationError(
                f"reclaim must be in [0, 1), got {self.reclaim}")

    def sort_config(self, approach: str) -> SortConfig:
        return SortConfig(approach=approach, batch_size=self.batch_size,
                          n_streams=self.n_streams,
                          pinned_elements=self.pinned_elements)


@dataclass
class ServiceResult:
    """Everything one service run produced."""

    verdict: dict                 #: the ``repro.service/v1`` document
    jobs: list[dict]              #: per-job rows (also in the verdict)
    elapsed: float                #: simulated end of the last job
    trace: _t.Any                 #: shared machine Trace
    flow_ledger: FlowLedger
    memory_ledger: MemoryLedger
    controller: AdaptiveController | None
    meta: dict = field(default_factory=dict)


class _MachineView:
    """A per-job facade over the shared machine.

    * ``gpus`` is the job's assigned devices (so GPU index 0..n_gpus-1 in
      the plan lands on the right physical devices; the runtime records
      memory, gauges and fault hooks by each device's physical index);
    * everything else (core pool, flow network, pinned pool, fault hooks)
      delegates to the real machine, which is exactly the contention the
      service exists to model.
    """

    __slots__ = ("_machine", "gpus")

    def __init__(self, machine: Machine, gpus: _t.Sequence) -> None:
        self._machine = machine
        self.gpus = list(gpus)

    def __getattr__(self, name: str):
        return getattr(self._machine, name)


class SortService:
    """A simulated multi-tenant sort service run."""

    def __init__(self, tenants: _t.Sequence[Tenant],
                 config: ServiceConfig | None = None,
                 platform: PlatformSpec = PLATFORM1,
                 faults=None, retry=None) -> None:
        if not tenants:
            raise ValidationError("service needs at least one tenant")
        self.tenants = list(tenants)
        self.config = config if config is not None else ServiceConfig()
        self.platform = platform
        self.faults = faults
        self.retry = retry
        self._tenant_index = {t.name: i for i, t in enumerate(self.tenants)}

    # -- the run -----------------------------------------------------------

    def run(self, sinks: _t.Sequence = ()) -> ServiceResult:
        cfg = self.config
        if cfg.gpus_per_job > self.platform.n_gpus:
            raise ValidationError(
                f"gpus_per_job={cfg.gpus_per_job} but platform has "
                f"{self.platform.n_gpus} GPU(s)")
        session = RunSession(self.platform, sinks=sinks, faults=self.faults,
                             retry=self.retry)
        self.env = env = session.env
        self.machine = machine = session.machine
        self.bus = bus = session.bus

        # Install the bandwidth policy on every link.
        self._links = [machine.host_bus, *machine.pcie.values()]
        self._policies = []
        base_levels = self._level_map()
        for link in self._links:
            pol = (make_allocator(cfg.allocator, levels=dict(base_levels))
                   if cfg.allocator == FixedLevels.name
                   else make_allocator(cfg.allocator))
            machine.net.set_policy(link, pol)
            self._policies.append(pol)

        controller = None
        if cfg.controller and cfg.allocator == FixedLevels.name:
            controller = AdaptiveController(
                env, machine.net,
                targets=list(zip(self._links, self._policies)),
                demand_fn=self._backlogged_classes,
                epoch_s=cfg.epoch_s, reclaim=cfg.reclaim, bus=bus)
            controller.start()
        self.controller = controller

        # Admission state (conservative accounting, see module docstring).
        self.jobs = build_jobs(self.tenants, seed=cfg.seed)
        self._pending: deque[JobSpec] = deque()
        self._running: dict[str, JobSpec] = {}
        self._completed = 0
        self._host_committed = 0
        self._device_reserved = [0] * len(machine.gpus)
        self._wake: Event | None = None
        self._rows: list[dict] = []

        env.process(self._arrivals(), name="service.arrivals")
        meta = session.run(
            self._dispatcher(), "service.admit",
            start=dict(platform=self.platform.name, service=True,
                       allocator=cfg.allocator, n_tenants=len(self.tenants),
                       functional=cfg.functional),
            end=lambda: dict(elapsed_s=self._elapsed(),
                             n_jobs=len(self._rows),
                             makespan_s=machine.trace.makespan()))
        self._rows.sort(key=lambda r: (r["end_s"], r["job_id"]))
        verdict = build_verdict(self)
        return ServiceResult(
            verdict=verdict, jobs=list(self._rows), elapsed=self._elapsed(),
            trace=machine.trace, flow_ledger=machine.net.ledger,
            memory_ledger=machine.memory, controller=controller, meta=meta)

    def _elapsed(self) -> float:
        """Simulated end of the last job."""
        return max((r["end_s"] for r in self._rows), default=0.0)

    # -- QoS plumbing ------------------------------------------------------

    def _level_map(self) -> dict[int, float]:
        """FixedLevels base map: each priority class gets the fraction of
        capacity proportional to its tenants' summed shares."""
        by_prio: dict[int, float] = {}
        for t in self.tenants:
            by_prio[t.priority] = by_prio.get(t.priority, 0.0) + t.share
        total = sum(by_prio.values())
        return {p: s / total for p, s in sorted(by_prio.items())}

    def _backlogged_classes(self) -> set[int]:
        """Priority classes with queued or running jobs (controller's
        demand signal)."""
        out = {j.priority for j in self._pending}
        out.update(j.priority for j in self._running.values())
        return out

    # -- processes ---------------------------------------------------------

    def _arrivals(self):
        """Open-loop job injection at the pre-built arrival instants."""
        for job in self.jobs:
            delay = job.arrival_s - self.env.now
            if delay > 0:
                yield self.env.timeout(delay)
            self._pending.append(job)
            if self.bus is not None:
                self.bus.emit(EV.JOB_SUBMIT, job=job.job_id,
                              tenant=job.tenant, n=job.n,
                              approach=job.approach, priority=job.priority)
            self._kick()

    def _dispatcher(self):
        """FIFO admission: admit the head whenever it fits, else sleep
        until an arrival or a completion changes the picture."""
        total = len(self.jobs)
        while self._completed < total:
            while self._pending:
                admitted = self._try_admit(self._pending[0])
                if not admitted:
                    break
                self._pending.popleft()
            if self._completed < total:
                self._wake = Event(self.env)
                yield self._wake

    def _kick(self) -> None:
        if self._wake is not None and not self._wake.triggered:
            wake, self._wake = self._wake, None
            wake.succeed()

    # -- admission ---------------------------------------------------------

    def _footprint(self, job: JobSpec) -> tuple[SortPlan, SortConfig, int]:
        """Plan the job and bound its host bytes (pageable A/W/B plus the
        pinned staging upper bound: up to two pinned buffers per stream
        worker)."""
        jcfg = self.config.sort_config(job.approach)
        plan = make_plan(job.n, self.platform, jcfg,
                         n_gpus=self.config.gpus_per_job)
        pinned_est = (2 * plan.pinned_elements * ELEM
                      * plan.n_streams * plan.n_gpus)
        return plan, jcfg, plan.host_bytes + pinned_est

    def _try_admit(self, job: JobSpec) -> bool:
        if len(self._running) >= self.config.max_concurrent:
            return False
        plan, jcfg, host_need = self._footprint(job)
        cap = self.platform.hostmem.capacity_bytes
        if self._host_committed + host_need > cap:
            return False
        # Least-loaded GPU placement (ties broken by device index, so
        # placement is a pure function of the admission sequence).
        order = sorted(range(len(self.machine.gpus)),
                       key=lambda g: (self._device_reserved[g], g))
        assigned = order[:self.config.gpus_per_job]
        need = plan.device_bytes_per_gpu
        for g in assigned:
            if (self._device_reserved[g] + need
                    > self.machine.gpus[g].spec.mem_bytes):
                return False
        for g in assigned:
            self._device_reserved[g] += need
        self._host_committed += host_need
        self._running[job.job_id] = job
        proc = self.env.process(
            self._job(job, plan, jcfg, assigned, host_need),
            name=f"job:{job.job_id}")
        proc.tag = QosTag(tenant=job.tenant, priority=job.priority,
                          share=job.share)
        return True

    # -- one job -----------------------------------------------------------

    def _job(self, job: JobSpec, plan: SortPlan, jcfg: SortConfig,
             assigned: list[int], host_need: int):
        from repro.hetsort.sorter import APPROACH_RUNNERS
        env = self.env
        admit_s = env.now
        if self.bus is not None:
            self.bus.emit(EV.JOB_START, job=job.job_id, tenant=job.tenant,
                          queued_s=admit_s - job.arrival_s,
                          gpus=list(assigned))
        data = None
        if self.config.functional:
            seed = job_data_seed(self.config.seed,
                                 self._tenant_index[job.tenant], job.index)
            data = generate(job.n, "uniform", seed=seed)
        view = _MachineView(self.machine, [self.machine.gpus[g]
                                           for g in assigned])
        rt = Runtime(view)
        ctx = RunContext(env, view, rt, plan, jcfg, data=data)
        try:
            yield from APPROACH_RUNNERS[jcfg.approach](ctx)
        finally:
            self.machine.release_host(plan.host_bytes)
            need = plan.device_bytes_per_gpu
            for g in assigned:
                self._device_reserved[g] -= need
            self._host_committed -= host_need
            del self._running[job.job_id]
        end_s = env.now
        row = {
            "job_id": job.job_id,
            "tenant": job.tenant,
            "index": job.index,
            "n": job.n,
            "approach": job.approach,
            "priority": job.priority,
            "share": job.share,
            "gpus": list(assigned),
            "arrival_s": job.arrival_s,
            "admit_s": admit_s,
            "end_s": end_s,
            "queued_s": admit_s - job.arrival_s,
            "service_s": end_s - admit_s,
            "latency_s": end_s - job.arrival_s,
            "slo_s": job.slo_s,
            "slo_ok": (None if job.slo_s is None
                       else end_s - job.arrival_s <= job.slo_s),
        }
        if data is not None:
            out = ctx.B.data
            check_sorted_permutation(data, out, scratch=ctx.W.data)
            row["digest"] = hashlib.sha256(out.tobytes()).hexdigest()
        self._rows.append(row)
        self._completed += 1
        if self.bus is not None:
            self.bus.emit(EV.JOB_END, job=job.job_id, tenant=job.tenant,
                          latency_s=row["latency_s"],
                          queued_s=row["queued_s"],
                          service_s=row["service_s"])
        self._kick()


def run_service(tenants: _t.Sequence[Tenant],
                config: ServiceConfig | None = None,
                platform: PlatformSpec = PLATFORM1,
                sinks: _t.Sequence = (), faults=None,
                retry=None) -> ServiceResult:
    """Convenience wrapper: build and run one service simulation."""
    return SortService(tenants, config=config, platform=platform,
                       faults=faults, retry=retry).run(sinks=sinks)
