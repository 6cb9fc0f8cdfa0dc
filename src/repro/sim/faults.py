"""Deterministic, seed-driven fault injection for the simulator.

The paper's pipelines assume PCIe transfers, pinned allocations and GPU
sorts never fail; at datacentre scale transient device faults and memory
pressure are the common case.  This module supplies the *scheduling* half
of the resilience story (recovery policies live in
:mod:`repro.hetsort.resilience`):

* :class:`FaultSpec` / :class:`FaultPlan` -- pure data, JSON-serialisable
  and byte-stable (like the sweep ledger), describing typed faults:

  ========================  =================================================
  kind                      effect
  ========================  =================================================
  ``pcie.transient``        a matching DMA transfer fails before the engine
                            engages (retryable)
  ``alloc.pinned``          a ``cudaMallocHost`` call fails (retryable)
  ``alloc.device``          a ``cudaMalloc`` call fails (retryable)
  ``gpu.lost``              the device dies permanently at ``at_s``
  ``bandwidth.degrade``     a link's capacity is scaled by ``factor`` over
                            ``[at_s, at_s + duration_s]`` (overlapping
                            windows: the latest opened one still open wins)
  ========================  =================================================

* :class:`FaultInjector` -- the stateful runtime: op-ordinal matching for
  the transient kinds (hooks called from
  :meth:`repro.hw.machine.Machine.pcie_transfer` /
  :meth:`~repro.hw.machine.Machine.pinned_alloc` /
  :meth:`repro.cuda.runtime.Runtime.malloc`) and timed processes for
  device loss and bandwidth windows.  Every fired fault is published as a
  ``fault.injected`` event when a telemetry bus is attached.

**Determinism.**  A plan is pure data; the injector's matching counters
and timed processes are driven entirely by the deterministic simulation,
so the same plan over the same run produces byte-identical traces and
event logs.  An *empty* plan schedules nothing and matches nothing: runs
with one attached are byte-identical to runs without.
"""

from __future__ import annotations

import json
import math
import typing as _t
from dataclasses import dataclass, fields

from repro.errors import FaultPlanError
from repro.obs.events import EV
from repro.schema import is_int, is_number, read_json

if _t.TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.engine import Environment

__all__ = ["FaultKind", "FaultSpec", "FaultPlan", "FaultInjector",
           "FAULTS_SCHEMA"]

#: Schema identifier of serialised fault plans.
FAULTS_SCHEMA = "repro.faults/v1"


class FaultKind:
    """Canonical fault kinds."""

    TRANSFER = "pcie.transient"       #: transient DMA transfer failure
    PINNED_ALLOC = "alloc.pinned"     #: transient cudaMallocHost failure
    DEVICE_ALLOC = "alloc.device"     #: transient cudaMalloc failure
    GPU_LOST = "gpu.lost"             #: permanent device loss at ``at_s``
    BANDWIDTH = "bandwidth.degrade"   #: link capacity window

    ALL = (TRANSFER, PINNED_ALLOC, DEVICE_ALLOC, GPU_LOST, BANDWIDTH)
    #: Kinds matched against operation ordinals (the ``after`` / ``times``
    #: counters); the rest are scheduled at a simulated time.
    COUNTED = (TRANSFER, PINNED_ALLOC, DEVICE_ALLOC)
    #: Link names a bandwidth window may target.
    LINKS = ("host_bus", "pcie.htod", "pcie.dtoh")


@dataclass(frozen=True)
class FaultSpec:
    """One scheduled fault (pure data).

    For the counted kinds, ``after`` matching operations pass unharmed,
    then the next ``times`` matching operations -- retried attempts
    included -- each draw a failure.  ``gpu`` / ``direction`` narrow the
    match (``None`` matches any); only ``pcie.transient`` takes a
    ``direction``, and ``alloc.pinned`` takes no ``gpu``, because no
    hook could match them.  ``gpu.lost`` kills device ``gpu`` at
    ``at_s``; ``bandwidth.degrade`` scales ``link``'s capacity by
    ``factor`` for ``duration_s`` seconds starting at ``at_s``.
    """

    kind: str
    gpu: int | None = None
    direction: str | None = None
    after: int = 0
    times: int = 1
    at_s: float = 0.0
    duration_s: float = 0.0
    link: str | None = None
    factor: float = 1.0

    def __post_init__(self) -> None:
        if self.kind not in FaultKind.ALL:
            raise FaultPlanError(f"unknown fault kind {self.kind!r}")
        allowed = ("HtoD", "DtoH") if self.kind == FaultKind.TRANSFER else ()
        if self.direction not in (None, *allowed):
            raise FaultPlanError(
                f"{self.kind} cannot take direction {self.direction!r}")
        if self.gpu is not None and self.kind == FaultKind.PINNED_ALLOC:
            raise FaultPlanError(
                f"alloc.pinned cannot take a gpu, got {self.gpu!r}")
        if not (is_int(self.after) and is_int(self.times)
                and self.after >= 0 and self.times >= 1):
            raise FaultPlanError(
                f"need integer after >= 0 and times >= 1 "
                f"(got after={self.after!r}, times={self.times!r})")
        if self.gpu is not None and not (is_int(self.gpu)
                                         and self.gpu >= 0):
            raise FaultPlanError(
                f"gpu must be an integer index >= 0, got {self.gpu!r}")
        for name in ("at_s", "duration_s", "factor"):
            value = getattr(self, name)
            if not (is_number(value) and math.isfinite(value)):
                raise FaultPlanError(
                    f"{name} must be a finite number, got {value!r}")
        if self.at_s < 0 or self.duration_s < 0:
            raise FaultPlanError("fault times must be >= 0")
        if self.kind == FaultKind.GPU_LOST and self.gpu is None:
            raise FaultPlanError("gpu.lost needs an explicit gpu index")
        if self.kind == FaultKind.BANDWIDTH:
            if self.link not in FaultKind.LINKS:
                raise FaultPlanError(
                    f"bandwidth.degrade needs link in {FaultKind.LINKS}, "
                    f"got {self.link!r}")
            if not 0 < self.factor <= 1:
                raise FaultPlanError(
                    f"bandwidth factor must be in (0, 1], got {self.factor}")
            if self.duration_s <= 0:
                raise FaultPlanError("bandwidth window needs duration_s > 0")

    def to_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @classmethod
    def from_dict(cls, doc: dict) -> "FaultSpec":
        if not isinstance(doc, dict):
            raise FaultPlanError(f"each fault must be an object, "
                                 f"got {type(doc).__name__}")
        known = {f.name for f in fields(cls)}
        unknown = set(doc) - known
        if unknown:
            raise FaultPlanError(
                f"unknown FaultSpec field(s) {sorted(unknown)}")
        if "kind" not in doc:
            raise FaultPlanError("FaultSpec needs a 'kind'")
        return cls(**doc)


@dataclass(frozen=True)
class FaultPlan:
    """An ordered collection of :class:`FaultSpec` s (pure data).

    Byte-stable: :meth:`to_json` emits canonical JSON (sorted keys,
    fixed separators), so equal plans serialise identically.
    """

    faults: tuple[FaultSpec, ...] = ()
    seed: int | None = None

    @property
    def empty(self) -> bool:
        return not self.faults

    # -- serialisation ------------------------------------------------------

    def to_dict(self) -> dict:
        doc: dict = {"schema": FAULTS_SCHEMA,
                     "faults": [f.to_dict() for f in self.faults]}
        if self.seed is not None:
            doc["seed"] = self.seed
        return doc

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True,
                          separators=(",", ":"))

    def save(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.to_json() + "\n")

    @classmethod
    def from_dict(cls, doc: dict) -> "FaultPlan":
        if not isinstance(doc, dict):
            raise FaultPlanError(f"fault plan must be an object, "
                                 f"got {type(doc).__name__}")
        schema = doc.get("schema")
        if schema != FAULTS_SCHEMA:
            raise FaultPlanError(
                f"unknown fault-plan schema {schema!r} "
                f"(expected {FAULTS_SCHEMA!r})")
        raw = doc.get("faults", [])
        if not isinstance(raw, list):
            raise FaultPlanError("'faults' must be a list")
        faults = tuple(FaultSpec.from_dict(f) for f in raw)
        seed = doc.get("seed")
        if seed is not None and not is_int(seed):
            raise FaultPlanError(f"seed must be an integer, got {seed!r}")
        return cls(faults=faults, seed=seed)

    @classmethod
    def load(cls, path) -> "FaultPlan":
        return cls.from_dict(read_json(path, FaultPlanError, "fault plan"))

    # -- generation ---------------------------------------------------------

    @classmethod
    def random(cls, seed: int, *, n_gpus: int = 1, horizon_s: float = 0.05,
               max_faults: int = 4, allow_gpu_loss: bool = True,
               allow_bandwidth: bool = True) -> "FaultPlan":
        """A deterministic, seed-driven random plan (the chaos battery).

        ``horizon_s`` bounds the timed faults: device deaths land in the
        first half of the horizon (so they hit mid-run), bandwidth
        windows anywhere inside it.  Transfer faults dominate the mix --
        the staging path is the fragile, bandwidth-bound one.
        """
        import numpy as np

        if max_faults < 1:
            raise FaultPlanError(f"max_faults must be >= 1, got {max_faults}")
        if horizon_s <= 0:
            raise FaultPlanError(f"horizon_s must be > 0, got {horizon_s}")
        rng = np.random.default_rng(seed)
        kinds = [FaultKind.TRANSFER, FaultKind.PINNED_ALLOC,
                 FaultKind.DEVICE_ALLOC]
        weights = [0.5, 0.15, 0.1]
        if allow_gpu_loss and n_gpus > 1:
            # Only kill a device when survivors exist to replan onto.
            kinds.append(FaultKind.GPU_LOST)
            weights.append(0.1)
        if allow_bandwidth:
            kinds.append(FaultKind.BANDWIDTH)
            weights.append(0.15)
        p = np.asarray(weights) / sum(weights)

        specs: list[FaultSpec] = []
        for _ in range(int(rng.integers(1, max_faults + 1))):
            kind = kinds[int(rng.choice(len(kinds), p=p))]
            if kind == FaultKind.GPU_LOST:
                specs.append(FaultSpec(
                    kind=kind, gpu=int(rng.integers(0, n_gpus)),
                    at_s=round(float(rng.uniform(0, horizon_s / 2)), 9)))
            elif kind == FaultKind.BANDWIDTH:
                specs.append(FaultSpec(
                    kind=kind,
                    link=FaultKind.LINKS[int(rng.integers(0, 3))],
                    at_s=round(float(rng.uniform(0, horizon_s)), 9),
                    duration_s=round(
                        float(rng.uniform(horizon_s / 10, horizon_s / 2)), 9),
                    factor=round(float(rng.uniform(0.05, 0.6)), 9)))
            else:
                gpu = (int(rng.integers(0, n_gpus))
                       if rng.random() < 0.5 else None)
                if kind == FaultKind.PINNED_ALLOC:
                    gpu = None      # drawn above to keep the RNG stream
                direction = None
                if kind == FaultKind.TRANSFER and rng.random() < 0.67:
                    direction = ("HtoD", "DtoH")[int(rng.integers(0, 2))]
                specs.append(FaultSpec(
                    kind=kind, gpu=gpu, direction=direction,
                    after=int(rng.integers(0, 8)),
                    times=int(rng.integers(1, 6))))
        return cls(faults=tuple(specs), seed=int(seed))


class _Counter:
    """Match state of one counted spec: ops seen, failures delivered."""

    __slots__ = ("spec", "seen", "used")

    def __init__(self, spec: FaultSpec) -> None:
        self.spec = spec
        self.seen = 0
        self.used = 0


class FaultInjector:
    """Stateful runtime of one :class:`FaultPlan` over one machine.

    Hooks (``on_transfer`` / ``on_pinned_alloc`` / ``on_device_alloc``)
    are called by the instrumented operations and return the spec whose
    failure the operation must observe, or ``None``.  :meth:`start`
    schedules the timed kinds (device loss, bandwidth windows) as
    simulation processes -- an empty plan schedules nothing, which is
    what keeps no-fault runs byte-identical.
    """

    def __init__(self, plan: FaultPlan) -> None:
        self.plan = plan
        self.machine = None
        #: Optional telemetry bus (set by the run session); fired
        #: faults are published as ``fault.injected`` events.
        self.bus = None
        self.counts: dict[str, int] = {}
        self.fired: list[dict] = []
        self._counters = [_Counter(s) for s in plan.faults
                          if s.kind in FaultKind.COUNTED]
        #: Per link: its capacity before any window opened, and the
        #: factors of its open windows in the order they opened.
        self._nominal: dict[str, float] = {}
        self._windows: dict[str, dict[object, float]] = {}

    # -- lifecycle -----------------------------------------------------------

    def attach(self, machine) -> "FaultInjector":
        """Bind to a machine: the machine's instrumented primitives will
        call this injector's hooks.  Returns ``self`` for chaining."""
        self.machine = machine
        machine.faults = self
        return self

    def start(self, env: "Environment") -> None:
        """Schedule the timed faults (no-op for plans without any)."""
        if self.machine is None:
            raise FaultPlanError("attach() the injector before start()")
        n_gpus = len(self.machine.gpus)
        for spec in self.plan.faults:
            if spec.kind == FaultKind.GPU_LOST:
                if spec.gpu < n_gpus:
                    env.process(self._gpu_loss(env, spec),
                                name=f"fault.gpu_lost.{spec.gpu}")
            elif spec.kind == FaultKind.BANDWIDTH:
                env.process(self._bandwidth_window(env, spec),
                            name=f"fault.bandwidth.{spec.link}")

    # -- hooks (counted kinds) ----------------------------------------------

    def on_transfer(self, gpu_index: int, direction: str
                    ) -> FaultSpec | None:
        """One DMA transfer attempt on ``gpu_index`` in ``direction``."""
        return self._match(FaultKind.TRANSFER, gpu_index, direction)

    def on_pinned_alloc(self) -> FaultSpec | None:
        """One ``cudaMallocHost`` attempt."""
        return self._match(FaultKind.PINNED_ALLOC, None, None)

    def on_device_alloc(self, gpu_index: int) -> FaultSpec | None:
        """One ``cudaMalloc`` attempt on ``gpu_index``."""
        return self._match(FaultKind.DEVICE_ALLOC, gpu_index, None)

    def _match(self, kind: str, gpu_index: int | None,
               direction: str | None) -> FaultSpec | None:
        for counter in self._counters:
            spec = counter.spec
            if spec.kind != kind:
                continue
            if spec.gpu is not None and spec.gpu != gpu_index:
                continue
            if spec.direction is not None and spec.direction != direction:
                continue
            counter.seen += 1
            if counter.seen > spec.after and counter.used < spec.times:
                counter.used += 1
                self._fire(spec, gpu=gpu_index, direction=direction,
                           op=counter.seen)
                return spec
        return None

    # -- timed kinds ---------------------------------------------------------

    def _gpu_loss(self, env: "Environment", spec: FaultSpec):
        if spec.at_s > 0:
            yield env.timeout(spec.at_s)
        gpu = self.machine.gpus[spec.gpu]
        if not gpu.lost:
            gpu.mark_lost()
            self._fire(spec, gpu=spec.gpu, at_s=spec.at_s)

    def _bandwidth_window(self, env: "Environment", spec: FaultSpec):
        links = {"host_bus": self.machine.host_bus,
                 "pcie.htod": self.machine.pcie["HtoD"],
                 "pcie.dtoh": self.machine.pcie["DtoH"]}
        link = links[spec.link]
        if spec.at_s > 0:
            yield env.timeout(spec.at_s)
        nominal = self._nominal.setdefault(spec.link, link.capacity)
        windows = self._windows.setdefault(spec.link, {})
        window = object()
        windows[window] = spec.factor
        self.machine.net.set_capacity(link, nominal * spec.factor)
        self._fire(spec, link=spec.link, factor=spec.factor,
                   duration_s=spec.duration_s)
        yield env.timeout(spec.duration_s)
        # Overlapping windows on one link are last-writer-wins: the most
        # recently opened window still open sets the capacity, and the
        # link is back at nominal once none is.
        del windows[window]
        factor = next(reversed(windows.values()), None)
        self.machine.net.set_capacity(
            link, nominal if factor is None else nominal * factor)

    # -- accounting ----------------------------------------------------------

    def _fire(self, spec: FaultSpec, **data) -> None:
        self.counts[spec.kind] = self.counts.get(spec.kind, 0) + 1
        record = {"kind": spec.kind}
        record.update((k, v) for k, v in data.items() if v is not None)
        self.fired.append(record)
        if self.bus is not None:
            self.bus.emit(EV.FAULT, **record)

    @property
    def fired_total(self) -> int:
        return len(self.fired)

    def summary(self) -> dict:
        """Deterministic counts of fired faults (for run metadata)."""
        return {"fired": self.fired_total,
                "by_kind": {k: self.counts[k] for k in sorted(self.counts)}}
