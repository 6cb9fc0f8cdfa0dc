"""One simulated run, from construction to teardown.

:class:`RunSession` is the only place that builds a run's
:class:`~repro.sim.engine.Environment`, :class:`~repro.hw.machine.Machine`,
memory and flow ledgers, fault injector and event bus, and the only
place that wires observers into the simulator.  The sorter, the
multi-tenant service and the CPU reference are thin callers: each builds
its own root process against ``session.env`` / ``session.machine`` and
hands it to :meth:`RunSession.run`.

Each simulator object keeps one observer hook and the session installs
it: ``.bus`` on the trace, machine, counter recorder, fault injector,
ledgers and run context; one ``probe`` per
:class:`~repro.sim.resources.Resource` / :class:`~repro.sim.resources.Store`
(counter samples, then the bus's ``queue`` event); and the bus's step
fan-out as an ordinary engine monitor.
"""

from __future__ import annotations

import typing as _t

from repro.hetsort.resilience import RetryPolicy
from repro.hw.machine import Machine
from repro.hw.spec import PlatformSpec
from repro.obs.events import EV, EventBus
from repro.obs.flows import FlowLedger
from repro.obs.memory import MemoryLedger
from repro.sim.engine import Environment
from repro.sim.faults import FaultInjector

__all__ = ["RunSession"]


class RunSession:
    """Build one run's simulator and observers; :meth:`run` drives it.

    ``sinks`` are :class:`~repro.obs.events.Sink` subscribers of the
    run's event bus (``bus`` is ``None`` without any).  ``faults`` is an
    optional :class:`~repro.sim.faults.FaultPlan`; it is injected under
    ``retry`` (default: the standard
    :class:`~repro.hetsort.resilience.RetryPolicy`).
    """

    def __init__(self, platform: PlatformSpec, n_gpus: int | None = None,
                 sinks: _t.Sequence = (), faults=None, retry=None) -> None:
        self.env = env = Environment()
        self.machine = Machine(env, platform, n_gpus=n_gpus)
        self.faults = faults
        self.retry = retry
        self.injector: FaultInjector | None = None
        self.bus: EventBus | None = None
        if sinks:
            self.bus = EventBus(clock=lambda: env.now)
            for sink in sinks:
                self.bus.attach(sink)

    def run(self, root: _t.Generator, name: str, start: dict | None = None,
            end: _t.Callable[[], dict] = dict, recorder=None,
            ctx=None) -> dict:
        """Run ``root`` as the process ``name`` to completion; returns
        the run's metadata (``{"faults": summary}`` once any injected
        fault fired, else ``{}``).

        The ledgers are built first, so the pinned pool's capacity is
        what host DRAM leaves after the caller's reservation.  ``start``
        and ``end()`` are the ``run.start`` / ``run.end`` payloads.
        ``recorder`` (a :class:`~repro.obs.counters.MetricsRecorder`) or
        ``ctx`` (a :class:`~repro.hetsort.context.RunContext`, whose
        ``obs`` is then the recorder) receive the machine's gauges;
        ``ctx`` also gets the bus for its phase events.
        """
        env, machine, bus = self.env, self.machine, self.bus
        capacities = {f"gpu{g.index}": g.spec.mem_bytes
                      for g in machine.gpus}
        capacities["pinned"] = (machine.platform.hostmem.capacity_bytes
                                - machine.host_reserved)
        machine.memory = MemoryLedger(clock=lambda: env.now,
                                      capacities=capacities)
        machine.net.ledger = FlowLedger(
            clock=lambda: env.now,
            capacities={lv.name: lv.capacity
                        for lv in machine.net.link_snapshot()})
        if self.faults is not None:
            self.injector = FaultInjector(self.faults).attach(machine)
            machine.retry = (self.retry if self.retry is not None
                             else RetryPolicy())
            self.injector.start(env)
        self._wire(ctx.obs if ctx is not None else recorder, ctx)
        if bus is not None:
            bus.emit(EV.RUN_START, **(start or {}))
        env.run(env.process(root, name=name))
        # Leak detection: every pool must balance back to zero by run
        # end, degraded runs included.
        machine.memory.check_balanced()
        if bus is not None:
            bus.emit(EV.RUN_END, **end())
            bus.close()
        injector = self.injector
        if injector is None or not injector.fired_total:
            return {}
        return {"faults": injector.summary()}

    def _wire(self, recorder, ctx) -> None:
        machine, bus = self.machine, self.bus
        machine.recorder = recorder
        cores_gauges = None
        if recorder is not None:
            in_use = recorder.gauge("cpu.cores.in_use")
            queue_depth = recorder.gauge("cpu.cores.queue_depth")

            def cores_gauges(res) -> None:
                in_use(res.in_use)
                queue_depth(res.queue_length)
        publish = _publish_resource(bus) if bus is not None else None
        machine.cores.probe = _hook(cores_gauges, publish)
        if ctx is not None:
            ctx.sorted_runs.probe = _hook(
                ctx.obs.probe("sorted_runs.pending", len),
                _publish_store(bus) if bus is not None else None)
        if bus is None:
            return
        self.env.add_monitor(bus._on_step)
        for gpu in machine.gpus:
            for engine in (gpu.kernel_engine, *gpu.copy_engines.values()):
                engine.probe = publish
        for observer in (machine, machine.trace, recorder, self.injector,
                         machine.memory, machine.net.ledger, ctx):
            if observer is not None:
                observer.bus = bus


def _hook(*steps):
    """One probe running each non-``None`` step in order."""
    steps = [s for s in steps if s is not None]
    if len(steps) < 2:
        return steps[0] if steps else None

    def hook(obj) -> None:
        for step in steps:
            step(obj)
    return hook


def _publish_resource(bus: EventBus):
    def publish(res) -> None:
        bus.emit(EV.QUEUE, name=res.name, depth=res.queue_length,
                 in_use=res.in_use, capacity=res.capacity)
    return publish


def _publish_store(bus: EventBus):
    def publish(store) -> None:
        bus.emit(EV.QUEUE, name=store.name, depth=len(store),
                 getters=store.getters_waiting)
    return publish
