"""Outside-in per-layer tracing of the ``repro`` public entry points.

:class:`LayerTracer` replaces each layer's entry point with a timing
wrapper for the duration of a ``with tracer.installed():`` block and puts
the originals back on exit.  The program itself is not edited: the
wrappers sit on the attributes the program looks up at call time (class
methods, and module globals at their call sites).

Self time comes from a nesting stack: every wrapped call pushes a frame,
and on return adds its duration to the enclosing frame's child time.  A
layer's self time is its duration minus the time its wrapped children
took, which stays right when one layer runs inside several others (the
allocator fill runs both inside ``FlowNetwork.transfer`` and on flow
wake-ups inside the engine loop).

Kernel times come from the program's own :mod:`repro.obs.profile` hooks;
the kernel call sites are wrapped only so that their time leaves the
engine's self time.
"""

from __future__ import annotations

import contextlib
import importlib
import time
import typing as _t

from repro.obs import profile

#: (module, attribute path, layer).  The attribute is looked up on the
#: module, then down the dotted path, and replaced where it lives.
ENTRY_POINTS: tuple[tuple[str, str, str], ...] = (
    ("repro.hetsort.sorter", "make_plan", "plan"),
    ("repro.service.service", "make_plan", "plan"),
    ("repro.sim.engine", "Environment.run", "engine"),
    ("repro.sim.trace", "Trace.record", "trace"),
    ("repro.sim.bandwidth", "FlowNetwork.transfer", "bandwidth"),
    ("repro.sim.allocators", "fill_component", "allocators"),
    ("repro.hetsort.sorter", "compute_metrics", "obs.compute_metrics"),
    ("repro.obs.flows", "FlowLedger.summary", "obs.flow_summary"),
    ("repro.obs.memory", "MemoryLedger.summary", "obs.memory"),
    ("repro.obs.memory", "MemoryLedger.check_balanced", "obs.memory"),
    ("repro.hetsort.sorter", "check_sorted_permutation", "validate"),
    ("repro.service.service", "check_sorted_permutation", "validate"),
    ("repro.service.service", "build_verdict", "service.verdict"),
    # The kernel call sites that PIPEMERGE reaches inside the engine loop.
    ("repro.kernels.radix", "sort_floats_inplace", "kernels"),
    ("repro.hetsort.workers", "merge_two", "kernels"),
    ("repro.hetsort.workers", "multiway_merge", "kernels.multiway"),
)

_MERGE_TWO = "mergepath.merge_two"


class LayerStats:
    __slots__ = ("calls", "total_s", "self_s")

    def __init__(self) -> None:
        self.calls = 0
        self.total_s = 0.0
        self.self_s = 0.0


class LayerTracer:
    """Per-layer call counts, total and self wall time, plus the few
    counts the layers' arguments and results carry (engine events,
    service jobs)."""

    def __init__(self) -> None:
        self.layers: dict[str, LayerStats] = {}
        self.kernels: dict[str, profile.KernelStats] = {}
        self.events = 0
        self.jobs = 0
        self.merge_two_in_multiway_s = 0.0
        self._stack: list[list[float]] = []

    def _account(self, layer: str, seconds: float, child_s: float) -> None:
        st = self.layers.get(layer)
        if st is None:
            st = self.layers[layer] = LayerStats()
        st.calls += 1
        st.total_s += seconds
        st.self_s += seconds - child_s
        if self._stack:
            self._stack[-1][0] += seconds

    def _wrap(self, fn: _t.Callable, layer: str) -> _t.Callable:
        stack = self._stack
        clock = time.perf_counter
        account = self._account

        if layer == "engine":
            def wrapper(env, *args, **kwargs):
                frame = [0.0]
                stack.append(frame)
                events0 = env.processed_events
                t0 = clock()
                try:
                    return fn(env, *args, **kwargs)
                finally:
                    dt = clock() - t0
                    stack.pop()
                    self.events += env.processed_events - events0
                    account(layer, dt, frame[0])
        elif layer == "kernels.multiway":
            # multiway_merge calls the profiled merge_two itself; remember
            # how much of merge_two's profile total ran inside it.
            def wrapper(*args, **kwargs):
                frame = [0.0]
                stack.append(frame)
                before = _merge_two_total()
                t0 = clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    dt = clock() - t0
                    stack.pop()
                    self.merge_two_in_multiway_s += (_merge_two_total()
                                                     - before)
                    account("kernels", dt, frame[0])
        else:
            def wrapper(*args, **kwargs):
                frame = [0.0]
                stack.append(frame)
                t0 = clock()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    dt = clock() - t0
                    stack.pop()
                    account(layer, dt, frame[0])
                if layer == "service.verdict":
                    self.jobs += result["n_jobs"]
                return result
        return wrapper

    @contextlib.contextmanager
    def installed(self):
        """Wrap every entry point and enable kernel profiling; restore the
        originals and disable profiling on exit, whatever happens."""
        saved: list[tuple[object, str, object]] = []
        profile.reset_profiling()
        profile.enable_profiling()
        try:
            for module, path, layer in ENTRY_POINTS:
                owner = importlib.import_module(module)
                *parents, attr = path.split(".")
                for name in parents:
                    owner = getattr(owner, name)
                original = owner.__dict__[attr]
                saved.append((owner, attr, original))
                setattr(owner, attr, self._wrap(original, layer))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)
            profile.disable_profiling()
            self.kernels = profile.snapshot()
            profile.reset_profiling()

    def metrics(self, wall_s: float) -> dict[str, float]:
        """The per-layer metrics of the traced operation(s)."""
        def st(layer: str) -> LayerStats:
            return self.layers.get(layer) or LayerStats()

        def kern(name: str) -> profile.KernelStats:
            return self.kernels.get(name) or profile.KernelStats(name)

        engine = st("engine")
        radix = kern("radix.sort_floats")
        merge_s = (kern("multiway.multiway_merge").total_s
                   + kern(_MERGE_TWO).total_s - self.merge_two_in_multiway_s)
        samplesort_s = kern("samplesort.sample_sort").total_s
        kernels_s = radix.total_s + merge_s + samplesort_s
        return {
            "plan.make_plan_calls": st("plan").calls,
            "plan.make_plan_s": st("plan").total_s,
            "engine.run_s": engine.total_s,
            "engine.self_s": engine.self_s,
            "engine.events": self.events,
            "engine.events_per_s": (self.events / engine.total_s
                                    if engine.total_s > 0 else 0.0),
            "trace.spans": st("trace").calls,
            "trace.record_s": st("trace").total_s,
            "bandwidth.transfers": st("bandwidth").calls,
            "bandwidth.transfer_s": st("bandwidth").total_s,
            "allocators.fill_calls": st("allocators").calls,
            "allocators.fill_s": st("allocators").total_s,
            "obs.compute_metrics_s": st("obs.compute_metrics").total_s,
            "obs.flow_summary_s": st("obs.flow_summary").total_s,
            "obs.memory_s": st("obs.memory").total_s,
            "kernels.radix_calls": radix.calls,
            "kernels.radix_s": radix.total_s,
            "kernels.radix_keys_per_s": radix.elements_per_s,
            "kernels.merge_s": merge_s,
            "kernels.samplesort_s": samplesort_s,
            "kernels.op_share": kernels_s / wall_s if wall_s > 0 else 0.0,
            "validate.check_s": st("validate").total_s,
            "service.jobs": self.jobs,
            "service.verdict_s": st("service.verdict").total_s,
        }


def _merge_two_total() -> float:
    stats = profile.profiling_stats().get(_MERGE_TWO)
    return stats.total_s if stats is not None else 0.0


@contextlib.contextmanager
def capture_environments():
    """Collect every simulation ``Environment`` built inside the block, so
    an untraced operation's engine event count can be read afterwards.
    Costs one extra call per environment, none per event."""
    from repro.sim.engine import Environment

    envs: list = []
    original = Environment.__dict__["__init__"]

    def init(env, *args, **kwargs):
        original(env, *args, **kwargs)
        envs.append(env)

    Environment.__init__ = init
    try:
        yield envs
    finally:
        Environment.__init__ = original
