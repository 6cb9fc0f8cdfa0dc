"""CUDA streams: in-order work queues per device.

A :class:`Stream` preserves the two semantics the paper's pipelining
optimisations rely on (Sec. III-D2):

* operations submitted to *one* stream execute in submission order;
* operations in *different* streams may overlap (subject to the device's
  copy/kernel engines and PCIe bandwidth, which the hardware layer models).
"""

from __future__ import annotations

import typing as _t

from repro.errors import ReproError
from repro.sim import CAT
from repro.sim.engine import Environment, Process

__all__ = ["Stream"]


class Stream:
    """An in-order queue of asynchronous operations on one GPU."""

    def __init__(self, env: Environment, gpu_index: int, index: int,
                 trace=None, sync_cost_s: float = 0.0) -> None:
        self.env = env
        self.gpu_index = gpu_index
        self.index = index
        self.name = f"stream{index}@gpu{gpu_index}"
        self._sync_label = f"sync:{self.name}"
        self._tail: Process | None = None
        #: First failure since the last :meth:`synchronize` reported one
        #: (CUDA's sticky stream error).
        self._error: ReproError | None = None
        self._trace = trace
        self._sync_cost_s = sync_cost_s
        self.ops_submitted = 0
        #: Process name of each submitted op, by label.
        self._op_names: dict[str, str] = {}
        #: Causal tracing: the span id of the most recently *completed*
        #: operation on this stream.  The next op records it as a
        #: dependency, materialising the in-stream submission order as
        #: edges of the span DAG.
        self.last_span = None

    def submit(self, factory: _t.Callable[[], _t.Generator],
               label: str = "op") -> Process:
        """Enqueue an operation; returns its completion event, which is
        the operation's own :class:`~repro.sim.engine.Process`.

        ``factory`` produces the operation's process generator; it starts
        only after every previously submitted operation has completed.
        The completion event carries the factory's return value (the
        recorded span id for runtime-issued copies and kernels), and
        :attr:`last_span` is updated with it.

        A failing operation fails its completion event instead: the
        error is delivered to whoever waits on it, and the stream keeps
        it as its sticky error until the next :meth:`synchronize`
        reports it -- also when later ops succeed and become the tail.
        The event is defused so a fire-and-forget op cannot abort the
        whole simulation, and a failed predecessor does *not* poison
        later submissions -- they start once it settles, preserving
        in-order timing, and succeed or fail on their own (the recovery
        layer re-uses streams after a fallback).
        """
        prev = self._tail

        def runner():
            if prev is not None and not prev.processed:
                try:
                    yield prev
                except ReproError:
                    pass
            return (yield from factory())

        name = self._op_names.get(label)
        if name is None:
            name = self._op_names[label] = f"{self.name}:{label}"
        op = self.env.process(runner(), name=name)
        # The first callback, so it runs before any waiter resumes.
        op.callbacks.append(self._settle)  # type: ignore[union-attr]
        self._tail = op
        self.ops_submitted += 1
        return op

    def _settle(self, op: Process) -> None:
        """Completion callback: record the op's span, or keep its
        failure as the sticky error and defuse it."""
        if op._ok:
            if op._value is not None:
                self.last_span = op._value
        elif isinstance(op._value, ReproError):
            if self._error is None:
                self._error = op._value
            op._defused = True

    def synchronize(self, deps: _t.Sequence = ()):
        """Process: block the calling host thread until the stream drains
        (``cudaStreamSynchronize``), charging the per-call overhead that the
        related work's end-to-end accounting omits (Sec. IV-E).

        Returns the recorded Sync span's id (``None`` when the platform models
        the call as free).  The span depends on the stream op it waited
        for plus any explicit ``deps`` (host program order).

        The first op failure since the last report raises here, once --
        also when the failure settled before the synchronize was issued,
        and when later ops succeeded (CUDA's "sticky stream error"
        surfacing at the next sync)."""
        tail = self._tail
        if tail is not None and not tail.processed:
            try:
                yield tail
            except ReproError:
                pass    # recorded as the sticky error below
        if self._error is not None:
            exc, self._error = self._error, None
            raise exc
        if self._sync_cost_s > 0:
            start = self.env._now
            yield self.env.timeout(self._sync_cost_s)
            if self._trace is not None:
                # Trace.record drops None deps.
                return self._trace.record(CAT.SYNC, self._sync_label,
                                          start, self.env._now,
                                          lane=self.name,
                                          deps=(*deps, self.last_span))
        return None

    @property
    def idle(self) -> bool:
        """True when no submitted operation is still pending."""
        return self._tail is None or self._tail.processed
