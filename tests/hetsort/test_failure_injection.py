"""Failure-injection tests: the pipeline must fail loudly and precisely
when resources are exhausted or invariants are violated -- never produce
a wrong answer silently.

These cover *genuine* failures (capacity exhaustion, broken kernels, bad
inputs).  Deterministic *injected* faults and recovery live in
``tests/sim/test_faults.py`` and ``tests/hetsort/test_resilience.py``;
the FaultPlan-ported variants at the bottom of this file check that the
two worlds stay distinct: a genuine CudaOutOfMemory is never retried,
while an injected alloc fault of the same family is.
"""

import numpy as np
import pytest

from repro.cuda import Runtime
from repro.errors import (CudaInvalidValue, CudaOutOfMemory, PlanError,
                          ValidationError)
from repro.hetsort import HeterogeneousSorter, RetryPolicy
from repro.hetsort.config import SortConfig
from repro.hw.machine import Machine
from repro.hw.platforms import PLATFORM1
from repro.sim.faults import FaultPlan, FaultSpec
from repro.sim.trace import CAT


def test_batch_too_big_for_gpu_rejected_at_plan_time(shrunk_platform):
    tiny = shrunk_platform(gpu_mem_bytes=1024 * 1024)  # 1 MiB GPU
    s = HeterogeneousSorter(tiny, batch_size=10 ** 6)
    with pytest.raises(PlanError, match="global memory"):
        s.sort(n=10 ** 7)


def test_host_memory_exhausted_rejected_at_plan_time(shrunk_platform):
    tiny = shrunk_platform(host_bytes=1024 ** 2)
    s = HeterogeneousSorter(tiny, batch_size=1000)
    with pytest.raises(PlanError, match="3n"):
        s.sort(n=10 ** 6)


def test_pinned_exhaustion_raises_at_runtime(shrunk_platform):
    """Pinned staging buffers count against host capacity at allocation
    time (not plan time): exhausts mid-run with CudaOutOfMemory."""
    # Host that fits 3n but not also the pinned staging buffers.
    n = 10 ** 6
    host = 3 * n * 8 + 1000   # 3n plus almost nothing
    tiny = shrunk_platform(host_bytes=host)
    s = HeterogeneousSorter(tiny, batch_size=n // 4,
                            pinned_elements=n // 8)
    with pytest.raises(CudaOutOfMemory, match="pinned"):
        s.sort(n=n, approach="pipedata")


def test_genuine_oom_not_retried_even_with_retry_policy(shrunk_platform):
    """A *real* capacity exhaustion is not a transient fault: attaching a
    retry policy (via an empty FaultPlan) must not mask it or burn sim
    time on backoff -- the run still dies with CudaOutOfMemory."""
    n = 10 ** 6
    tiny = shrunk_platform(host_bytes=3 * n * 8 + 1000)
    s = HeterogeneousSorter(tiny, batch_size=n // 4,
                            pinned_elements=n // 8)
    with pytest.raises(CudaOutOfMemory, match="pinned"):
        s.sort(n=n, approach="pipedata", faults=FaultPlan(),
               retry=RetryPolicy(max_attempts=5))


def test_injected_alloc_faults_are_retried_transparently():
    """Injected pinned/device alloc faults of the same CudaOutOfMemory
    family ARE transient: the run recovers and completes with no
    degradation."""
    plan = FaultPlan(faults=(
        FaultSpec(kind="alloc.pinned", times=1),
        FaultSpec(kind="alloc.device", times=1),
    ))
    s = HeterogeneousSorter(PLATFORM1, batch_size=50_000,
                            pinned_elements=10_000)
    res = s.sort(n=200_000, approach="pipedata", faults=plan)
    assert res.meta["faults"]["fired"] == 2
    assert "degrades" not in res.meta
    assert res.trace.count(CAT.RETRY) == 2


def test_double_device_free_detected(env):
    rt = Runtime(Machine(env, PLATFORM1))
    buf = rt.malloc(1024)
    rt.free(buf)
    with pytest.raises(CudaInvalidValue):
        rt.free(buf)


def test_use_after_free_detected(env):
    from repro.cuda import MemcpyKind, PageableBuffer
    rt = Runtime(Machine(env, PLATFORM1))
    host = PageableBuffer.for_elements(10)
    dev = rt.malloc(80)
    rt.free(dev)

    def go():
        yield from rt.memcpy(dev, host, 80, MemcpyKind.HOST_TO_DEVICE)

    proc = env.process(go())
    with pytest.raises(CudaInvalidValue, match="freed"):
        env.run(proc)


def test_corrupted_output_caught_by_validation(rng, monkeypatch):
    """If a kernel were broken, sort() must raise, not return garbage."""
    import repro.hetsort.sorter as sorter_mod

    def broken_kernel(view):
        view[:] = view[::-1]   # "sorts" by reversing

    s = HeterogeneousSorter(PLATFORM1, batch_size=5_000,
                            pinned_elements=1_000)
    data = rng.random(20_000)

    real_runtime = sorter_mod.Runtime

    def patched_runtime(machine, sort_kernel=None):
        return real_runtime(machine, sort_kernel=broken_kernel)

    monkeypatch.setattr(sorter_mod, "Runtime", patched_runtime)
    with pytest.raises(ValidationError):
        s.sort(data, approach="pipemerge")


class KernelFault(ValidationError):
    """A sort kernel's own failure type (distinct from every validator
    error the sorter raises itself)."""


@pytest.mark.parametrize("approach", ["bline", "blinemulti", "pipedata",
                                      "pipemerge", "gpumerge"])
def test_failing_sort_kernel_reaches_caller(rng, monkeypatch, approach):
    """A kernel that raises must fail sort() with its own exception even
    with validation off -- not run on with unsorted buffers."""
    import repro.hetsort.sorter as sorter_mod

    def failing_kernel(view):
        raise KernelFault("sort kernel failed")

    real_runtime = sorter_mod.Runtime
    monkeypatch.setattr(
        sorter_mod, "Runtime",
        lambda machine, sort_kernel=None: real_runtime(
            machine, sort_kernel=failing_kernel))
    s = HeterogeneousSorter(
        PLATFORM1, batch_size=None if approach == "bline" else 5_000,
        pinned_elements=1_000)
    with pytest.raises(KernelFault, match="sort kernel failed"):
        s.sort(rng.random(20_000), approach=approach, validate=False)


def test_nan_input_rejected(rng):
    data = rng.random(10_000)
    data[1234] = np.nan
    s = HeterogeneousSorter(PLATFORM1, batch_size=5_000,
                            pinned_elements=1_000)
    with pytest.raises(ValidationError, match="NaN"):
        s.sort(data, approach="pipemerge")


def test_config_validation_happens_before_simulation():
    with pytest.raises(PlanError):
        SortConfig(approach="quantum")
    s = HeterogeneousSorter(PLATFORM1)
    with pytest.raises(PlanError):
        s.sort(n=100, approach="pipedata", n_streams=0)
