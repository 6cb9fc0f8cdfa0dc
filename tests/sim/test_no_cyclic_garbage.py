"""Reference-cycle hygiene: a run leaves nothing for the cyclic collector.

A completed :class:`~repro.sim.bandwidth.Flow` is the value of its
completion :class:`~repro.sim.events.Event`, so a flow that still pointed
at its event would form one cycle per flow: refcounting could never free
it, and a paper-scale run (40k flows) would hand the cyclic GC tens of
thousands of objects per sort.  These tests run with the collector off
and ``DEBUG_SAVEALL`` on, so every object a final ``gc.collect()`` finds
unreachable lands in ``gc.garbage``.
"""

import gc
from collections import Counter

import pytest

from repro.hetsort import HeterogeneousSorter
from repro.hw.platforms import PLATFORM1
from repro.service import ServiceConfig, Tenant, run_service
from repro.sim.bandwidth import Flow
from repro.sim.events import Event


def _pipemerge_sort():
    sorter = HeterogeneousSorter(PLATFORM1, batch_size=25_000_000,
                                 pinned_elements=1_000_000)
    return sorter.sort(n=100_000_000, approach="pipemerge")


def _two_tenant_service():
    tenants = [Tenant("gold", priority=2, share=2.0, rate_hz=40.0, n_jobs=2,
                      n_elements=50_000, slo_s=0.5),
               Tenant("batch", priority=0, share=0.5, rate_hz=20.0,
                      n_jobs=2, n_elements=100_000)]
    return run_service(tenants, ServiceConfig(
        allocator="strict-priority", seed=3, functional=False,
        batch_size=20_000, pinned_elements=5_000))


@pytest.fixture
def saved_garbage():
    gc.collect()
    enabled = gc.isenabled()
    gc.disable()
    gc.set_debug(gc.DEBUG_SAVEALL)
    gc.garbage.clear()
    try:
        yield gc.garbage
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        if enabled:
            gc.enable()


@pytest.mark.parametrize("run", [_pipemerge_sort, _two_tenant_service],
                         ids=["pipemerge_sort", "two_tenant_service"])
def test_a_run_leaves_no_flow_or_event_cycles(saved_garbage, run):
    res = run()
    assert res.flow_ledger.n_flows > 0
    del res
    gc.collect()
    cyclic = Counter(type(o).__name__ for o in saved_garbage
                     if isinstance(o, (Flow, Event)))
    assert cyclic == Counter()
