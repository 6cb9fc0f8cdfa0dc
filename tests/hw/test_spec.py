"""Tests for the hardware/cost-model dataclasses and their validation."""

import pytest

from repro.errors import CalibrationError
from repro.hw.platforms import PLATFORM1
from repro.hw.spec import (GIB, CPUSpec, GPUSpec, HostMemSpec,
                           MergeCostModel, PCIeSpec, PlatformSpec,
                           RuntimeCosts, SortCostModel)


def test_cpu_cores():
    cpu = CPUSpec("test", sockets=2, cores_per_socket=8, clock_ghz=2.0)
    assert cpu.cores == 16


def test_gpu_sort_seconds_affine():
    g = GPUSpec("g", 1000, GIB, sort_rate_f64=1e9, sort_overhead_s=0.01)
    assert g.sort_seconds(0) == 0.0
    assert g.sort_seconds(int(1e9)) == pytest.approx(1.01)


def test_pcie_flow_caps():
    p = PCIeSpec(peak_bw=16e9, pinned_efficiency=0.75,
                 pageable_efficiency=0.375)
    assert p.flow_cap(True) == pytest.approx(12e9)
    assert p.flow_cap(False) == pytest.approx(6e9)


def test_hostmem_pinned_alloc_affine():
    hm = HostMemSpec(capacity_bytes=GIB, copy_bus_bw=20e9,
                     per_core_copy_bw=10e9,
                     pinned_alloc_fixed_s=0.005,
                     pinned_alloc_per_byte_s=1e-9)
    assert hm.pinned_alloc_seconds(0) == pytest.approx(0.005)
    assert hm.pinned_alloc_seconds(1e6) == pytest.approx(0.005 + 1e-3)


def test_sort_cost_model_validation():
    with pytest.raises(CalibrationError):
        SortCostModel("bad", c_nlogn=-1.0)
    with pytest.raises(CalibrationError):
        SortCostModel("bad", c_nlogn=1e-9, serial_fraction=1.0)


def test_sort_cost_model_times():
    m = SortCostModel("m", c_nlogn=1e-9, serial_fraction=0.0,
                      spawn_overhead_s=0.0, max_threads=8)
    assert m.seq_seconds(0) == 0.0
    assert m.seq_seconds(1) == 0.0
    n = 1 << 20
    assert m.seq_seconds(n) == pytest.approx(1e-9 * n * 20)
    # Thread counts beyond max_threads are clamped.
    assert m.seconds(n, 64) == pytest.approx(m.seconds(n, 8))


def test_merge_cost_model_times():
    m = MergeCostModel(per_core_rate=1e8, serial_fraction=0.0,
                       spawn_overhead_s=0.0, multiway_alpha=1.0)
    n = int(1e8)
    assert m.seconds(n, 1, k=2) == pytest.approx(1.0)
    assert m.seconds(n, 2, k=2) == pytest.approx(0.5)
    # k = 4 doubles the per-element cost at alpha = 1 (log2(4)-1 = 1).
    assert m.seconds(n, 1, k=4) == pytest.approx(2.0)
    assert m.seconds(0, 4) == 0.0


def test_merge_flow_quantities_consistent():
    """flow_bytes / flow_cap must equal seconds() minus spawn overhead,
    whatever k is -- the flow-based and time-based views must agree."""
    m = MergeCostModel(per_core_rate=1.43e8, serial_fraction=0.0644,
                       spawn_overhead_s=0.0, multiway_alpha=0.9)
    n = int(5e8)
    for k in (2, 3, 10):
        for t in (1, 8, 16):
            t_flow = m.flow_bytes(n, k) / m.flow_cap(t, k)
            assert t_flow == pytest.approx(m.seconds(n, t, k), rel=1e-9)


def test_platform_spec_validation():
    cpu = CPUSpec("c", 1, 4, 2.0)
    gpu = GPUSpec("g", 100, GIB, 1e9)
    pcie = PCIeSpec(16e9)
    hm = HostMemSpec(GIB, 20e9, 10e9, 0.01, 1e-10)
    merge = MergeCostModel(1e8, 0.05)
    with pytest.raises(CalibrationError, match="at least one GPU"):
        PlatformSpec("p", cpu, (), pcie, hm, RuntimeCosts(), {}, merge, 4)
    with pytest.raises(CalibrationError, match="exceeds physical"):
        PlatformSpec("p", cpu, (gpu,), pcie, hm, RuntimeCosts(), {},
                     merge, reference_threads=8)


def test_platform_unknown_sort_library():
    with pytest.raises(CalibrationError, match="unknown CPU sort"):
        PLATFORM1.sort_model("nope")


@pytest.mark.parametrize("name", ["std", "qsort"])
def test_sequential_sort_models_ignore_threads(name):
    model = PLATFORM1.sort_model(name)
    n = 10 ** 7
    assert model.seconds(n, 16) == model.seconds(n, 1)


def test_qsort_model_twice_std():
    """Fig. 4: comparator callbacks make ``qsort`` ~2x ``std::sort``."""
    qsort, std = (PLATFORM1.sort_model(name).seconds(10 ** 8)
                  for name in ("qsort", "std"))
    assert qsort / std == pytest.approx(2.0, rel=0.01)


def test_merge_cost_models():
    n = 10 ** 9
    t2 = PLATFORM1.merge.seconds(n, threads=16, k=2)
    t8 = PLATFORM1.merge.seconds(n, threads=16, k=8)
    assert t8 > t2  # k-way costs more per element
