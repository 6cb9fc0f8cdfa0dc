"""Tests for the simulated CUDA runtime: allocation, copies, sorts,
stream ordering, and the semantic checks real CUDA enforces."""

import numpy as np
import pytest

from repro.cuda import MemcpyKind, PageableBuffer, Runtime
from repro.errors import CudaInvalidValue, CudaOutOfMemory
from repro.hw import Machine, PLATFORM1, PLATFORM2
from repro.sim import CAT
from repro.sim.engine import Environment


@pytest.fixture
def rt(env):
    return Runtime(Machine(env, PLATFORM1))


def drive(env, gen):
    proc = env.process(gen)
    env.run(proc)
    return proc.value


# ---------------------------------------------------------------------------
# Memory management
# ---------------------------------------------------------------------------

def test_malloc_accounts_device_memory(env, rt):
    buf = rt.malloc(1024, name="d")
    assert rt.machine.gpus[0].mem_used == 1024
    rt.free(buf)
    assert rt.machine.gpus[0].mem_used == 0


def test_malloc_oom(env, rt):
    with pytest.raises(CudaOutOfMemory):
        rt.malloc(rt.machine.gpus[0].spec.mem_bytes + 1)


def test_double_free_rejected(env, rt):
    buf = rt.malloc(1024)
    rt.free(buf)
    with pytest.raises(CudaInvalidValue):
        rt.free(buf)


def test_malloc_bad_device(env, rt):
    with pytest.raises(CudaInvalidValue):
        rt.malloc(8, gpu_index=3)


def test_malloc_host_costs_time(env, rt):
    buf = drive(env, rt.malloc_host(8_000_000, name="pinned"))
    assert env.now == pytest.approx(0.01, rel=0.02)   # Sec. IV-E anchor
    assert buf.kind == "pinned"
    assert rt.machine.pinned_bytes == 8_000_000
    rt.free_host(buf)
    assert rt.machine.pinned_bytes == 0


# ---------------------------------------------------------------------------
# Blocking copies
# ---------------------------------------------------------------------------

def test_blocking_memcpy_moves_data_htod_dtoh(env, rt):
    n = 100
    src = PageableBuffer.for_elements(
        n, data=np.arange(n, dtype=np.float64), name="A")
    dst = PageableBuffer.for_elements(n, data=np.zeros(n), name="B")
    dev = rt.malloc(n * 8, data=np.zeros(n), name="dev")

    def go():
        yield from rt.memcpy(dev, src, n * 8, MemcpyKind.HOST_TO_DEVICE)
        yield from rt.memcpy(dst, dev, n * 8, MemcpyKind.DEVICE_TO_HOST)

    drive(env, go())
    assert np.array_equal(dst.data, src.data)
    assert rt.trace.count(CAT.HTOD) == 1
    assert rt.trace.count(CAT.DTOH) == 1


def test_memcpy_direction_validation(env, rt):
    host = PageableBuffer.for_elements(10)
    dev = rt.malloc(80)

    def bad(*args):
        with pytest.raises(CudaInvalidValue):
            drive(env, rt.memcpy(*args))

    bad(host, host, 80, MemcpyKind.HOST_TO_DEVICE)   # no device side
    bad(dev, dev, 80, MemcpyKind.DEVICE_TO_HOST)     # no host side
    bad(dev, host, 80, MemcpyKind.HOST_TO_HOST)      # device in H2H
    bad(dev, host, 80, "bogus")


def test_memcpy_range_validation(env, rt):
    host = PageableBuffer.for_elements(10)
    dev = rt.malloc(40)
    with pytest.raises(CudaInvalidValue):
        drive(env, rt.memcpy(dev, host, 80, MemcpyKind.HOST_TO_DEVICE))


def test_host_to_host_memcpy(env, rt):
    a = PageableBuffer.for_elements(8, data=np.arange(8, dtype=np.float64))
    b = PageableBuffer.for_elements(8, data=np.zeros(8))
    drive(env, rt.memcpy(b, a, 64, MemcpyKind.HOST_TO_HOST))
    assert np.array_equal(a.data, b.data)
    assert rt.trace.count(CAT.MCPY) == 1


# ---------------------------------------------------------------------------
# Async copies and streams
# ---------------------------------------------------------------------------

def test_async_requires_pinned(env, rt):
    pageable = PageableBuffer.for_elements(10)
    dev = rt.malloc(80)
    stream = rt.create_stream()

    def go():
        yield from rt.memcpy_async(dev, pageable, 80,
                                   MemcpyKind.HOST_TO_DEVICE, stream)

    with pytest.raises(CudaInvalidValue, match="pinned"):
        drive(env, go())


def test_async_copy_overlaps_with_host(env, rt):
    """The host regains control after the call overhead, long before the
    copy completes."""
    nbytes = int(12e8)

    def go():
        pinned = yield from rt.malloc_host(nbytes)
        stream = rt.create_stream()
        dev = rt.malloc(nbytes)
        t0 = env.now
        ev = yield from rt.memcpy_async(dev, pinned, nbytes,
                                        MemcpyKind.HOST_TO_DEVICE, stream)
        host_back = env.now - t0
        yield ev
        total = env.now - t0
        return host_back, total

    host_back, total = drive(env, go())
    assert host_back < 1e-4            # call overhead only
    assert total == pytest.approx(nbytes / 12e9, rel=0.05)


def test_stream_serializes_in_order(env, rt):
    """Ops in one stream run back to back even when issued together."""
    nbytes = int(6e8)

    def go():
        pin1 = yield from rt.malloc_host(nbytes)
        pin2 = yield from rt.malloc_host(nbytes)
        stream = rt.create_stream()
        dev = rt.malloc(2 * nbytes)
        t0 = env.now
        rt_ev1 = yield from rt.memcpy_async(dev, pin1, nbytes,
                                            MemcpyKind.HOST_TO_DEVICE,
                                            stream)
        ev2 = yield from rt.memcpy_async(dev, pin2, nbytes,
                                         MemcpyKind.HOST_TO_DEVICE, stream,
                                         dst_off=nbytes)
        yield ev2
        return env.now - t0

    elapsed = drive(env, go())
    assert elapsed == pytest.approx(2 * 6e8 / 12e9, rel=0.05)


def test_streams_overlap_opposite_directions(env, rt):
    """HtoD in one stream overlaps DtoH in another (the PIPEDATA premise,
    Fig. 2)."""
    nbytes = int(6e8)

    def go():
        pin1 = yield from rt.malloc_host(nbytes)
        pin2 = yield from rt.malloc_host(nbytes)
        s1, s2 = rt.create_stream(), rt.create_stream()
        dev = rt.malloc(2 * nbytes)
        t0 = env.now
        e1 = yield from rt.memcpy_async(dev, pin1, nbytes,
                                        MemcpyKind.HOST_TO_DEVICE, s1)
        e2 = yield from rt.memcpy_async(pin2, dev, nbytes,
                                        MemcpyKind.DEVICE_TO_HOST, s2,
                                        src_off=nbytes)
        yield env.all_of([e1, e2])
        return env.now - t0

    elapsed = drive(env, go())
    serial = 2 * nbytes / 12e9
    assert elapsed < 0.75 * serial  # real overlap happened


def test_stream_device_mismatch_rejected():
    env = Environment()
    rt = Runtime(Machine(env, PLATFORM2, n_gpus=2))
    stream0 = rt.create_stream(0)
    dev1 = rt.malloc(80, gpu_index=1)

    def go():
        pinned = yield from rt.malloc_host(80)
        yield from rt.memcpy_async(dev1, pinned, 80,
                                   MemcpyKind.HOST_TO_DEVICE, stream0)

    with pytest.raises(CudaInvalidValue, match="stream"):
        proc = env.process(go())
        env.run(proc)


# ---------------------------------------------------------------------------
# Sorts
# ---------------------------------------------------------------------------

def test_sort_async_times_and_sorts(env, rt, rng):
    n = 1000
    data = rng.normal(size=n)
    dev = rt.malloc(n * 8, data=data.copy(), name="dev")
    stream = rt.create_stream()

    def go():
        ev = yield from rt.sort_async(dev, n, stream)
        yield ev

    drive(env, go())
    assert np.array_equal(dev.data, np.sort(data))
    assert env.now == pytest.approx(
        PLATFORM1.gpus[0].sort_seconds(n), rel=0.05)


def test_sort_wrong_device_stream(env):
    rt = Runtime(Machine(env, PLATFORM2, n_gpus=2))
    dev = rt.malloc(80, gpu_index=1)
    stream = rt.create_stream(0)

    def go():
        yield from rt.sort_async(dev, 10, stream)

    with pytest.raises(CudaInvalidValue):
        drive(env, go())


def test_custom_sort_kernel(env, rng):
    """The runtime accepts any in-place kernel (here a heapsort)."""
    rt = Runtime(Machine(env, PLATFORM1),
                 sort_kernel=lambda a: a.sort(kind="heapsort"))
    n = 256
    data = rng.normal(size=n)
    dev = rt.malloc(n * 8, data=data.copy())
    stream = rt.create_stream()

    def go():
        ev = yield from rt.sort_async(dev, n, stream)
        yield ev

    drive(env, go())
    assert np.array_equal(dev.data, np.sort(data))


def test_device_synchronize_waits_for_all_streams(env, rt):
    nbytes = int(6e8)

    def go():
        pin = yield from rt.malloc_host(2 * nbytes)
        dev = rt.malloc(2 * nbytes)
        s1, s2 = rt.create_stream(), rt.create_stream()
        yield from rt.memcpy_async(dev, pin, nbytes,
                                   MemcpyKind.HOST_TO_DEVICE, s1)
        yield from rt.memcpy_async(dev, pin, nbytes,
                                   MemcpyKind.HOST_TO_DEVICE, s2,
                                   dst_off=nbytes, src_off=nbytes)
        yield from rt.device_synchronize()
        return env.now

    t = drive(env, go())
    # Same direction, one copy engine: both copies done before sync ends.
    assert t >= 2 * nbytes / 12e9
    assert rt.machine.net.active_flows == 0
