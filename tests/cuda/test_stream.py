"""Tests for CUDA stream ordering semantics in isolation."""

import pytest

from repro.cuda.stream import Stream
from repro.errors import ReproError
from repro.sim import CAT, Trace


def test_ops_run_in_submission_order(env):
    s = Stream(env, 0, 0)
    log = []

    def op(name, dur):
        def gen():
            yield env.timeout(dur)
            log.append((name, env.now))
        return gen

    s.submit(op("a", 2.0))
    s.submit(op("b", 1.0))
    s.submit(op("c", 1.0))
    env.run()
    assert log == [("a", 2.0), ("b", 3.0), ("c", 4.0)]


def test_submit_returns_completion_event(env):
    s = Stream(env, 0, 0)

    def op():
        yield env.timeout(1.5)

    ev = s.submit(op)
    env.run()
    assert ev.processed


def test_idle_tracking(env):
    s = Stream(env, 0, 0)
    assert s.idle

    def op():
        yield env.timeout(1.0)

    s.submit(op)
    assert not s.idle
    env.run()
    assert s.idle


def test_synchronize_waits_and_charges_overhead(env):
    trace = Trace()
    s = Stream(env, 0, 0, trace=trace, sync_cost_s=0.001)

    def op():
        yield env.timeout(1.0)

    def host():
        s.submit(op)
        yield from s.synchronize()
        return env.now

    proc = env.process(host())
    env.run(proc)
    assert proc.value == pytest.approx(1.001)
    assert trace.total(CAT.SYNC) == pytest.approx(0.001)


def test_synchronize_on_idle_stream_only_costs_overhead(env):
    s = Stream(env, 0, 0, sync_cost_s=0.002)

    def host():
        yield from s.synchronize()
        return env.now

    proc = env.process(host())
    env.run(proc)
    assert proc.value == pytest.approx(0.002)


def test_two_streams_independent(env):
    s1 = Stream(env, 0, 0)
    s2 = Stream(env, 0, 1)
    log = []

    def op(name, dur):
        def gen():
            yield env.timeout(dur)
            log.append((name, env.now))
        return gen

    s1.submit(op("s1a", 2.0))
    s2.submit(op("s2a", 1.0))
    env.run()
    # Different streams: no mutual ordering.
    assert ("s2a", 1.0) in log and ("s1a", 2.0) in log


def test_ops_submitted_counter(env):
    s = Stream(env, 0, 0)

    def op():
        yield env.timeout(0.1)

    s.submit(op)
    s.submit(op)
    assert s.ops_submitted == 2


def test_failure_is_sticky_until_next_synchronize(env):
    """A failed op followed by a successful one (the new tail) still
    surfaces at the next synchronize -- exactly once."""
    s = Stream(env, 0, 0)

    def failing():
        yield env.timeout(1.0)
        raise ReproError("kernel fault")

    def ok():
        yield env.timeout(1.0)

    outcomes = []

    def host():
        s.submit(failing)
        s.submit(ok)
        for _ in range(2):
            try:
                yield from s.synchronize()
                outcomes.append("ok")
            except ReproError as exc:
                outcomes.append(str(exc))

    env.run(env.process(host()))
    assert outcomes == ["kernel fault", "ok"]


def test_settled_failure_surfaces_at_later_synchronize(env):
    s = Stream(env, 0, 0)

    def failing():
        yield env.timeout(1.0)
        raise ReproError("copy fault")

    def ok():
        yield env.timeout(1.0)

    def host():
        s.submit(failing)
        s.submit(ok)
        yield env.timeout(5.0)          # both ops settle first
        yield from s.synchronize()

    proc = env.process(host())
    with pytest.raises(ReproError, match="copy fault"):
        env.run(proc)


def test_submit_returns_the_ops_own_process(env):
    """The op's Process is its completion event: one event per op, no
    separate done event."""
    from repro.sim.engine import Process
    s = Stream(env, 0, 0)

    def op():
        yield env.timeout(1.0)
        return "span"

    events0 = env.processed_events
    ev = s.submit(op, label="copy")
    assert isinstance(ev, Process) and ev.name == "stream0@gpu0:copy"
    env.run()
    assert ev.value == "span" and s.last_span == "span"
    # init, the timeout, and the completion itself.
    assert env.processed_events - events0 == 3
