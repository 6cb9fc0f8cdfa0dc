"""Tests for the discrete-event engine core."""

import pytest

from repro.errors import SimulationError
from repro.sim.engine import Environment, Process
from repro.sim.events import Event


def test_time_starts_at_zero(env):
    assert env.now == 0.0


def test_timeout_advances_clock(env):
    done = []

    def p(env):
        yield env.timeout(2.5)
        done.append(env.now)

    env.process(p(env))
    env.run()
    assert done == [2.5]


def test_timeouts_fire_in_order(env):
    log = []

    def p(env, name, delay):
        yield env.timeout(delay)
        log.append(name)

    env.process(p(env, "late", 3.0))
    env.process(p(env, "early", 1.0))
    env.process(p(env, "mid", 2.0))
    env.run()
    assert log == ["early", "mid", "late"]


def test_same_time_events_fire_in_creation_order(env):
    """Deterministic FIFO tie-breaking at equal timestamps."""
    log = []

    def p(env, name):
        yield env.timeout(1.0)
        log.append(name)

    for name in "abcde":
        env.process(p(env, name))
    env.run()
    assert log == list("abcde")


def test_timeout_value_passed_through(env):
    got = []

    def p(env):
        v = yield env.timeout(1.0, value="payload")
        got.append(v)

    env.process(p(env))
    env.run()
    assert got == ["payload"]


def test_negative_timeout_rejected(env):
    with pytest.raises(SimulationError):
        env.timeout(-1.0)


def test_process_return_value(env):
    def p(env):
        yield env.timeout(1.0)
        return 42

    proc = env.process(p(env))
    assert env.run(proc) == 42


def test_nested_processes(env):
    def child(env):
        yield env.timeout(2.0)
        return "child-result"

    def parent(env):
        result = yield env.process(child(env))
        return result, env.now

    proc = env.process(parent(env))
    assert env.run(proc) == ("child-result", 2.0)


def test_yield_from_composition(env):
    def inner(env):
        yield env.timeout(1.0)
        return 7

    def outer(env):
        v = yield from inner(env)
        yield env.timeout(1.0)
        return v * 2

    proc = env.process(outer(env))
    assert env.run(proc) == 14
    assert env.now == 2.0


def test_exception_in_process_propagates(env):
    def p(env):
        yield env.timeout(1.0)
        raise ValueError("boom")

    proc = env.process(p(env))
    with pytest.raises(ValueError, match="boom"):
        env.run(proc)


def test_failed_event_raises_at_yield_point(env):
    ev = env.event()

    caught = []

    def waiter(env, ev):
        try:
            yield ev
        except RuntimeError as exc:
            caught.append(str(exc))

    def failer(env, ev):
        yield env.timeout(1.0)
        ev.fail(RuntimeError("failed-event"))

    env.process(waiter(env, ev))
    env.process(failer(env, ev))
    env.run()
    assert caught == ["failed-event"]


def test_run_until_time(env):
    ticks = []

    def p(env):
        while True:
            yield env.timeout(1.0)
            ticks.append(env.now)

    env.process(p(env))
    env.run(until=5.5)
    assert ticks == [1.0, 2.0, 3.0, 4.0, 5.0]
    assert env.now == 5.5


def test_run_until_event_returns_value(env):
    ev = env.event()

    def p(env, ev):
        yield env.timeout(3.0)
        ev.succeed("done")

    env.process(p(env, ev))
    assert env.run(ev) == "done"
    assert env.now == 3.0


def test_run_until_past_time_rejected(env):
    env.run(until=5.0)
    with pytest.raises(SimulationError):
        env.run(until=1.0)


def test_yield_non_event_raises(env):
    def p(env):
        yield 42

    proc = env.process(p(env))
    with pytest.raises(SimulationError, match="non-event"):
        env.run(proc)


def test_process_on_wrong_environment_rejected(env):
    other = Environment()

    def p(env, other):
        yield other.timeout(1.0)

    proc = env.process(p(env, other))
    with pytest.raises(SimulationError, match="different environment"):
        env.run(proc)


def test_already_processed_event_resumes_immediately(env):
    """Waiting on a processed event must not deadlock or defer."""
    ev = env.event()
    ev.succeed("x")
    log = []

    def p(env, ev):
        yield env.timeout(1.0)   # let ev get processed first
        v = yield ev
        log.append((env.now, v))

    env.process(p(env, ev))
    env.run()
    assert log == [(1.0, "x")]


def test_peek_and_step(env):
    def p(env):
        yield env.timeout(2.0)

    env.process(p(env))
    assert env.peek() == 0.0   # process-init event
    env.step()
    assert env.peek() == 2.0
    env.step()                 # timeout fires; process-completion remains
    assert env.peek() == 2.0
    env.step()
    assert env.peek() == float("inf")


def test_step_empty_queue_raises(env):
    with pytest.raises(SimulationError):
        env.step()


def test_process_is_alive(env):
    def p(env):
        yield env.timeout(1.0)

    proc = env.process(p(env))
    assert proc.is_alive
    env.run()
    assert not proc.is_alive


def test_process_requires_generator(env):
    with pytest.raises(SimulationError):
        Process(env, lambda: None)  # type: ignore[arg-type]


def test_many_processes_interleave_deterministically():
    """Two identical runs must produce identical interleavings, and time
    must never move backwards within a run."""
    from repro.sim.engine import Environment

    def simulate():
        env = Environment()
        log = []

        def p(env, name, period):
            for _ in range(3):
                yield env.timeout(period)
                log.append((env.now, name))

        for i in range(10):
            env.process(p(env, i, 1.0 + i * 0.1))
        env.run()
        return log

    first, second = simulate(), simulate()
    assert first == second
    assert all(a[0] <= b[0] for a, b in zip(first, first[1:]))


@pytest.mark.parametrize("bad", [float("nan"), -1.0])
def test_bad_timeout_leaves_queue_and_clock_alone(env, bad):
    """NaN passed ``delay < 0`` and scheduled at time NaN: processes with
    delays 2, NaN, 1, 3 ran in the order b, a, nan, c and the clock went
    2.0 -> NaN -> 3.0."""
    def p(env, delay):
        yield env.timeout(delay)

    env.process(p(env, 2.0))
    env.run(until=0.5)
    queue = (list(env._now_urgent), list(env._now_normal), list(env._future))
    seq = env._seq
    with pytest.raises(SimulationError, match="delay must be >= 0"):
        env.timeout(bad)
    with pytest.raises(SimulationError, match="delay must be >= 0"):
        env.schedule(env.event(), delay=bad)
    assert (list(env._now_urgent), list(env._now_normal),
            list(env._future)) == queue
    assert env._seq == seq
    assert env.now == 0.5
    env.run()
    assert env.now == 2.0


def test_nan_delay_fails_its_process_not_the_clock(env):
    log = []

    def p(env, name, delay):
        yield env.timeout(delay)
        log.append((name, env.now))

    procs = [env.process(p(env, name, d))
             for name, d in (("a", 2.0), ("nan", float("nan")),
                             ("b", 1.0), ("c", 3.0))]
    procs[1].defuse()
    env.run()
    assert log == [("b", 1.0), ("a", 2.0), ("c", 3.0)]
    assert env.now == 3.0
    assert isinstance(procs[1].value, SimulationError)
