"""RunSession: one setup for every run, one observer hook per object."""

import re
from pathlib import Path

import pytest

from repro.hetsort.session import RunSession
from repro.hw.platforms import PLATFORM1, PLATFORM2
from repro.obs.counters import MetricsRecorder
from repro.obs.sinks import JsonlSink
from repro.sim.resources import Resource, Store

SRC = Path(__file__).resolve().parents[2] / "src" / "repro"


@pytest.mark.parametrize("ctor", ["Environment()", "Machine(",
                                  "MemoryLedger(", "FlowLedger(",
                                  "EventBus(", "FaultInjector("])
def test_run_setup_is_built_in_one_place(ctor):
    """Outside docstring examples, each run-setup object is constructed
    only by the session."""
    pattern = re.compile(r"(?<![\w.>])" + re.escape(ctor))
    sites = [(path.name, line.strip())
             for path in SRC.rglob("*.py")
             for line in path.read_text().splitlines()
             if pattern.search(line) and not line.lstrip().startswith(">>>")
             and not line.lstrip().startswith(("class ", "def "))]
    assert [name for name, _ in sites] == ["session.py"], sites


def test_resource_and_store_keep_one_hook():
    assert "bus" not in Resource.__slots__
    assert "bus" not in Store.__slots__
    assert "probe" in Resource.__slots__ and "probe" in Store.__slots__


def _root(env):
    yield env.timeout(1.0)


def test_without_sinks_only_the_recorder_is_wired():
    session = RunSession(PLATFORM2, n_gpus=2)
    recorder = MetricsRecorder(clock=lambda: session.env.now)
    session.run(_root(session.env), "root", recorder=recorder)
    machine = session.machine
    assert session.bus is None
    assert machine.recorder is recorder
    assert machine.cores.probe is not None
    assert all(e.probe is None for g in machine.gpus
               for e in (g.kernel_engine, *g.copy_engines.values()))
    assert machine.trace.bus is None and machine.memory.bus is None


def test_sinks_get_one_monitor_and_one_probe_per_engine(tmp_path):
    session = RunSession(PLATFORM2, n_gpus=2,
                         sinks=[JsonlSink(tmp_path / "ev.jsonl")])
    env, machine = session.env, session.machine
    session.run(_root(env), "root", start={"n": 1},
                end=lambda: {"elapsed_s": env.now})
    bus = session.bus
    assert env._monitors == [bus._on_step]
    assert bus.steps == env.processed_events
    for obj in (machine, machine.trace, machine.memory, machine.net.ledger):
        assert obj.bus is bus
    engines = [e for g in machine.gpus
               for e in (g.kernel_engine, *g.copy_engines.values())]
    assert len({e.probe for e in engines}) == 1
    lines = (tmp_path / "ev.jsonl").read_text().splitlines()
    assert '"kind":"run.start"' in lines[1]
    assert '"kind":"run.end"' in lines[-1]


def test_pinned_capacity_is_read_after_the_callers_reservation():
    session = RunSession(PLATFORM1)
    session.machine.reserve_host(1 << 30)
    assert session.run(_root(session.env), "root") == {}
    capacity = session.machine.memory.capacities["pinned"]
    assert capacity == PLATFORM1.hostmem.capacity_bytes - (1 << 30)
