"""Unit tests for the fault-plan data model and the injector runtime
(:mod:`repro.sim.faults`): validation, byte-stable serialisation,
seed-driven generation and op-ordinal matching semantics."""

import json

import pytest

from repro.errors import FaultPlanError
from repro.hw.machine import Machine
from repro.hw.platforms import PLATFORM1, PLATFORM2
from repro.sim.faults import (FAULTS_SCHEMA, FaultInjector, FaultKind,
                              FaultPlan, FaultSpec)

# ---------------------------------------------------------------------------
# FaultSpec validation
# ---------------------------------------------------------------------------


def test_unknown_kind_rejected():
    with pytest.raises(FaultPlanError, match="unknown fault kind"):
        FaultSpec(kind="cosmic.ray")


def test_bad_direction_rejected():
    with pytest.raises(FaultPlanError, match="direction"):
        FaultSpec(kind="pcie.transient", direction="sideways")


@pytest.mark.parametrize("kw", [{"after": -1}, {"times": 0},
                                {"after": "x"}, {"times": 1.5},
                                {"after": True}])
def test_bad_counters_rejected(kw):
    with pytest.raises(FaultPlanError, match="integer after >= 0"):
        FaultSpec(kind="pcie.transient", **kw)
    with pytest.raises(FaultPlanError, match="integer after >= 0"):
        FaultPlan.from_dict({"schema": FAULTS_SCHEMA, "faults": [
            {"kind": "pcie.transient", **kw}]})


_NAN = float("nan")


@pytest.mark.parametrize("entry,match", [
    (1, "each fault must be an object, got int"),
    ([{"kind": "alloc.pinned"}], "each fault must be an object, got list"),
    ({"kind": "gpu.lost", "gpu": "0"}, "gpu must be an integer"),
    ({"kind": "gpu.lost", "gpu": -1}, "gpu must be an integer index >= 0"),
    ({"kind": "gpu.lost", "gpu": 0, "at_s": _NAN}, "at_s must be a finite"),
    ({"kind": "gpu.lost", "gpu": 0, "at_s": "1"}, "at_s must be a finite"),
    ({"kind": "bandwidth.degrade", "link": "host_bus", "at_s": _NAN,
      "duration_s": 0.01, "factor": 0.5}, "at_s must be a finite"),
    ({"kind": "bandwidth.degrade", "link": "host_bus",
      "duration_s": float("inf"), "factor": 0.5},
     "duration_s must be a finite"),
    ({"kind": "bandwidth.degrade", "link": "host_bus",
      "duration_s": 0.01, "factor": _NAN}, "factor must be a finite"),
    # Fields no hook passes: such a spec could never fire.
    ({"kind": "alloc.pinned", "gpu": 0}, "alloc.pinned cannot take a gpu"),
    ({"kind": "alloc.device", "direction": "HtoD"},
     "alloc.device cannot take direction 'HtoD'"),
    ({"kind": "alloc.pinned", "direction": "DtoH"},
     "alloc.pinned cannot take direction 'DtoH'"),
])
def test_malformed_plan_entries_rejected(entry, match):
    """A malformed entry raises the typed error (exit 2 on the CLI), never
    a TypeError; a NaN time or a negative GPU index never silently
    misfires or skips a fault."""
    with pytest.raises(FaultPlanError, match=match):
        FaultPlan.from_dict({"schema": FAULTS_SCHEMA, "faults": [entry]})


def test_negative_times_rejected():
    with pytest.raises(FaultPlanError, match=">= 0"):
        FaultSpec(kind="gpu.lost", gpu=0, at_s=-1.0)


def test_gpu_lost_needs_gpu_index():
    with pytest.raises(FaultPlanError, match="explicit gpu"):
        FaultSpec(kind="gpu.lost")


def test_bandwidth_window_validation():
    with pytest.raises(FaultPlanError, match="link"):
        FaultSpec(kind="bandwidth.degrade", link="carrier.pigeon",
                  duration_s=0.01, factor=0.5)
    with pytest.raises(FaultPlanError, match="factor"):
        FaultSpec(kind="bandwidth.degrade", link="host_bus",
                  duration_s=0.01, factor=0.0)
    with pytest.raises(FaultPlanError, match="factor"):
        FaultSpec(kind="bandwidth.degrade", link="host_bus",
                  duration_s=0.01, factor=1.5)
    with pytest.raises(FaultPlanError, match="duration_s"):
        FaultSpec(kind="bandwidth.degrade", link="host_bus", factor=0.5)


def test_spec_from_dict_rejects_unknown_fields_and_missing_kind():
    with pytest.raises(FaultPlanError, match="unknown FaultSpec field"):
        FaultSpec.from_dict({"kind": "pcie.transient", "blast_radius": 3})
    with pytest.raises(FaultPlanError, match="needs a 'kind'"):
        FaultSpec.from_dict({"gpu": 0})


# ---------------------------------------------------------------------------
# FaultPlan serialisation
# ---------------------------------------------------------------------------


def test_plan_json_round_trip_is_byte_stable(tmp_path):
    plan = FaultPlan(faults=(
        FaultSpec(kind="pcie.transient", gpu=0, direction="HtoD",
                  after=2, times=3),
        FaultSpec(kind="bandwidth.degrade", link="pcie.dtoh",
                  at_s=0.01, duration_s=0.02, factor=0.25),
    ), seed=99)
    text = plan.to_json()
    assert plan.to_json() == text          # stable across calls
    assert FaultPlan.from_dict(json.loads(text)).to_json() == text

    path = tmp_path / "plan.json"
    plan.save(path)
    loaded = FaultPlan.load(path)
    assert loaded == plan
    assert loaded.to_json() == text


def test_plan_schema_enforced(tmp_path):
    with pytest.raises(FaultPlanError, match="schema"):
        FaultPlan.from_dict({"schema": "repro.faults/v99", "faults": []})
    with pytest.raises(FaultPlanError, match="must be an object"):
        FaultPlan.from_dict([1, 2, 3])
    with pytest.raises(FaultPlanError, match="must be a list"):
        FaultPlan.from_dict({"schema": FAULTS_SCHEMA, "faults": {}})
    with pytest.raises(FaultPlanError, match="seed must be an integer"):
        FaultPlan.from_dict({"schema": FAULTS_SCHEMA, "faults": [],
                             "seed": float("nan")})

    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(FaultPlanError, match="not valid JSON"):
        FaultPlan.load(bad)
    with pytest.raises(FaultPlanError, match="cannot read"):
        FaultPlan.load(tmp_path / "missing.json")


def test_empty_plan_is_empty():
    assert FaultPlan().empty
    assert not FaultPlan(faults=(FaultSpec(kind="alloc.pinned"),)).empty


def test_random_plans_are_seed_deterministic():
    a = FaultPlan.random(1234, n_gpus=2)
    b = FaultPlan.random(1234, n_gpus=2)
    assert a == b
    assert a.to_json() == b.to_json()
    assert a.seed == 1234
    assert 1 <= len(a.faults) <= 4
    # A different seed gives a different plan (for these particular seeds).
    assert FaultPlan.random(1235, n_gpus=2) != a


def _can_fire(spec, n_gpus):
    """Whether ``spec`` alone fires on the ops its hook sees first."""
    if spec.kind == FaultKind.GPU_LOST:
        return spec.gpu < n_gpus
    if spec.kind == FaultKind.BANDWIDTH:
        return spec.link in FaultKind.LINKS
    inj = FaultInjector(FaultPlan(faults=(spec,)))
    gpu = 0 if spec.gpu is None else spec.gpu
    hook = {FaultKind.TRANSFER:
            lambda: inj.on_transfer(gpu, spec.direction or "HtoD"),
            FaultKind.PINNED_ALLOC: inj.on_pinned_alloc,
            FaultKind.DEVICE_ALLOC: lambda: inj.on_device_alloc(gpu)}
    return any(hook[spec.kind]() is spec for _ in range(spec.after + 1))


def test_random_plan_respects_gates():
    for seed in range(20):
        plan = FaultPlan.random(seed, n_gpus=1, allow_bandwidth=False)
        kinds = {f.kind for f in plan.faults}
        assert FaultKind.GPU_LOST not in kinds      # single GPU: no loss
        assert FaultKind.BANDWIDTH not in kinds
    for seed in range(200):
        for spec in FaultPlan.random(seed, n_gpus=2).faults:
            assert _can_fire(spec, n_gpus=2), (seed, spec)
    with pytest.raises(FaultPlanError, match="max_faults"):
        FaultPlan.random(0, max_faults=0)
    with pytest.raises(FaultPlanError, match="horizon_s"):
        FaultPlan.random(0, horizon_s=0)


# ---------------------------------------------------------------------------
# Injector matching
# ---------------------------------------------------------------------------


def test_counter_after_and_times_semantics(env):
    plan = FaultPlan(faults=(
        FaultSpec(kind="pcie.transient", after=2, times=2),))
    inj = FaultInjector(plan).attach(Machine(env, PLATFORM1))
    hits = [inj.on_transfer(0, "HtoD") is not None for _ in range(6)]
    # ops 1-2 pass ("after"), 3-4 fail ("times"), 5-6 pass (budget spent)
    assert hits == [False, False, True, True, False, False]
    assert inj.fired_total == 2
    assert inj.summary() == {"fired": 2,
                             "by_kind": {"pcie.transient": 2}}


def test_counter_narrowing_by_gpu_and_direction(env):
    plan = FaultPlan(faults=(
        FaultSpec(kind="pcie.transient", gpu=1, direction="DtoH"),))
    inj = FaultInjector(plan).attach(Machine(env, PLATFORM2, n_gpus=2))
    assert inj.on_transfer(0, "DtoH") is None     # wrong gpu
    assert inj.on_transfer(1, "HtoD") is None     # wrong direction
    assert inj.on_transfer(1, "DtoH") is not None
    assert inj.on_transfer(1, "DtoH") is None     # times=1 spent


def test_alloc_hooks_match_their_kinds(env):
    plan = FaultPlan(faults=(
        FaultSpec(kind="alloc.pinned"),
        FaultSpec(kind="alloc.device", gpu=0),))
    inj = FaultInjector(plan).attach(Machine(env, PLATFORM1))
    assert inj.on_pinned_alloc() is not None
    assert inj.on_pinned_alloc() is None
    assert inj.on_device_alloc(0) is not None
    assert inj.on_device_alloc(0) is None
    assert inj.summary()["by_kind"] == {"alloc.device": 1,
                                        "alloc.pinned": 1}


def test_start_requires_attach(env):
    inj = FaultInjector(FaultPlan())
    with pytest.raises(FaultPlanError, match="attach"):
        inj.start(env)


def test_gpu_loss_fires_at_scheduled_time(env):
    machine = Machine(env, PLATFORM1)
    plan = FaultPlan(faults=(
        FaultSpec(kind="gpu.lost", gpu=0, at_s=0.005),))
    inj = FaultInjector(plan).attach(machine)
    inj.start(env)
    env.run(until=0.004)
    assert not machine.gpus[0].lost
    env.run(until=0.006)
    assert machine.gpus[0].lost
    assert inj.summary()["by_kind"] == {"gpu.lost": 1}


def test_gpu_loss_out_of_range_is_skipped(env):
    machine = Machine(env, PLATFORM1)       # 1 GPU
    plan = FaultPlan(faults=(
        FaultSpec(kind="gpu.lost", gpu=5, at_s=0.001),))
    inj = FaultInjector(plan).attach(machine)
    inj.start(env)
    env.run(until=0.01)
    assert inj.fired_total == 0
    assert not machine.gpus[0].lost


@pytest.mark.parametrize("link", FaultKind.LINKS)
def test_bandwidth_window_restores_capacity(env, link):
    machine = Machine(env, PLATFORM1)
    targets = {"host_bus": machine.host_bus,
               "pcie.htod": machine.pcie["HtoD"],
               "pcie.dtoh": machine.pcie["DtoH"]}
    original = targets[link].capacity
    plan = FaultPlan(faults=(
        FaultSpec(kind="bandwidth.degrade", link=link, at_s=0.001,
                  duration_s=0.002, factor=0.5),))
    inj = FaultInjector(plan).attach(machine)
    inj.start(env)
    env.run(until=0.002)
    assert targets[link].capacity == pytest.approx(original * 0.5)
    env.run(until=0.004)
    assert targets[link].capacity == pytest.approx(original)
    assert inj.summary()["by_kind"] == {"bandwidth.degrade": 1}


# (windows as (at_s, duration_s, factor), probes as (t, expected factor))
_OVERLAPS = {
    "abutting": ([(0.001, 0.001, 0.5), (0.002, 0.001, 0.5)],
                 [(0.0015, 0.5), (0.0025, 0.5)]),
    "staggered": ([(0.001, 0.002, 0.5), (0.002, 0.002, 0.25)],
                  [(0.0015, 0.5), (0.0025, 0.25), (0.0035, 0.25)]),
    "nested": ([(0.001, 0.004, 0.5), (0.002, 0.001, 0.25)],
               [(0.0015, 0.5), (0.0025, 0.25), (0.004, 0.5)]),
}


@pytest.mark.parametrize("case", sorted(_OVERLAPS))
@pytest.mark.parametrize("link", FaultKind.LINKS)
def test_overlapping_bandwidth_windows_restore_nominal(env, link, case):
    """The most recently opened window still open sets the capacity, and
    the link is back at exactly nominal once the last one closes."""
    machine = Machine(env, PLATFORM1)
    target = {"host_bus": machine.host_bus,
              "pcie.htod": machine.pcie["HtoD"],
              "pcie.dtoh": machine.pcie["DtoH"]}[link]
    nominal = target.capacity
    windows, probes = _OVERLAPS[case]
    plan = FaultPlan(faults=tuple(
        FaultSpec(kind="bandwidth.degrade", link=link, at_s=at,
                  duration_s=dur, factor=f) for at, dur, f in windows))
    FaultInjector(plan).attach(machine).start(env)
    for t, factor in probes:
        env.run(until=t)
        assert target.capacity == nominal * factor, t
    env.run(until=0.01)
    assert target.capacity == nominal


def test_empty_plan_schedules_and_matches_nothing(env):
    machine = Machine(env, PLATFORM1)
    inj = FaultInjector(FaultPlan()).attach(machine)
    inj.start(env)
    assert inj.on_transfer(0, "HtoD") is None
    assert inj.on_pinned_alloc() is None
    assert inj.on_device_alloc(0) is None
    assert inj.fired_total == 0
    assert inj.summary() == {"fired": 0, "by_kind": {}}
