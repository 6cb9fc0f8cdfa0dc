"""Checks that each workload still exercises what it was chosen for, and
that tracing neither changes a run nor outlives its block.

    python3 -m pytest perfbench -q

One untraced and one traced operation per workload (about half a minute).
"""

from __future__ import annotations

import json
import pathlib
import sys

import pytest

HERE = pathlib.Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

from layers import ENTRY_POINTS, LayerTracer  # noqa: E402
from run import END_TO_END_UNITS, PER_LAYER_UNITS, WORKLOADS  # noqa: E402
from scenarios import SCENARIOS, load_pins  # noqa: E402
from worker import Runner  # noqa: E402

from repro.obs import profile  # noqa: E402

EXPECTATIONS = json.loads((HERE / "expectations.json").read_text())
DEV_SEED = EXPECTATIONS["seeds"]["development"]


@pytest.fixture(scope="module")
def traced():
    """Per workload: (untraced outcome, traced outcome, layer metrics)."""
    out = {}
    for name in WORKLOADS:
        runner = Runner(SCENARIOS[name], DEV_SEED)
        _, plain = runner.run()
        tracer = LayerTracer()
        wall, outcome = runner.run(tracer)
        assert runner.failed == 0, runner.errors
        out[name] = (plain, outcome, tracer.metrics(wall))
    return out


def test_kernels_cover_most_of_a_functional_sort(traced):
    assert traced["functional_sort"][2]["kernels.op_share"] > 0.5


@pytest.mark.parametrize("name", ["paper_scale_timing", "serve_contended"])
def test_timing_only_workloads_run_no_radix_kernel(traced, name):
    assert traced[name][2]["kernels.radix_calls"] == 0


@pytest.mark.parametrize("name", WORKLOADS)
def test_layered_allocator_fills_only_on_serve(traced, name):
    fills = traced[name][2]["allocators.fill_calls"]
    assert (fills > 0) == (name == "serve_contended")


def test_serve_runs_no_flow_summary(traced):
    assert traced["serve_contended"][2]["obs.flow_summary_s"] == 0


@pytest.mark.parametrize("name", WORKLOADS)
def test_tracing_changes_no_simulated_result(traced, name):
    plain, outcome, got = traced[name]
    assert plain.makespan_s == outcome.makespan_s
    assert plain.events == got["engine.events"]
    assert plain.spans == outcome.spans == got["trace.spans"]
    assert plain.transfers == outcome.transfers == got["bandwidth.transfers"]


def test_tracer_restores_every_entry_point():
    import importlib

    def current():
        found = []
        for module, path, _ in ENTRY_POINTS:
            owner = importlib.import_module(module)
            for name in path.split("."):
                owner = getattr(owner, name)
            found.append(owner)
        return found

    before = current()
    tracer = LayerTracer()
    with pytest.raises(RuntimeError):
        with tracer.installed():
            assert all(a is not b for a, b in zip(before, current()))
            assert profile.profiling_enabled()
            raise RuntimeError("leave the block abnormally")
    assert all(a is b for a, b in zip(before, current()))
    assert not profile.profiling_enabled()


def test_recorded_seeds_are_pinned():
    pins = load_pins()["serve_contended"]
    for seed in EXPECTATIONS["seeds"].values():
        assert str(seed) in pins


def test_benchmark_json_names_every_metric():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == \
        END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == \
        PER_LAYER_UNITS
    assert set(EXPECTATIONS["predictions"]) == set(PER_LAYER_UNITS)
