"""Tests of the package's public surface: everything README documents
must import from `repro` and behave as advertised."""

import importlib
import pkgutil

import numpy as np
import pytest

import repro


def test_version():
    assert repro.__version__


def test_all_exports_resolve():
    for name in repro.__all__:
        assert getattr(repro, name) is not None, name


def test_every_module_all_resolves():
    """Every name in every ``repro.*`` module's ``__all__`` exists: a name
    moved out of a module must leave its export list too."""
    stale = []
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        if info.name == "repro.__main__":     # importing it runs the CLI
            continue
        module = importlib.import_module(info.name)
        stale += [f"{info.name}.{name}"
                  for name in getattr(module, "__all__", ())
                  if not hasattr(module, name)]
    assert stale == []


def test_readme_quickstart_works():
    """The exact flow shown in README.md."""
    data = np.random.default_rng(0).uniform(size=50_000)
    sorter = repro.HeterogeneousSorter(
        repro.PLATFORM1, batch_size=10_000, n_streams=2,
        pinned_elements=2_000, memcpy_threads=8)
    result = sorter.sort(data, approach="pipemerge")
    assert np.all(result.output[:-1] <= result.output[1:])
    assert "pipemerge" in result.summary()

    # Paper-scale knobs for the paper-scale run (the tiny p_s above
    # would drown a 1e9-element run in per-chunk overhead).
    big = sorter.sort(n=int(1e9), approach="pipemerge",
                      batch_size=int(2.5e8), pinned_elements=10 ** 6)
    ref = repro.cpu_reference_sort(repro.PLATFORM1, n=int(1e9))
    assert big.speedup_over(ref) > 1.0


def test_exception_hierarchy():
    assert issubclass(repro.CudaOutOfMemory, repro.CudaError)
    assert issubclass(repro.CudaError, repro.ReproError)
    assert issubclass(repro.PlanError, repro.ReproError)
    assert issubclass(repro.ValidationError, repro.ReproError)
    assert issubclass(repro.SimulationError, repro.ReproError)


def test_platform_registry():
    assert repro.get_platform("platform1") is repro.PLATFORM1
    assert set(repro.PLATFORMS) == {"PLATFORM1", "PLATFORM2"}


def test_make_plan_exported():
    plan = repro.make_plan(
        10 ** 6, repro.PLATFORM1,
        repro.SortConfig(batch_size=10 ** 5, approach="pipedata"))
    assert plan.n_batches == 10


def test_approach_and_staging_enums():
    assert "pipemerge" in repro.Approach.ALL
    assert "pinned" in repro.Staging.ALL


def test_subpackage_imports():
    import repro.cuda
    import repro.hetsort
    import repro.hw
    import repro.kernels
    import repro.model
    import repro.reporting
    import repro.sim
    import repro.workloads

    assert callable(repro.kernels.sort_floats)
    assert callable(repro.model.end_to_end_accounting)
    assert callable(repro.reporting.render_table)
    assert callable(repro.workloads.generate)
