"""Shared fixtures for the test suite."""

from __future__ import annotations

import dataclasses
import importlib.util
import pathlib

import numpy as np
import pytest

from repro.hw.platforms import PLATFORM1, PLATFORM2
from repro.sim.engine import Environment


@pytest.fixture
def env() -> Environment:
    """A fresh simulation environment."""
    return Environment()


@pytest.fixture
def rng() -> np.random.Generator:
    """A deterministic RNG for test data."""
    return np.random.default_rng(0xC0FFEE)


@pytest.fixture(params=["PLATFORM1", "PLATFORM2"])
def platform(request):
    """Parametrised over both evaluation platforms."""
    return {"PLATFORM1": PLATFORM1, "PLATFORM2": PLATFORM2}[request.param]


@pytest.fixture
def shrunk_platform():
    """Factory: PLATFORM1 with artificially small memories (used by the
    failure-injection and chaos tests to exhaust capacity quickly)."""

    def make(gpu_mem_bytes=None, host_bytes=None):
        p = PLATFORM1
        gpus = p.gpus
        if gpu_mem_bytes is not None:
            gpus = tuple(dataclasses.replace(g, mem_bytes=gpu_mem_bytes)
                         for g in gpus)
        hostmem = p.hostmem
        if host_bytes is not None:
            hostmem = dataclasses.replace(hostmem,
                                          capacity_bytes=host_bytes)
        return dataclasses.replace(p, gpus=gpus, hostmem=hostmem)

    return make


@pytest.fixture(scope="session")
def gate():
    """``benchmarks/gate.py``, loaded as a module."""
    path = (pathlib.Path(__file__).resolve().parents[1]
            / "benchmarks" / "gate.py")
    spec = importlib.util.spec_from_file_location("gate", path)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


@pytest.fixture(scope="session")
def gate_measured(gate):
    """Every golden-corpus pair as measured on this code; the corpus runs
    once per session."""
    return gate.run_corpus()


@pytest.fixture(scope="session")
def golden_failures(gate, gate_measured):
    """Each corpus pair's failure messages against the committed golden
    file, by pair; an empty list means the pair reproduces."""
    return gate.check(gate.load_golden(gate.GOLDEN), gate_measured)
