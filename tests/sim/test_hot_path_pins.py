"""Byte pins for a paper-chunked sort and a strict-priority service.

A timing PIPEMERGE run on PLATFORM1 at n = 2e8 with the paper's pinned
buffer of p_s = 2e5 elements stages each batch through ~10^3 chunks, so
it exercises every per-chunk path (staging copies, async copies,
per-copy synchronisation, the flow ledger and the gauges) a thousand
times.  The timing strict-priority service run adds concurrent tenants
under a layered allocator, the QoS path ``FlowNetwork.transfer`` reads.

The SHA-256 of each artifact's canonical JSON is frozen below.  A change
that only makes these paths cheaper must leave every digest unchanged.
Run as a script to print the digests.
"""

from __future__ import annotations

import hashlib

import pytest

from repro import PLATFORM1, HeterogeneousSorter
from repro.obs.diff import canonical_json, run_report
from repro.service import ServiceConfig, Tenant, run_service

TENANTS = (
    Tenant("gold", priority=2, share=2.0, rate_hz=40.0, n_jobs=3,
           n_elements=200_000, slo_s=0.5),
    Tenant("silver", priority=1, share=1.0, rate_hz=30.0, n_jobs=3,
           n_elements=200_000),
    Tenant("batch", priority=0, share=0.5, rate_hz=20.0, n_jobs=3,
           n_elements=400_000),
)


def _digest(doc) -> str:
    return hashlib.sha256(canonical_json(doc).encode()).hexdigest()


def artifacts() -> dict[str, str]:
    """Each pinned artifact's digest, by name."""
    res = HeterogeneousSorter(PLATFORM1, pinned_elements=200_000).sort(
        n=200_000_000, approach="pipemerge")
    service = run_service(TENANTS, ServiceConfig(
        allocator="strict-priority", functional=False, seed=5,
        batch_size=50_000, pinned_elements=5_000))
    return {
        "pipemerge-2e8/report": _digest(run_report(res)),
        "pipemerge-2e8/flows": _digest(res.flow_ledger.to_dict()),
        "pipemerge-2e8/counters": _digest(res.recorder.summary(res.elapsed)),
        "service-strict-priority/verdict": _digest(service.verdict),
    }


PINS = {
    "pipemerge-2e8/report":
        "cc8597d6ee75706f1d0870d994f044d24b961d040b772588d4f1ee252d230901",
    "pipemerge-2e8/flows":
        "0da9093f8531a4c4d03a32cb1abede3447e93ecf52f9f7dc990c2c6b810667a6",
    "pipemerge-2e8/counters":
        "95df4e4c5d5bd3d8de09f3ce796528ae20488b809e6b3e721ee82312c6ced755",
    "service-strict-priority/verdict":
        "4c842e5fa57c70cc67d2a87bc04b169c6990ac57273394f0b1ace54563d9f5f2",
}


@pytest.fixture(scope="module")
def digests() -> dict[str, str]:
    return artifacts()


@pytest.mark.parametrize("name", sorted(PINS))
def test_artifact_bytes_are_pinned(digests, name):
    assert digests[name] == PINS[name]


if __name__ == "__main__":
    for name, value in artifacts().items():
        print(f"{name}  {value}")
