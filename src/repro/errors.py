"""Exception hierarchy for the repro package.

All library-raised exceptions derive from :class:`ReproError` so callers can
catch everything coming from this package with one handler while still being
able to discriminate subsystems.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro package."""


class SimulationError(ReproError):
    """Raised for illegal use of the discrete-event simulation engine."""


class CudaError(ReproError):
    """Base class for errors raised by the simulated CUDA runtime."""


class CudaOutOfMemory(CudaError):
    """Device (or pinned host) allocation exceeded the available capacity."""


class CudaInvalidValue(CudaError):
    """An argument to a simulated CUDA call was invalid (bad sizes, freed
    buffers, mismatched devices, ...)."""


class GpuLostError(CudaError):
    """The device suffered a fatal, permanent failure (simulated ECC /
    driver death): every subsequent allocation, kernel or transfer on it
    fails, and operations already queued on its engines are failed."""


class TransferFaultError(CudaError):
    """An injected *transient* PCIe transfer failure (fault injection).
    Retryable: the transfer may be re-issued after backoff."""


class PinnedAllocFault(CudaOutOfMemory):
    """An injected *transient* ``cudaMallocHost`` failure (fault
    injection).  Retryable, unlike a genuine capacity exhaustion."""


class DeviceAllocFault(CudaOutOfMemory):
    """An injected *transient* ``cudaMalloc`` failure (fault injection).
    Retryable, unlike a genuine capacity exhaustion."""


#: Injected fault types a :class:`repro.hetsort.resilience.RetryPolicy`
#: may retry.  Permanent failures (:class:`GpuLostError`) and genuine
#: capacity exhaustion are deliberately not listed.
TRANSIENT_FAULTS = (TransferFaultError, PinnedAllocFault, DeviceAllocFault)


class RetryExhaustedError(ReproError):
    """A bounded retry budget was exhausted without the operation ever
    succeeding; ``__cause__`` carries the last injected fault."""


class FaultPlanError(ReproError):
    """A ``repro.faults/v1`` fault-plan document is malformed (unknown
    schema, unknown fault kind, or invalid field values)."""


class PlanError(ReproError):
    """The requested heterogeneous-sort configuration is infeasible (batch
    does not fit on the GPU, input not covered by batches, ...)."""


class ValidationError(ReproError):
    """A functional-layer output failed verification (not sorted, or not a
    permutation of the input)."""


class CalibrationError(ReproError):
    """A cost-model constant is out of its documented validity range."""


class AccountingError(ReproError):
    """A model accounting was applied to a run it cannot describe (e.g.
    the serial Sec. IV-E component accounting on an overlapped run)."""


class LedgerError(ReproError):
    """A sweep ledger file is malformed or has an unknown schema."""


class EventLogError(ReproError):
    """A ``repro.events/v1`` telemetry event log is malformed (bad
    schema header, non-monotonic sequence, or an incomplete span
    stream that cannot be replayed into a trace)."""


class ArchiveError(ReproError):
    """A ``repro.archive/v1`` run archive is malformed: unknown schema,
    a corrupted (content-hash mismatch) entry, a duplicate entry id, or
    a manifest that disagrees with the JSONL it indexes."""


class MemoryLedgerError(ReproError):
    """A ``repro.memory/v1`` allocation ledger recorded impossible
    accounting (a pool balance going negative) or failed the leak check
    (a pool not balancing back to zero at run end)."""


class FlowLedgerError(ReproError):
    """A ``repro.flows/v1`` interconnect flow ledger recorded impossible
    accounting (a span bound to an unknown flow, a rate capture for a
    flow that never started) or failed an attribution invariant."""


class GoldenError(ReproError):
    """A ``repro.golden/v1`` gate golden file is malformed: unreadable or
    truncated JSON, an unknown schema, a missing or unknown
    (scenario, artifact) pair, a digest that is not 64 hex digits, or a
    tolerance band value that is not a finite number."""


class ReportError(ReproError):
    """A run report handed to ``repro diff`` is not a readable
    ``repro.report/v1`` document: unreadable or invalid JSON, not an
    object, an unknown schema, a makespan that is not a number, or a
    section that is not an object of numbers."""
