"""Configuration of a heterogeneous sort run (the paper's knobs, Table I)."""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.errors import PlanError

__all__ = ["SortConfig", "Approach", "Staging"]


class Approach:
    """The approaches of Sec. III-D4."""

    BLINE = "bline"            #: single batch per GPU, blocking transfers
    BLINEMULTI = "blinemulti"  #: multiple batches, blocking, multiway merge
    PIPEDATA = "pipedata"      #: pinned staging + streams, overlapped copies
    PIPEMERGE = "pipemerge"    #: PIPEDATA + pipelined pair-wise merges
    #: Extension (Sec. V outlook): merge on the GPU instead of the CPU.
    GPUMERGE = "gpumerge"
    ALL = (BLINE, BLINEMULTI, PIPEDATA, PIPEMERGE, GPUMERGE)

    #: Which approaches use asynchronous, stream-based transfers.
    PIPELINED = (PIPEDATA, PIPEMERGE, GPUMERGE)


class Staging:
    """How blocking approaches move data (Sec. III-D / IV-E)."""

    PINNED = "pinned"      #: chunked through a pinned staging buffer
    PAGEABLE = "pageable"  #: plain cudaMemcpy from pageable memory
    ALL = (PINNED, PAGEABLE)


@dataclass(frozen=True)
class SortConfig:
    """All tunables of the hybrid sort.

    Attributes
    ----------
    approach:
        One of :class:`Approach`.
    n_streams:
        Streams per GPU (``n_s``).  The paper uses 2 so HtoD and DtoH
        overlap; more streams shrink the batch size (Sec. IV-F).
    batch_size:
        Elements per batch (``b_s``); ``None`` lets the planner maximise
        it subject to GPU memory (2 buffers per stream, Sec. IV-F).
    pinned_elements:
        Elements in each pinned staging buffer (``p_s``); the paper uses
        1e6 (Sec. IV-E1).
    memcpy_threads:
        Host threads per staging copy.  1 = ``std::memcpy``;
        > 1 = the PARMEMCPY optimisation.
    pipeline_merge_threads:
        Threads for each pipelined pair-wise merge (PIPEMERGE).  ``None``
        leaves one core per active staging thread and uses the rest.
    merge_threads:
        Threads for the final multiway merge.  ``None`` = the platform's
        reference thread count.
    staging:
        Data path of the *blocking* approaches (pinned staging is the
        Sec. IV-E reproduction; pageable is the plain cudaMemcpy path).
    """

    approach: str = Approach.PIPEMERGE
    n_streams: int = 2
    batch_size: int | None = None
    pinned_elements: int = 10 ** 6
    memcpy_threads: int = 1
    pipeline_merge_threads: int | None = None
    merge_threads: int | None = None
    staging: str = Staging.PINNED

    def __post_init__(self) -> None:
        if self.approach not in Approach.ALL:
            raise PlanError(
                f"unknown approach {self.approach!r}; one of {Approach.ALL}")
        if self.staging not in Staging.ALL:
            raise PlanError(
                f"unknown staging {self.staging!r}; one of {Staging.ALL}")
        if self.n_streams < 1:
            raise PlanError(f"n_streams must be >= 1, got {self.n_streams}")
        if self.pinned_elements < 1:
            raise PlanError("pinned buffer must hold at least one element")
        if self.memcpy_threads < 1:
            raise PlanError("memcpy_threads must be >= 1")
        if self.batch_size is not None and self.batch_size < 1:
            raise PlanError(f"batch_size must be >= 1, got {self.batch_size}")

    @property
    def parallel_memcpy(self) -> bool:
        """True when the PARMEMCPY optimisation is active."""
        return self.memcpy_threads > 1

    def with_(self, **kw) -> "SortConfig":
        """A copy with fields replaced (convenience for sweeps)."""
        return replace(self, **kw)
