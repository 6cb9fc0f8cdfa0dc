"""The batch planner: how the input is cut into GPU-sized sublists.

Implements the memory reasoning of Sec. III-B/III-C and IV-F:

* Thrust sorts out of place, so each batch needs **2 b_s** elements of
  device memory;
* each of the ``n_s`` streams on a GPU owns its own buffers, so a GPU must
  hold ``2 * b_s * n_s`` elements;
* the host needs ~3n elements total (A + W + B);
* batches are dealt round-robin over the ``n_GPU * n_s`` (gpu, stream)
  pairs, giving each stream ``n_b / (n_s * n_GPU)`` batches.

The planner also computes the PIPEMERGE pair-wise quota heuristic of
Sec. III-D3:

* 1 GPU:   ``floor((n_b - 1) / 2)``;
* >= 2 GPUs: ``floor((n_b - 1) / (2 * n_GPU))`` (batches finish faster,
  leaving less host time before the final multiway merge).
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from itertools import repeat

from repro.cuda.buffers import ELEM
from repro.errors import PlanError
from repro.hetsort.config import Approach, SortConfig
from repro.hw.spec import PlatformSpec

__all__ = ["Batch", "Chunks", "SortPlan", "make_plan", "max_batch_size",
           "pairwise_quota"]


@dataclass(frozen=True)
class Batch:
    """One sublist to be sorted on a GPU."""

    index: int        #: position in A (batches tile A in order)
    offset: int       #: first element in A
    size: int         #: elements
    gpu: int          #: device that sorts it
    stream_slot: int  #: stream index within that device

    @property
    def nbytes(self) -> int:
        return self.size * ELEM

    @property
    def offset_bytes(self) -> int:
        return self.offset * ELEM


class Chunks(Sequence):
    """The chunks of one batch through the pinned staging buffer: a
    read-only sequence of ``(element_offset_in_A, element_offset_in_batch,
    elements)`` tuples, computed on access from a ``range`` of chunk
    starts (a paper-scale batch has ~10^4 chunks; no list is built)."""

    __slots__ = ("_offset", "_size", "_step", "_starts")

    def __init__(self, offset: int, size: int, step: int,
                 starts: range | None = None) -> None:
        self._offset = offset
        self._size = size
        self._step = step
        self._starts = range(0, size, step) if starts is None else starts

    def __len__(self) -> int:
        return len(self._starts)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return Chunks(self._offset, self._size, self._step,
                          self._starts[index])
        done = self._starts[index]
        return (self._offset + done, done, min(self._step, self._size - done))

    def __iter__(self):
        starts = self._starts
        return zip(map(self._offset.__add__, starts), starts,
                   map(min, repeat(self._step), map(self._size.__sub__,
                                                    starts)))


def max_batch_size(platform: PlatformSpec, n_streams: int,
                   n_gpus: int = 1) -> int:
    """Largest b_s that fits ``2 * b_s * n_s`` elements on the smallest
    GPU used (Sec. IV-F: "b_s is selected to maximize usage of GPU global
    memory capacity")."""
    mem = min(g.mem_bytes for g in platform.gpus[:n_gpus])
    bs = mem // (2 * n_streams * ELEM)
    if bs < 1:
        raise PlanError("GPU memory cannot hold even a one-element batch")
    return int(bs)


def pairwise_quota(n_batches: int, n_gpus: int) -> int:
    """Number of pipelined pair-wise merges (Sec. III-D3 heuristics)."""
    if n_batches < 2:
        return 0
    if n_gpus <= 1:
        return (n_batches - 1) // 2
    return (n_batches - 1) // (2 * n_gpus)


@dataclass(frozen=True)
class SortPlan:
    """The complete decomposition of one sort run."""

    n: int
    batch_size: int
    pinned_elements: int
    n_streams: int
    n_gpus: int
    batches: tuple[Batch, ...]

    @property
    def n_batches(self) -> int:
        return len(self.batches)

    @property
    def pairwise_merges(self) -> int:
        """PIPEMERGE pair-wise merge quota for this plan."""
        return pairwise_quota(self.n_batches, self.n_gpus)

    @property
    def device_bytes_per_gpu(self) -> int:
        """Device memory each GPU must provide (2 b_s per stream)."""
        return 2 * self.batch_size * self.n_streams * ELEM

    @property
    def host_bytes(self) -> int:
        """Approximate host requirement: A + W + B = 3n (Sec. III-C)."""
        return 3 * self.n * ELEM

    def batches_for(self, gpu: int, stream_slot: int) -> tuple[Batch, ...]:
        """The batches one (gpu, stream) worker processes, in order.

        Batches are dealt round-robin over the stream-major (gpu, stream)
        pairs, so a worker's share is one strided slice; a pair outside
        the plan gets none.
        """
        if not (0 <= gpu < self.n_gpus and 0 <= stream_slot < self.n_streams):
            return ()
        return self.batches[stream_slot * self.n_gpus + gpu::
                            self.n_gpus * self.n_streams]

    def chunks(self, batch: Batch) -> Chunks:
        """Chunking of a batch through the pinned staging buffer:
        ``(element_offset_in_A, element_offset_in_batch, elements)``."""
        return Chunks(batch.offset, batch.size, self.pinned_elements)

    def validate(self, platform: PlatformSpec) -> None:
        """Check the plan against the platform's memory capacities."""
        if self.n_gpus > platform.n_gpus:
            raise PlanError(
                f"plan wants {self.n_gpus} GPUs; {platform.name} has "
                f"{platform.n_gpus}")
        for g in range(self.n_gpus):
            need = self.device_bytes_per_gpu
            have = platform.gpus[g].mem_bytes
            if need > have:
                raise PlanError(
                    f"gpu{g}: 2 x b_s x n_s = {need} B exceeds "
                    f"{have} B of global memory "
                    f"(b_s={self.batch_size}, n_s={self.n_streams})")
        if self.host_bytes > platform.hostmem.capacity_bytes:
            raise PlanError(
                f"host needs ~3n = {self.host_bytes} B but has "
                f"{platform.hostmem.capacity_bytes} B (Sec. III-C limit)")
        if self.pinned_elements > self.batch_size:
            raise PlanError("pinned buffer larger than a batch is wasteful; "
                            "choose p_s <= b_s")
        covered = sum(b.size for b in self.batches)
        if covered != self.n:
            raise PlanError(
                f"batches cover {covered} of {self.n} elements")


def make_plan(n: int, platform: PlatformSpec, config: SortConfig,
              n_gpus: int = 1) -> SortPlan:
    """Build and validate a :class:`SortPlan`.

    BLINE forces one batch per GPU and a single stream; the other
    approaches batch by ``config.batch_size`` (defaulting to the largest
    size that fits).
    """
    if n < 1:
        raise PlanError(f"nothing to sort (n={n})")
    if not 1 <= n_gpus <= platform.n_gpus:
        raise PlanError(
            f"{platform.name} has {platform.n_gpus} GPU(s); "
            f"requested {n_gpus}")

    if config.approach == Approach.BLINE:
        n_streams = 1
        if n % n_gpus:
            raise PlanError(
                f"BLINE needs n divisible by n_gpus ({n} % {n_gpus})")
        bs = n // n_gpus
    else:
        n_streams = config.n_streams
        bs = config.batch_size or max_batch_size(platform, n_streams, n_gpus)
        bs = min(bs, n)

    batches = []
    pairs = [(g, s) for s in range(n_streams) for g in range(n_gpus)]
    offset = 0
    idx = 0
    while offset < n:
        size = min(bs, n - offset)
        gpu, slot = pairs[idx % len(pairs)]
        batches.append(Batch(idx, offset, size, gpu, slot))
        offset += size
        idx += 1

    plan = SortPlan(
        n=n, batch_size=bs,
        pinned_elements=min(config.pinned_elements, bs),
        n_streams=n_streams, n_gpus=n_gpus, batches=tuple(batches))
    plan.validate(platform)
    if config.approach == Approach.BLINE and plan.n_batches != n_gpus:
        raise PlanError(
            f"BLINE requires one batch per GPU; n={n} produced "
            f"{plan.n_batches} batches -- use BLINEMULTI or the pipelined "
            "approaches for inputs exceeding GPU memory")
    return plan
