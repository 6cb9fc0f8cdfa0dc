"""Host-side library facades: the CPU sorts of Fig. 4, each coupling a
functional implementation with its calibrated cost model."""

from repro.cpu.parallel_sort import LIBRARIES, SortLibrary, get_library

__all__ = ["SortLibrary", "get_library", "LIBRARIES"]
