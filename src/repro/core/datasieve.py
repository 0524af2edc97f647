"""Data sieving I/O (Section 3.2 of the paper, after Thakur et al.).

Reads: move large contiguous windows (the *data sieving buffer*, 32 MB by
default) from file into client memory and extract the wanted regions there,
trading extra bytes on the wire for far fewer I/O requests.

Writes: PVFS has no file locks, so a noncontiguous sieving write must
read-modify-write each window, and concurrent writers must be serialized
externally — the paper does it with an ``MPI_Barrier()`` loop, reproduced
here as :meth:`DataSievingIO.serialized_write`.

The method requires file regions sorted by offset (as ROMIO does for
flattened datatypes); writes additionally require disjoint regions.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..errors import RegionError
from ..regions import RegionList
from .base import AccessMethod, ClientCopy, RankPlan, RequestBatch

__all__ = ["DataSievingIO"]


class DataSievingIO(AccessMethod):
    """Buffered noncontiguous access through large contiguous requests."""

    name = "datasieve"
    waste_counter = "sieve"

    def __init__(self, buffer_size: Optional[int] = None) -> None:
        #: None -> use the cluster's configured sieve buffer (paper: 32 MB).
        self.buffer_size = buffer_size

    def plan(self, kind, mem_regions, file_regions, config) -> RankPlan:
        """One contiguous request per buffer window, trimmed to the
        requested bytes it holds (regions crossing a window edge are split);
        writes pre-read every window with holes and are serialized."""
        bsize = self.buffer_size if self.buffer_size is not None else config.sieve_buffer_size
        if bsize <= 0:
            raise RegionError("sieve buffer size must be positive")
        if not file_regions.is_sorted():
            raise RegionError("data sieving requires file regions sorted by offset")
        if kind == "write" and not file_regions.is_disjoint():
            raise RegionError("data sieving writes require disjoint file regions")
        r = file_regions.drop_empty()
        steps = []
        one = np.zeros(1, np.int64)
        w0, end = r.extent
        while w0 < end:
            w1 = min(w0 + bsize, end)
            useful = r.clip(w0, w1)
            w0 = w1
            if not useful.count:
                continue
            lo, hi = useful.extent
            span, n = RegionList.single(lo, hi - lo), useful.total_bytes
            if kind == "read":
                steps += [RequestBatch("read", span, one, useful=useful), ClientCopy(n)]
                continue
            if n < hi - lo:  # holes inside the window: fetch existing bytes first
                steps.append(RequestBatch("read", span, one))
            steps += [ClientCopy(n), RequestBatch("write", span, one, useful=useful)]
        return RankPlan(kind, steps, r.total_bytes, serialized=kind == "write")
