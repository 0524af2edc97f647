"""Hybrid list + data-sieving I/O (the paper's Section 5 future work).

    "A combination of the list I/O and data sieving approaches could
    provide a hybrid solution that would be applicable over a larger range
    of access patterns. ... if two noncontiguous regions are close to each
    other, a data sieving operation may take place for just those
    particular regions."

The hybrid clusters file regions whose gaps are at most ``gap_threshold``
bytes into *extents*, then issues the extents through list I/O:

* dense neighborhoods collapse into one region each (fewer regions per
  request and fewer requests — the sieving advantage, without fetching the
  far-apart junk pure sieving would),
* isolated regions stay exact (the list I/O advantage).

Reads fetch extent streams and drop the gap bytes client-side.  Writes on
extents with interior gaps read-modify-write those extents (and therefore
need external serialization under concurrency, like sieving); with
``gap_threshold=0`` writes never RMW and degrade gracefully to pure list
I/O on coalesced regions.
"""

from __future__ import annotations

import numpy as np

from ..errors import RegionError
from ..regions import RegionList
from .base import AccessMethod, ClientCopy, RankPlan, RequestBatch

__all__ = ["HybridIO", "cluster_extents"]


def cluster_extents(file_regions: RegionList, gap_threshold: int) -> RegionList:
    """Merge sorted, disjoint regions whose inter-region gap is at most
    ``gap_threshold`` bytes into covering extents."""
    if gap_threshold < 0:
        raise RegionError("gap_threshold must be non-negative")
    r = file_regions.coalesced()
    if r.count <= 1:
        return r
    gaps = r.offsets[1:] - r.ends[:-1]
    new_cluster = np.empty(r.count, dtype=bool)
    new_cluster[0] = True
    new_cluster[1:] = gaps > gap_threshold
    starts = r.offsets[new_cluster]
    cluster_id = np.cumsum(new_cluster) - 1
    ends = np.zeros(cluster_id[-1] + 1, dtype=np.int64)
    np.maximum.at(ends, cluster_id, r.ends)
    return RegionList(starts, ends - starts)


class HybridIO(AccessMethod):
    """List I/O over sieved extents."""

    name = "hybrid"
    waste_counter = "hybrid"

    def __init__(self, gap_threshold: int = 4096) -> None:
        if gap_threshold < 0:
            raise RegionError("gap_threshold must be non-negative")
        self.gap_threshold = gap_threshold

    def plan(self, kind, mem_regions, file_regions, config) -> RankPlan:
        """List requests over the extents; a write whose extents hold gaps
        pre-reads them all first and is serialized."""
        if not file_regions.is_sorted():
            raise RegionError("hybrid I/O requires file regions sorted by offset")
        if not file_regions.is_disjoint():
            raise RegionError("hybrid I/O requires disjoint file regions")
        useful = file_regions.drop_empty()
        extents = cluster_extents(useful, self.gap_threshold)
        chunks = np.arange(extents.count, dtype=np.int64) // config.list_io_max_regions
        batch = RequestBatch(kind, extents, chunks, useful=useful)
        copy = ClientCopy(useful.total_bytes)
        if kind == "read":
            return RankPlan(kind, [batch, copy], useful.total_bytes)
        rmw = extents.total_bytes > useful.total_bytes
        pre = [RequestBatch("read", extents, chunks)] if rmw else []
        return RankPlan(kind, pre + [copy, batch], useful.total_bytes, serialized=rmw)
