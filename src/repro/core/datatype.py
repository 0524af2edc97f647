"""Datatype (vector) I/O — the paper's second Section 5 extension.

    "Support for I/O requests that use an approach similar to MPI
    datatypes, for example, would describe these patterns with vector
    datatypes.  This would eliminate the linear relationship between the
    number of contiguous regions and the number of I/O requests."

:class:`VectorIO` expresses a *regular* file access (constant region length
and constant stride — an MPI ``Create_vector``) as a single compact
descriptor, so the whole transfer is ONE logical request no matter how many
regions it touches.  The I/O servers still pay their per-region service
cost (they must build the iovec either way); what disappears is the
per-request overhead and the trailing-data volume — exactly the drawback
of list I/O that the paper calls out.

Irregular patterns are rejected by default; with ``fallback=True`` they
degrade to plain list I/O.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from ..errors import RegionError
from ..regions import RegionList
from .base import AccessMethod, RankPlan, single_batch_plan
from .listio import ListIO

__all__ = ["VectorIO", "as_vector"]


def as_vector(regions: RegionList) -> Optional[Tuple[int, int, int, int]]:
    """Recognize ``regions`` as (start, count, blocklen, stride), or None.

    A single region is the degenerate vector (count=1).  Requires uniform
    lengths and uniform positive stride.
    """
    r = regions.drop_empty()
    if r.count == 0:
        return None
    lengths = np.unique(r.lengths)
    if lengths.size != 1:
        return None
    blocklen = int(lengths[0])
    if r.count == 1:
        return (int(r.offsets[0]), 1, blocklen, blocklen)
    strides = np.unique(np.diff(r.offsets))
    if strides.size != 1 or strides[0] <= 0:
        return None
    return (int(r.offsets[0]), r.count, blocklen, int(strides[0]))


class VectorIO(AccessMethod):
    """One-request noncontiguous access for strided patterns."""

    name = "vector"

    def __init__(self, fallback: bool = False) -> None:
        #: When True, irregular patterns fall back to list I/O instead of
        #: raising.
        self.fallback = fallback

    def plan(self, kind, mem_regions, file_regions, config) -> RankPlan:
        if as_vector(file_regions) is None:
            if not self.fallback:
                raise RegionError(
                    "VectorIO requires a regular (constant length, constant "
                    "stride) file access pattern; use fallback=True to degrade "
                    "to list I/O"
                )
            return ListIO().plan(kind, mem_regions, file_regions, config)
        regions = file_regions.drop_empty()
        chunks = np.zeros(regions.count, dtype=np.int64)
        return single_batch_plan(kind, regions, chunks, copy=True, wire_mode="descriptor")
