"""List I/O — the paper's contribution (Section 3.3).

The whole noncontiguous file side is handed to the PVFS client library as a
region list; the library packs up to 64 (offset, length) pairs of trailing
data per request so each request still fits one Ethernet frame, and the I/O
servers process entire lists per request.  The memory side is packed (for
writes) or unpacked (for reads) between the user's buffer and the request
byte stream with one vectorized gather/scatter, charged at the client's
memory-copy rate.

Memory-side splitting
---------------------
The paper's *text* derives request counts from the file-region cap alone
(FLASH: 1,920 file regions -> 30 requests per processor).  Its *measured*
Figure 15, however, is only consistent with an implementation that also
bounds each request by the number of *memory* regions it touches (983,040
8-byte memory regions -> 15,360 requests per processor): the staging of one
request's data cannot reference more descriptor pairs than a request
carries.  ``ListIO(split_memory_regions=True)`` (the default) reproduces
the measured behaviour by decomposing the transfer into (memory, file)
piece pairs before applying the cap; ``False`` gives the text's file-only
accounting.  EXPERIMENTS.md reports both.
"""

from __future__ import annotations

import numpy as np

from ..regions import RegionList, pair_pieces
from .base import AccessMethod, RankPlan, single_batch_plan

__all__ = ["ListIO"]


class ListIO(AccessMethod):
    """Native noncontiguous requests via ``pvfs_read_list``/``pvfs_write_list``."""

    name = "list"

    def __init__(self, split_memory_regions: bool = True) -> None:
        self.split_memory_regions = split_memory_regions

    def plan(self, kind, mem_regions, file_regions, config) -> RankPlan:
        if self.split_memory_regions:
            _, file_off, lengths = pair_pieces(mem_regions, file_regions)
            regions = RegionList(file_off, lengths)
        else:
            regions = file_regions.drop_empty()
        chunks = np.arange(regions.count, dtype=np.int64) // config.list_io_max_regions
        return single_batch_plan(kind, regions, chunks, copy=True)
