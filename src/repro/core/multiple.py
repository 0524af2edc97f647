"""Multiple I/O: one contiguous PVFS request per contiguous piece.

This is the baseline the paper attacks (Section 3.1): "the number of
contiguous I/O calls increases linearly with the number of contiguous
regions in the noncontiguous request".  The transfer is decomposed into
pieces that are contiguous in *both* memory and file (the pairwise walk of
the two region lists), and each piece becomes an independent blocking
``read``/``write`` call.

``pipeline_depth`` > 1 models an application using nonblocking contiguous
operations with a bounded number outstanding — an obvious "fix" for
multiple I/O the paper does not evaluate.  The ablation benchmarks show it
helps (latency overlaps) but cannot approach list I/O: every request still
pays full server-side processing, so the servers, not the round trips,
become the wall.
"""

from __future__ import annotations

import numpy as np

from ..errors import ConfigError
from ..regions import RegionList, pair_pieces
from .base import AccessMethod, RankPlan, single_batch_plan

__all__ = ["MultipleIO"]


class MultipleIO(AccessMethod):
    """The traditional approach: one I/O request per contiguous region."""

    name = "multiple"

    def __init__(self, pipeline_depth: int = 1) -> None:
        if pipeline_depth < 1:
            raise ConfigError("pipeline_depth must be >= 1")
        self.pipeline_depth = pipeline_depth

    def plan(self, kind, mem_regions, file_regions, config) -> RankPlan:
        _, file_off, lengths = pair_pieces(mem_regions, file_regions)
        plan = single_batch_plan(
            kind,
            RegionList(file_off, lengths),
            np.arange(lengths.size, dtype=np.int64),
            copy=False,
        )
        plan.depth = self.pipeline_depth
        return plan
