"""Noncontiguous access methods: the paper's three contenders + extensions.

Each method compiles a transfer into a :class:`RankPlan` (``plan``); the
simulator executes that plan and the analytic model prices it.

* :class:`MultipleIO` — one contiguous request per region (Section 3.1).
* :class:`DataSievingIO` — 32 MB buffered windows, RMW writes (Section 3.2).
* :class:`ListIO` — native noncontiguous requests, 64 regions per request
  (Section 3.3, the contribution).
* :class:`HybridIO` — list I/O over gap-clustered extents (Section 5).
* :class:`VectorIO` — datatype-described single-request access (Section 5).
* :class:`TwoPhaseIO` — ROMIO-style two-phase collective I/O (the
  Thakur/Gropp/Lusk algorithm the paper benchmarks against).
"""

from .api import pvfs_read_list, pvfs_write_list
from .base import AccessMethod, ClientCopy, RankPlan, RequestBatch, validate_transfer
from .datasieve import DataSievingIO
from .datatype import VectorIO, as_vector
from .hybrid import HybridIO, cluster_extents
from .listio import ListIO
from .multiple import MultipleIO
from .twophase import TwoPhaseIO

#: Registry used by the experiment harness and CLI.
METHODS = {
    "multiple": MultipleIO,
    "datasieve": DataSievingIO,
    "list": ListIO,
    "hybrid": HybridIO,
    "vector": VectorIO,
    "twophase": TwoPhaseIO,
}

__all__ = [
    "AccessMethod",
    "RankPlan",
    "RequestBatch",
    "ClientCopy",
    "MultipleIO",
    "DataSievingIO",
    "ListIO",
    "HybridIO",
    "VectorIO",
    "TwoPhaseIO",
    "METHODS",
    "pvfs_read_list",
    "pvfs_write_list",
    "validate_transfer",
    "cluster_extents",
    "as_vector",
]
