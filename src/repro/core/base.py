"""The access-method interface: one plan, two interpreters.

An :class:`AccessMethod` performs one noncontiguous transfer between a
client memory buffer and an open PVFS file, described exactly as in the
paper's interface (Section 3.3): a list of memory regions and a list of
file regions whose flattened byte streams correspond 1:1.

Each method defines its semantics once, in :meth:`AccessMethod.plan`: the
transfer compiles to a :class:`RankPlan`, an ordered list of request
batches and client copies.  :meth:`AccessMethod.execute` runs that plan
in the discrete-event simulator; :func:`repro.model.predict_plans` prices
the same plan analytically.  Reads and writes are simulation processes::

    method = ListIO()
    yield from method.read(f, memory, mem_regions, file_regions)

``memory`` may be ``None`` on timing-only clusters (``move_bytes=False``);
methods then skip real data movement but charge identical simulated time.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import List, Optional, Union

import numpy as np

from ..config import ClusterConfig
from ..errors import RegionError
from ..regions import RegionList, build_flat_indices
from ..pvfs.client import PVFSFile

__all__ = ["AccessMethod", "ClientCopy", "RankPlan", "RequestBatch", "validate_transfer"]

#: A descriptor-described request carries two 16-byte trailing-data slots
#: (offset/count and blocklen/stride of a vector datatype).
DESCRIPTOR_SLOTS = 2


def validate_transfer(
    memory: Optional[np.ndarray],
    mem_regions: RegionList,
    file_regions: RegionList,
) -> None:
    """Check the paper's interface contract for one transfer."""
    if mem_regions.total_bytes != file_regions.total_bytes:
        raise RegionError(
            f"memory regions describe {mem_regions.total_bytes} B but file "
            f"regions describe {file_regions.total_bytes} B"
        )
    if memory is not None and mem_regions.count:
        end = mem_regions.extent[1]
        if end > memory.size:
            raise RegionError(
                f"memory regions extend to byte {end} but the buffer holds "
                f"only {memory.size}"
            )


@dataclass
class RequestBatch:
    """Plan step: logical requests of one kind, issued in order."""

    kind: str  # "read" | "write"
    #: File regions on the wire, in request order (includes sieving
    #: waste: gaps inside fetched windows and extents).
    regions: RegionList
    #: Logical request id of every region (monotone, 0-based).
    chunk_of_region: np.ndarray
    #: Trailing-data sizing: "per_region" (one 16-byte slot per described
    #: region) or "descriptor" (two slots regardless of count).
    wire_mode: str = "per_region"
    #: The transfer's own file regions inside ``regions``, each contiguous
    #: in the batch's wire stream; None when every wire byte is one.
    useful: Optional[RegionList] = None

    def __post_init__(self) -> None:
        if self.kind not in ("read", "write"):
            raise RegionError(f"bad request kind {self.kind!r}")
        if self.wire_mode not in ("per_region", "descriptor"):
            raise RegionError(f"bad wire_mode {self.wire_mode!r}")
        if len(self.chunk_of_region) != self.regions.count:
            raise RegionError("chunk_of_region must parallel regions")
        chunks = self.chunk_of_region
        if chunks.size and (chunks[0] != 0 or np.any(chunks[1:] < chunks[:-1])):
            raise RegionError("chunk_of_region must be monotone and 0-based")

    @property
    def n_requests(self) -> int:
        if self.chunk_of_region.size == 0:
            return 0
        return int(self.chunk_of_region[-1]) + 1

    def useful_positions(self) -> np.ndarray:
        """Flat indices of the useful bytes within the wire stream."""
        wire, want = self.regions, self.useful.drop_empty()
        base = np.cumsum(wire.lengths) - wire.lengths
        which = np.searchsorted(wire.offsets, want.offsets, side="right") - 1
        start = base[which] + (want.offsets - wire.offsets[which])
        return build_flat_indices(start, want.lengths)


@dataclass
class ClientCopy:
    """Plan step: the client packs or unpacks ``nbytes`` at memcpy rate."""

    nbytes: int


Step = Union[RequestBatch, ClientCopy]


@dataclass
class RankPlan:
    """One rank's compiled transfer: what a method puts on the wire.

    Steps run in order.  In a write plan, a read batch is the pre-read of
    a read-modify-write: its bytes become the buffer the next write batch
    overlays and sends back.
    """

    kind: str  # "read" | "write"
    steps: List[Step]
    #: Application-useful bytes of the transfer.
    useful_bytes: int
    #: Whether concurrent ranks must serialize this plan (RMW writes).
    serialized: bool = False
    #: Requests of one batch kept in flight at once (nonblocking I/O).
    depth: int = 1

    @property
    def batches(self) -> List[RequestBatch]:
        return [s for s in self.steps if isinstance(s, RequestBatch)]

    @property
    def n_requests(self) -> int:
        return sum(b.n_requests for b in self.batches)

    @property
    def moved_bytes(self) -> int:
        """Bytes of file data crossing the wire (waste included)."""
        return sum(b.regions.total_bytes for b in self.batches)

    @property
    def wasted_bytes(self) -> int:
        return self.moved_bytes - self.useful_bytes


def single_batch_plan(
    kind: str, regions: RegionList, chunk_of_region: np.ndarray, copy: bool, **batch
) -> RankPlan:
    """The plan of a method that moves exactly the requested bytes in one
    batch, with (``copy``) or without a pack/unpack pass."""
    steps: List[Step] = [RequestBatch(kind, regions, chunk_of_region, **batch)]
    if copy:
        steps.insert(0 if kind == "write" else 1, ClientCopy(regions.total_bytes))
    return RankPlan(kind, steps, useful_bytes=regions.total_bytes)


class AccessMethod(ABC):
    """Base class: one noncontiguous read/write strategy."""

    #: Short name used in experiment tables ("multiple", "datasieve", ...).
    name: str = "base"
    #: Prefix of the client counters that account fetched-but-unwanted
    #: bytes (``<prefix>_fetched_bytes``, ``_wasted_bytes``, ``_rmw_bytes``).
    waste_counter: Optional[str] = None

    @abstractmethod
    def plan(self, kind: str, mem_regions: RegionList, file_regions: RegionList,
             config: ClusterConfig) -> RankPlan:
        """Compile one rank's transfer into a :class:`RankPlan`."""

    def read(self, f: PVFSFile, memory, mem_regions, file_regions):
        """Simulation process: file regions -> memory regions."""
        yield from self._run("read", f, memory, mem_regions, file_regions)

    def write(self, f: PVFSFile, memory, mem_regions, file_regions):
        """Simulation process: memory regions -> file regions.  Plans that
        read-modify-write are unsafe under concurrency: wrap them with
        :meth:`serialized_write` when several clients target one file."""
        yield from self._run("write", f, memory, mem_regions, file_regions)

    def serialized_write(self, comm, rank: int, f: PVFSFile, memory, mem_regions, file_regions):
        """:meth:`write` inside the paper's barrier loop (Section 4.3.1)."""
        yield from self._run("write", f, memory, mem_regions, file_regions, comm, rank)

    def _run(self, kind, f, memory, mem_regions, file_regions, comm=None, rank=0):
        validate_transfer(memory, mem_regions, file_regions)
        plan = self.plan(kind, mem_regions, file_regions, f.client.cluster.config)
        yield from self.execute(plan, f, memory, mem_regions, comm, rank)

    # -- the DES interpreter ---------------------------------------------
    def execute(self, plan: RankPlan, f: PVFSFile, memory: Optional[np.ndarray],
                mem_regions: RegionList, comm=None, rank: int = 0):
        """Simulation process: run ``plan`` against ``f``.

        With a communicator the plan runs in the paper's barrier loop: in
        each round exactly one rank transfers, then everybody synchronizes.
        """
        if comm is not None:
            for turn in range(comm.size):
                if turn == rank:
                    yield from self.execute(plan, f, memory, mem_regions)
                yield comm.barrier()
            return
        sim = f.client.sim
        move = memory is not None and f.client.move_bytes
        # The useful stream: the memory regions' bytes in file-region order.
        stream = None
        if move and plan.kind == "write":
            stream = self._gather_memory(memory, mem_regions)
        pieces = []  # read: useful stream pieces, in order
        pos = 0
        base = None  # pre-read bytes the next write batch overlays
        for step in plan.steps:
            if isinstance(step, ClientCopy):
                t = self._memcpy_time(f, step.nbytes)
                if t > 0:
                    yield sim.timeout(t)
            elif step.kind == "read":
                data = yield from _issue(f, step, None, plan.depth)
                if plan.kind == "write":
                    base = data
                elif move and data is not None:
                    pieces.append(data if step.useful is None else data[step.useful_positions()])
            else:
                data = None
                if stream is not None:
                    n = (step.regions if step.useful is None else step.useful).total_bytes
                    data = stream[pos : pos + n]
                    pos += n
                    if step.useful is not None:
                        if base is None:
                            base = np.empty(step.regions.total_bytes, np.uint8)
                        base[step.useful_positions()] = data
                        data = base
                base = None
                yield from _issue(f, step, data, plan.depth)
        if pieces:
            got = pieces[0] if len(pieces) == 1 else np.concatenate(pieces)
            self._scatter_memory(memory, mem_regions, got)
        if self.waste_counter is not None:
            moved = sum(b.regions.total_bytes for b in plan.batches if b.kind == plan.kind)
            extra = moved - plan.useful_bytes
            scope, tag = f.client.scope, self.waste_counter
            if plan.kind == "read":
                scope.add(f"{tag}_fetched_bytes", moved)
                scope.add(f"{tag}_wasted_bytes", extra)
            else:
                scope.add(f"{tag}_rmw_bytes", extra)

    # -- shared helpers --------------------------------------------------
    @staticmethod
    def _memcpy_time(f: PVFSFile, nbytes: int) -> float:
        """Client-side pack/unpack cost for ``nbytes`` of data movement."""
        return nbytes / f.client.costs.memcpy_rate

    @staticmethod
    def _gather_memory(memory: Optional[np.ndarray], mem_regions: RegionList):
        """Memory regions -> contiguous stream (None stays None)."""
        if memory is None:
            return None
        idx = build_flat_indices(mem_regions.offsets, mem_regions.lengths)
        return memory[idx]

    @staticmethod
    def _scatter_memory(
        memory: Optional[np.ndarray], mem_regions: RegionList, stream
    ) -> None:
        """Contiguous stream -> memory regions (no-op when timing-only)."""
        if memory is None or stream is None:
            return
        idx = build_flat_indices(mem_regions.offsets, mem_regions.lengths)
        memory[idx] = stream

    def __repr__(self) -> str:
        return f"<{type(self).__name__}>"


def _issue(f: PVFSFile, batch: RequestBatch, data: Optional[np.ndarray], depth: int):
    """Simulation process: issue ``batch``'s requests, at most ``depth`` in
    flight; returns the batch's read stream (None when timing-only)."""
    chunks = batch.chunk_of_region
    cuts = np.flatnonzero(chunks[1:] != chunks[:-1]) + 1
    starts = [0] + cuts.tolist() if chunks.size else []
    stops = starts[1:] + [chunks.size]
    bounds = np.concatenate(([0], np.cumsum(batch.regions.lengths)))
    parts = [None] * len(starts)
    slots = DESCRIPTOR_SLOTS if batch.wire_mode == "descriptor" else None

    def one(i):
        sub = batch.regions.slice_regions(starts[i], stops[i])
        if batch.kind == "read":
            parts[i] = yield from f.read_described(sub, slots) if slots else f.read_list(sub)
            return
        payload = None if data is None else data[bounds[starts[i]] : bounds[stops[i]]]
        yield from f.write_described(sub, payload, slots) if slots else f.write_list(sub, payload)

    if depth == 1:
        for i in range(len(starts)):
            yield from one(i)
    else:
        window = []
        for i in range(len(starts)):
            if len(window) >= depth:
                yield window.pop(0)
            window.append(f.client.sim.process(one(i)))
        if window:
            yield f.client.sim.all_of(window)
    if batch.kind == "write" or not f.client.move_bytes or not parts:
        return None
    return parts[0] if len(parts) == 1 else np.concatenate(parts)
