"""Two-phase collective I/O: one :class:`CollectivePlan`, two interpreters.

This module is the engine behind every collective entry point in the
repository — :meth:`repro.mpiio.MPIFile.write_at_all` /
:meth:`~repro.mpiio.MPIFile.read_at_all` and the first-class
:class:`repro.core.TwoPhaseIO` access method — implementing the ROMIO
algorithm of Thakur/Gropp/Lusk ("Optimizing Noncontiguous Accesses in
MPI-IO", see PAPERS.md):

1. **Metadata exchange** — every rank ships its (offset, length) list to
   every other rank, as real messages through the simulated fabric.
2. **Aggregator selection + file-domain partitioning** — the first
   ``cb_nodes`` ranks (:func:`select_aggregators`) each own one
   stripe-aligned slice of the aggregate byte range
   (:func:`partition_file_domains`).
3. **Data redistribution** — contributions (writes) or replies (reads)
   move between compute nodes over the network, again as real fabric
   messages, so they show up in Perfetto lanes, resource monitors, and
   the profiler's per-handler tables.
4. **File access** — each aggregator performs one large, (nearly)
   contiguous list-I/O access per *round*.  A round covers at most
   ``cb_buffer`` bytes of each aggregator's domain (ROMIO's collective
   buffer size); ``cb_buffer=None`` means an unbounded buffer, i.e. a
   single round over the whole domain.

Once every offset list is known, :func:`plan_collective` decides steps
2-4 in one place: the domains, the rounds, every exchange message and
every aggregator's per-round file access.  :func:`collective_write` /
:func:`collective_read` run that plan in the simulator, and
:func:`repro.model.predict_twophase` prices the same plan.

All generators here are simulation processes; collectives must be
entered by every rank of the communicator in the same order.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List, Mapping, Optional, Tuple

import numpy as np

from ..config import ClusterConfig
from ..core.base import RankPlan
from ..core.listio import ListIO
from ..errors import PVFSError
from ..mpi import Communicator
from ..regions import RegionList, build_flat_indices
from ..simulate import Event

__all__ = [
    "MPIIOError",
    "Message",
    "CollectivePlan",
    "plan_collective",
    "Exchange",
    "CollectiveContext",
    "stream_positions",
    "select_aggregators",
    "partition_file_domains",
    "round_count",
    "round_window",
    "collective_write",
    "collective_read",
]

#: Metadata record shipped per region during the exchange phase (offset +
#: length, as in ROMIO's offset-list exchange).
META_BYTES_PER_REGION = 16
META_HEADER = 64
DATA_HEADER = 64


class MPIIOError(PVFSError):
    """MPI-IO layer misuse (mismatched collectives, bad views, ...)."""


def _meta_nbytes(regions: RegionList) -> int:
    """Bytes of one rank's offset-list message."""
    return META_HEADER + META_BYTES_PER_REGION * regions.count


# ----------------------------------------------------------------------
# Aggregator selection and file-domain partitioning
# ----------------------------------------------------------------------
def select_aggregators(comm_size: int, cb_nodes: Optional[int] = None) -> Tuple[int, ...]:
    """The aggregating ranks: the first ``cb_nodes`` of the communicator
    (ROMIO's default ``cb_config_list``).  ``None`` means every rank."""
    n = comm_size if cb_nodes is None else cb_nodes
    if not 1 <= n <= comm_size:
        raise MPIIOError(f"cb_nodes must be in 1..{comm_size}")
    return tuple(range(n))


def partition_file_domains(
    metas: Mapping[int, RegionList],
    comm_size: int,
    cb_nodes: int,
    align: int,
) -> List[Tuple[int, int]]:
    """Partition the aggregate byte range into per-rank file domains.

    The aggregate ``[lo, hi)`` extent of all ranks' regions is cut into
    ``cb_nodes`` equal slices, each rounded up to an ``align`` multiple
    (ROMIO aligns domains to the file system's stripe size so one
    aggregator never splits a stripe with its neighbour).  Ranks beyond
    the aggregator set get empty ``(0, 0)`` domains.
    """
    lo, hi = None, None
    for r in metas.values():
        if r.count == 0:
            continue
        a, b = r.extent
        lo = a if lo is None else min(lo, a)
        hi = b if hi is None else max(hi, b)
    if lo is None:
        return [(0, 0)] * comm_size
    align = max(int(align), 1)
    span = hi - lo
    per = -(-span // cb_nodes)
    per = -(-per // align) * align  # round up to stripe multiple
    domains = []
    for d in range(comm_size):
        if d < cb_nodes:
            a = min(lo + d * per, hi)
            b = min(a + per, hi)
        else:
            a = b = 0
        domains.append((a, b))
    return domains


def round_count(domains: List[Tuple[int, int]], cb_buffer: Optional[int]) -> int:
    """Collective-buffer rounds needed to cover the widest domain."""
    if cb_buffer is None:
        return 1
    if cb_buffer < 1:
        raise MPIIOError("cb_buffer must be a positive byte count")
    widest = max((b - a for (a, b) in domains), default=0)
    return max(-(-widest // cb_buffer), 1)


def round_window(domain: Tuple[int, int], rnd: int, cb_buffer: Optional[int]) -> Tuple[int, int]:
    """The slice of ``domain`` that round ``rnd`` covers (empty when the
    domain is already exhausted)."""
    a, b = domain
    if cb_buffer is None:
        return (a, b) if rnd == 0 else (b, b)
    lo = min(a + rnd * cb_buffer, b)
    return (lo, min(lo + cb_buffer, b))


# ----------------------------------------------------------------------
# The plan
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Message:
    """One redistribution message: ``src`` ships ``dst`` the bytes of
    ``regions`` (contributions on writes, replies on reads)."""

    src: int
    dst: int
    regions: RegionList
    #: Bytes on the fabric: header, the region list on writes, and data.
    nbytes: int


@dataclass
class CollectivePlan:
    """Everything one collective does after the metadata exchange."""

    kind: str  # "read" | "write"
    domains: List[Tuple[int, int]]
    #: Offset-list message size of every rank.
    meta_bytes: List[int]
    #: ``outbox[rnd][src]``: the round's messages from ``src``, by
    #: destination (self-messages included; they cross no wire).
    outbox: List[List[List[Message]]]
    #: ``fan_in[rnd][dst]``: how many of the round's messages ``dst`` gets.
    fan_in: List[List[int]]
    #: ``accesses[rnd][rank]``: the coalesced file regions the rank
    #: accesses as an aggregator in that round (empty when idle).
    accesses: List[List[RegionList]]

    @property
    def rounds(self) -> int:
        return len(self.accesses)

    def messages(self) -> Iterator[Message]:
        """Every message, by round, then source, then destination."""
        for box in self.outbox:
            for sent in box:
                yield from sent

    def aggregator_plan(self, rank: int, config: ClusterConfig) -> RankPlan:
        """The rank's file phase: one list-I/O batch per non-empty round."""
        listio = ListIO(split_memory_regions=False)
        steps, useful = [], 0
        for per_rank in self.accesses:
            access = per_rank[rank]
            if access.count:
                one = listio.plan(
                    self.kind, RegionList.single(0, access.total_bytes), access, config
                )
                steps += one.steps
                useful += one.useful_bytes
        return RankPlan(self.kind, steps, useful_bytes=useful)


def _clip_all(regions: RegionList, windows: List[Tuple[int, int]]) -> List[RegionList]:
    """``[regions.clip(a, b) for a, b in windows]`` for a sorted, disjoint
    list: a binary search narrows each clip to the regions it can touch."""
    starts = np.array([a for a, _ in windows], np.int64)
    stops = np.array([b for _, b in windows], np.int64)
    first = np.searchsorted(regions.ends, starts, side="right")
    last = np.searchsorted(regions.offsets, stops, side="left")
    return [
        regions.slice_regions(i, j).clip(a, b) if j > i else RegionList.empty()
        for i, j, (a, b) in zip(first.tolist(), last.tolist(), windows)
    ]


def plan_collective(
    kind: str,
    metas: Mapping[int, RegionList],
    n_aggregators: int,
    stripe_size: int,
    cb_buffer: Optional[int],
) -> CollectivePlan:
    """Plan one collective from every rank's sorted, disjoint file regions
    (``metas[rank]`` for ranks ``0..n-1``)."""
    n = len(metas)
    domains = partition_file_domains(metas, n, n_aggregators, stripe_size)
    outbox, fan_in, accesses = [], [], []
    for rnd in range(round_count(domains, cb_buffer)):
        windows = [round_window(d, rnd, cb_buffer) for d in domains]
        # pieces[r][a]: rank r's regions inside aggregator a's window
        pieces = [_clip_all(metas[r], windows) for r in range(n)]
        box: List[List[Message]] = [[] for _ in range(n)]
        into = [0] * n
        for r in range(n):
            for a, got in enumerate(pieces[r]):
                if got.count == 0:
                    continue
                if kind == "write":
                    nbytes = DATA_HEADER + META_BYTES_PER_REGION * got.count + got.total_bytes
                    box[r].append(Message(r, a, got, nbytes))
                    into[a] += 1
                else:
                    box[a].append(Message(a, r, got, DATA_HEADER + got.total_bytes))
                    into[r] += 1
        merged = [
            RegionList(
                np.concatenate([p[a].offsets for p in pieces]),
                np.concatenate([p[a].lengths for p in pieces]),
            ).coalesced()
            for a in range(n)
        ]
        outbox.append(box)
        fan_in.append(into)
        accesses.append(merged)
    meta_bytes = [_meta_nbytes(metas[r]) for r in range(n)]
    return CollectivePlan(kind, domains, meta_bytes, outbox, fan_in, accesses)


# ----------------------------------------------------------------------
# The DES interpreter
# ----------------------------------------------------------------------
#: Builds a collective's plan from every rank's offset list.
Planner = Callable[[Dict[int, RegionList]], CollectivePlan]


class Exchange:
    """Scratch state shared by all ranks for ONE collective operation.

    Holds the ranks' offset lists, the plan ``build`` makes of them once
    the last one arrives (``meta_event`` succeeds with it), and one
    mailbox per ``(destination, round)``.
    """

    def __init__(self, sim, size: int, build: Planner) -> None:
        self.sim = sim
        self.size = size
        self.build = build
        self.meta: Dict[int, RegionList] = {}
        self.meta_event = Event(sim)
        self.plan: Optional[CollectivePlan] = None
        self._mail: Dict[Tuple[int, int], list] = defaultdict(list)
        self._events: Dict[Tuple[int, int], Event] = {}

    def deposit_meta(self, rank: int, regions: RegionList) -> None:
        if rank in self.meta:
            raise MPIIOError(f"rank {rank} entered the collective twice")
        self.meta[rank] = regions
        if len(self.meta) == self.size:
            self.plan = self.build(self.meta)
            self.meta_event.succeed(self.plan)

    def expect(self, dst: int, rnd: int) -> Event:
        """Event that succeeds with ``dst``'s round-``rnd`` messages as
        ``(src, regions, payload)``, ordered by source."""
        ev = self._events[(dst, rnd)] = Event(self.sim)
        self._fire(dst, rnd)
        return ev

    def deliver(self, rnd: int, msg: Message, payload: Optional[np.ndarray]) -> None:
        self._mail[(msg.dst, rnd)].append((msg.src, msg.regions, payload))
        self._fire(msg.dst, rnd)

    def _fire(self, dst: int, rnd: int) -> None:
        ev = self._events.get((dst, rnd))
        if ev is None or ev.triggered:
            return
        got = self._mail[(dst, rnd)]
        if len(got) >= self.plan.fan_in[rnd][dst]:
            got.sort(key=lambda t: t[0])
            ev.succeed(got)


class CollectiveContext:
    """Per-(file, communicator) registry matching each rank's k-th
    collective call to a shared :class:`Exchange`."""

    def __init__(self, sim, comm: Communicator) -> None:
        self.sim = sim
        self.comm = comm
        self._slots: Dict[Tuple[str, int], Exchange] = {}
        self._calls: Dict[Tuple[str, int], int] = defaultdict(int)

    def slot(self, kind: str, rank: int, build: Planner) -> Exchange:
        gen = self._calls[(kind, rank)]
        self._calls[(kind, rank)] += 1
        key = (kind, gen)
        if key not in self._slots:
            self._slots[key] = Exchange(self.sim, self.comm.size, build)
        return self._slots[key]


def stream_positions(regions: RegionList, clipped: RegionList) -> np.ndarray:
    """Stream offsets (within ``regions``' byte stream) of each clipped
    piece.  ``regions`` must be sorted & disjoint; ``clipped`` must be a
    sub-list of it (as produced by ``regions.clip``)."""
    if clipped.count == 0:
        return np.empty(0, np.int64)
    starts = np.concatenate(([0], np.cumsum(regions.lengths)[:-1]))
    idx = np.searchsorted(regions.ends, clipped.offsets, side="right")
    return starts[idx] + (clipped.offsets - regions.offsets[idx])


def _flat(regions: RegionList, piece: RegionList) -> np.ndarray:
    """Flat indices of ``piece``'s bytes within ``regions``' stream."""
    return build_flat_indices(stream_positions(regions, piece), piece.lengths)


def _node_of(f, rank: int):
    return f.client.cluster.clients[rank].node


def _enter(f, comm: Communicator, rank: int, ctx, kind, regions, cb_nodes, cb_buffer):
    """Phase 0 (process): join the collective, ship this rank's offset
    list to every peer, and return the exchange and the plan."""
    n_aggregators = len(select_aggregators(comm.size, cb_nodes))
    stripe_size = f.stripe.stripe_size

    def build(metas):
        return plan_collective(kind, metas, n_aggregators, stripe_size, cb_buffer)

    ex = ctx.slot(kind, rank, build)
    ex.deposit_meta(rank, regions)
    sim = f.client.sim
    net = f.client.cluster.net
    nbytes = _meta_nbytes(regions)
    sends = [
        sim.process(net.transfer(_node_of(f, rank), _node_of(f, d), nbytes))
        for d in range(comm.size)
        if d != rank
    ]
    if sends:
        yield sim.all_of(sends)
    plan = yield ex.meta_event
    return ex, plan


def _ship(f, ex: Exchange, rnd: int, msg: Message, payload):
    if msg.dst != msg.src:
        yield from f.client.cluster.net.transfer(
            _node_of(f, msg.src), _node_of(f, msg.dst), msg.nbytes
        )
    else:
        yield f.client.sim.timeout(0)
    ex.deliver(rnd, msg, payload)


def collective_write(
    f,
    comm: Communicator,
    rank: int,
    ctx: CollectiveContext,
    regions: RegionList,
    stream: Optional[np.ndarray],
    *,
    cb_nodes: Optional[int] = None,
    cb_buffer: Optional[int] = None,
):
    """Two-phase collective write (process).

    ``regions`` are this rank's sorted, disjoint file regions and
    ``stream`` the matching packed byte stream (``None`` on timing-only
    clusters).  Every rank of ``comm`` must enter with the same
    ``cb_nodes``/``cb_buffer``.
    """
    client = f.client
    sim = client.sim
    ex, plan = yield from _enter(f, comm, rank, ctx, "write", regions, cb_nodes, cb_buffer)
    move = client.move_bytes and stream is not None
    for rnd in range(plan.rounds):
        # -- phase 1: redistribute this round's data to aggregators --
        arrival = ex.expect(rank, rnd)
        sends = []
        for msg in plan.outbox[rnd][rank]:
            payload = np.ascontiguousarray(stream[_flat(regions, msg.regions)]) if move else None
            sends.append(sim.process(_ship(f, ex, rnd, msg, payload)))
        if sends:
            yield sim.all_of(sends)

        # -- phase 2: aggregate and write my window ------------------
        contribs = yield arrival
        access = plan.accesses[rnd][rank]
        if access.count:
            buffer = None
            if client.move_bytes:
                buffer = np.zeros(access.total_bytes, np.uint8)
                for _src, got, payload in contribs:
                    if payload is not None:
                        buffer[_flat(access, got)] = payload
            # assembly cost
            yield sim.timeout(access.total_bytes / client.costs.memcpy_rate)
            yield from f.write_list(access, buffer)
    yield comm.barrier()


def collective_read(
    f,
    comm: Communicator,
    rank: int,
    ctx: CollectiveContext,
    regions: RegionList,
    *,
    cb_nodes: Optional[int] = None,
    cb_buffer: Optional[int] = None,
):
    """Two-phase collective read (process); returns this rank's packed
    byte stream (``None`` on timing-only clusters)."""
    client = f.client
    sim = client.sim
    ex, plan = yield from _enter(f, comm, rank, ctx, "read", regions, cb_nodes, cb_buffer)
    # Replies leave in the order the ranks entered the collective.
    entered = {r: i for i, r in enumerate(ex.meta)}
    out = None
    if client.move_bytes:
        out = np.zeros(regions.total_bytes, np.uint8)
    for rnd in range(plan.rounds):
        reply_ev = ex.expect(rank, rnd)

        # -- phase 1: aggregator reads its window --------------------
        access = plan.accesses[rnd][rank]
        if access.count:
            data = yield from f.read_list(access)
            # -- phase 2: ship each requester its pieces -------------
            ship = []
            for msg in sorted(plan.outbox[rnd][rank], key=lambda m: entered[m.dst]):
                payload = None
                if client.move_bytes and data is not None:
                    payload = np.ascontiguousarray(data[_flat(access, msg.regions)])
                ship.append(sim.process(_ship(f, ex, rnd, msg, payload)))
            yield sim.all_of(ship)

        # -- phase 3: assemble my stream from this round's replies ---
        replies = yield reply_ev
        if out is not None:
            for _src, got, payload in replies:
                if payload is not None:
                    out[_flat(regions, got)] = payload
    if regions.count:
        yield sim.timeout(regions.total_bytes / client.costs.memcpy_rate)
    yield comm.barrier()
    return out
