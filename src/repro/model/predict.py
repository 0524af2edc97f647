"""Closed-form performance prediction from compiled request plans.

The predictor computes three classic bounds for the parallel transfer and
takes their maximum (queueing-free bottleneck analysis):

* **server bound** — the busiest I/O daemon's total work: per-message parse
  cost, per-region service cost, disk model time, and (for writes) the
  per-message commit cost;
* **network bound** — the busiest NIC's serialization time (client or
  server side, wire bytes including framing overhead);
* **client bound** — the longest client's critical path: its own CPU
  costs, its wire time, two message latencies per logical request, and its
  requests' *unloaded* service time divided by the per-request server
  parallelism.

The plans are the ones the simulator executes (each access method's
``plan``); the model folds a plan's read and write batches into an RMW
pre-read phase and a main phase that carries the client-copy bytes.
Serialized plans (data sieving / hybrid RMW writes) add up client paths
instead of maxing them, plus a barrier term — matching the paper's
``MPI_Barrier()`` loop.

All load attribution is computed *exactly* from the plans via vectorized
striping decomposition; only queueing is approximated.  The test suite
cross-validates predictions against the discrete-event simulator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Tuple

import numpy as np

from ..config import ClusterConfig
from ..core import METHODS, ClientCopy, RankPlan, RequestBatch
from ..errors import ModelError
from ..patterns.base import Pattern
from ..pvfs.protocol import REQUEST_HEADER_BYTES, RESPONSE_HEADER_BYTES
from ..regions import RegionList, split_with_parents

__all__ = ["Prediction", "compile_rank_plan", "predict_pattern", "predict_plans"]


@dataclass
class Prediction:
    """Predicted elapsed time and its contributing bounds."""

    elapsed: float
    server_bound: float
    network_bound: float
    client_bound: float
    serialized: bool
    n_logical_requests: int
    n_server_messages: int
    moved_bytes: int
    useful_bytes: int
    per_server_work: List[float] = field(default_factory=list)
    per_client_path: List[float] = field(default_factory=list)
    #: Collective exchange time (two-phase metadata + redistribution);
    #: 0 for the independent methods.
    exchange_bound: float = 0.0

    @property
    def wasted_bytes(self) -> int:
        return self.moved_bytes - self.useful_bytes

    def __repr__(self) -> str:
        return (
            f"<Prediction {self.elapsed:.3f}s "
            f"(server={self.server_bound:.3f} net={self.network_bound:.3f} "
            f"client={self.client_bound:.3f}) reqs={self.n_logical_requests}>"
        )


def _wire(cfg: ClusterConfig, payload):
    """Vectorized wire bytes (payload + per-frame overhead)."""
    payload = np.asarray(payload, dtype=np.float64)
    frames = np.ceil(np.maximum(payload, 1) / cfg.network.mtu_payload)
    return payload + frames * (cfg.network.frame_overhead + cfg.network.ip_tcp_overhead)


class _Loads:
    """Accumulated per-server load totals."""

    def __init__(self, n_servers: int) -> None:
        self.msgs = np.zeros(n_servers)
        self.pieces = np.zeros(n_servers)
        self.bytes = np.zeros(n_servers)
        self.write_msgs = np.zeros(n_servers)
        self.write_bytes = np.zeros(n_servers)
        self.read_bytes = np.zeros(n_servers)
        self.rx_wire = np.zeros(n_servers)  # into servers
        self.tx_wire = np.zeros(n_servers)  # out of servers


def _merge(kind: str, batches: List[RequestBatch]) -> RequestBatch:
    """One batch holding ``batches``' regions in order, request ids dense."""
    if len(batches) == 1:
        return batches[0]
    if not batches:
        return RequestBatch(kind, RegionList.empty(), np.empty(0, np.int64))
    first = np.cumsum([0] + [b.n_requests for b in batches[:-1]])
    return RequestBatch(
        kind,
        RegionList(
            np.concatenate([b.regions.offsets for b in batches]),
            np.concatenate([b.regions.lengths for b in batches]),
        ),
        np.concatenate([b.chunk_of_region + k for b, k in zip(batches, first)]),
        wire_mode=batches[0].wire_mode,
    )


def _phases(plan: RankPlan) -> List[Tuple[RequestBatch, int]]:
    """``(batch, client-copy bytes)`` per phase: a write plan's read
    batches (the RMW pre-read) first, then the main batches with every
    client copy."""
    pre = [b for b in plan.batches if b.kind != plan.kind]
    main = [b for b in plan.batches if b.kind == plan.kind]
    copy = sum(s.nbytes for s in plan.steps if isinstance(s, ClientCopy))
    return ([(_merge("read", pre), 0)] if pre else []) + [(_merge(plan.kind, main), copy)]


def _messages(
    server: np.ndarray, chunk: np.ndarray, n_requests: int
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Group stripe pieces into server messages, one per (server, request).

    Returns ``np.unique(server * n_requests + chunk, return_inverse=True,
    return_counts=True)`` in linear time: ``chunk`` is non-decreasing (a
    plan's request ids are monotone and pieces keep their parent's order),
    so the keys are already sorted within each server and a stable radix
    sort by server orders them all; messages are the runs of equal key.
    """
    key = server * np.int64(n_requests) + chunk
    if key.size == 0:
        return key, np.empty(0, np.intp), np.empty(0, np.intp)
    small = np.min_scalar_type(int(server.max()))
    order = np.argsort(server.astype(small), kind="stable")
    ordered = key[order]
    first = np.empty(ordered.size, dtype=bool)
    first[0] = True
    np.not_equal(ordered[1:], ordered[:-1], out=first[1:])
    inverse = np.empty(ordered.size, dtype=np.intp)
    inverse[order] = np.cumsum(first) - 1
    starts = np.flatnonzero(first)
    counts = np.diff(starts, append=ordered.size)
    return ordered[starts], inverse, counts


def _decompose_phase(phase: RequestBatch, cfg: ClusterConfig, loads: _Loads) -> Dict[str, float]:
    """Attribute one phase's load to servers/links; return rank-local stats."""
    pcount = cfg.stripe.resolve_pcount(cfg.n_iods)
    ssize = cfg.stripe.stripe_size
    pieces, parents = split_with_parents(phase.regions, ssize)
    if pieces.count == 0:
        return {"msgs": 0.0, "work": 0.0, "req_wire": 0.0, "resp_wire": 0.0}
    unit = pieces.offsets // ssize
    server = ((cfg.stripe.base + unit % pcount) % cfg.n_iods).astype(np.int64)
    uniq, inverse, counts = _messages(server, phase.chunk_of_region[parents], phase.n_requests)
    msg_server = uniq // phase.n_requests
    lengths = pieces.lengths.astype(np.float64)
    msg_bytes = np.bincount(inverse, weights=lengths)
    # -- wire sizing per message --------------------------------------
    if phase.wire_mode == "descriptor":
        trailing = np.full(len(uniq), 32.0)
    else:
        trailing = np.where(counts > 1, 16.0 * counts, 0.0)
    if phase.kind == "write":
        req_payload = REQUEST_HEADER_BYTES + trailing + msg_bytes
        resp_payload = np.full(len(uniq), float(RESPONSE_HEADER_BYTES))
    else:
        req_payload = REQUEST_HEADER_BYTES + trailing
        resp_payload = RESPONSE_HEADER_BYTES + msg_bytes
    req_wire = _wire(cfg, req_payload)
    resp_wire = _wire(cfg, resp_payload)
    # -- accumulate -----------------------------------------------------
    ns = cfg.n_iods
    server_msgs = np.bincount(msg_server, minlength=ns)
    server_bytes = np.bincount(server, weights=lengths, minlength=ns)
    loads.msgs += server_msgs
    loads.pieces += np.bincount(server, minlength=ns)
    loads.bytes += server_bytes
    if phase.kind == "write":
        loads.write_msgs += server_msgs
        loads.write_bytes += server_bytes
    else:
        loads.read_bytes += server_bytes
    loads.rx_wire += np.bincount(msg_server, weights=req_wire, minlength=ns)
    loads.tx_wire += np.bincount(msg_server, weights=resp_wire, minlength=ns)
    # -- rank-local -------------------------------------------------------
    costs = cfg.costs
    nbytes = float(pieces.lengths.sum())
    work = (
        len(uniq) * costs.iod_request_cost
        + pieces.count * costs.iod_region_cost
        + _disk_time_estimate(cfg, kind=phase.kind, nbytes=nbytes, unique_bytes=nbytes)
    )
    if phase.kind == "write":
        work += len(uniq) * costs.iod_write_commit_cost
    return {
        "msgs": float(len(uniq)),
        "work": work,
        "req_wire": float(req_wire.sum()),
        "resp_wire": float(resp_wire.sum()),
    }


def _disk_time_estimate(cfg: ClusterConfig, kind: str, nbytes: float, unique_bytes: float) -> float:
    """Disk service estimate for ``nbytes`` of access, of which
    ``unique_bytes`` are first-touch (media) bytes."""
    cache = cfg.cache
    disk = cfg.disk
    memcpy = nbytes / cache.memory_copy_rate
    if kind == "read":
        media = unique_bytes / disk.transfer_rate
        window = max(cache.readahead, cache.block_size)
        positionings = unique_bytes / window
        return memcpy + media + positionings * disk.positioning_time
    # write-back: media only for volume beyond the cache
    spill = max(unique_bytes - cache.capacity, 0.0)
    media = spill / disk.transfer_rate
    positionings = spill / max(cache.capacity, cache.block_size)
    return memcpy + media + positionings * disk.positioning_time


def predict_plans(plans: Iterable[RankPlan], cfg: ClusterConfig) -> Prediction:
    """Predict the elapsed time of one parallel transfer phase-set.

    ``plans`` (one per rank, in rank order) are priced in a single pass,
    so a generator keeps only one rank's plan alive at a time."""
    loads = _Loads(cfg.n_iods)
    client_paths, client_tx, client_rx = [], [], []
    total_requests = 0
    total_msgs = 0
    moved = 0
    useful = 0
    serialized = False
    # Extent and volume of every read batch, for the shared-cache cap below.
    read_lo, read_hi, read_total = math.inf, 0, 0
    costs = cfg.costs
    bw = cfg.network.bandwidth
    for plan in plans:
        useful += plan.useful_bytes
        serialized = serialized or plan.serialized
        for batch in plan.batches:
            if batch.kind == "read" and batch.regions.count:
                a, b = batch.regions.extent
                read_lo, read_hi = min(read_lo, a), max(read_hi, b)
                read_total += batch.regions.total_bytes
        path = tx = rx = 0.0
        for phase, copy in _phases(plan):
            stats = _decompose_phase(phase, cfg, loads)
            tx += stats["req_wire"]
            rx += stats["resp_wire"]
            moved += phase.regions.total_bytes
            n_req = phase.n_requests
            total_requests += n_req
            total_msgs += int(stats["msgs"])
            if n_req == 0:
                continue
            fanout = max(stats["msgs"] / n_req, 1.0)
            step = (
                n_req * (costs.client_request_cost + 2 * cfg.network.latency)
                + phase.regions.count * costs.client_region_cost
                + (stats["req_wire"] + stats["resp_wire"]) / bw
                + stats["work"] / fanout
                + copy / costs.memcpy_rate
            )
            if phase.kind == "write":
                step += n_req * costs.client_write_turnaround
            path += step
        client_paths.append(path)
        client_tx.append(tx)
        client_rx.append(rx)
    if not client_paths:
        raise ModelError("predict_plans needs at least one rank plan")
    n_clients = len(client_paths)
    client_paths = np.array(client_paths)

    # -- server bound -----------------------------------------------------
    # Shared-cache correction: when several ranks fetch the same bytes
    # (sieving reads overlapping windows), only first touches hit media.
    # Approximate unique read bytes per server by capping at the striped
    # share of the union extent.
    union = float(min(read_total, read_hi - read_lo)) if read_hi else 0.0
    union_cap = union / max(cfg.stripe.resolve_pcount(cfg.n_iods), 1)
    server_work = np.zeros(cfg.n_iods)
    for s in range(cfg.n_iods):
        read_unique = min(loads.read_bytes[s], union_cap)
        work = (
            loads.msgs[s] * costs.iod_request_cost
            + loads.pieces[s] * costs.iod_region_cost
            + loads.write_msgs[s] * costs.iod_write_commit_cost
            + _disk_time_estimate(cfg, "read", loads.read_bytes[s], read_unique)
            + _disk_time_estimate(cfg, "write", loads.write_bytes[s], loads.write_bytes[s])
        )
        server_work[s] = work
    server_bound = float(server_work.max())

    # -- network bound ------------------------------------------------------
    link_times = np.concatenate(
        [loads.rx_wire, loads.tx_wire, np.array(client_tx), np.array(client_rx)]
    ) / bw
    network_bound = float(link_times.max())

    # -- combine ------------------------------------------------------------
    if serialized:
        barrier = n_clients * cfg.network.latency * max(math.ceil(math.log2(max(n_clients, 2))), 1)
        client_bound = float(client_paths.sum()) + barrier
        elapsed = max(client_bound, server_bound, network_bound)
    else:
        client_bound = float(client_paths.max())
        elapsed = max(server_bound, network_bound, client_bound)
    return Prediction(
        elapsed=elapsed,
        server_bound=server_bound,
        network_bound=network_bound,
        client_bound=client_bound,
        serialized=serialized,
        n_logical_requests=total_requests,
        n_server_messages=total_msgs,
        moved_bytes=int(moved),
        useful_bytes=int(useful),
        per_server_work=server_work.tolist(),
        per_client_path=client_paths.tolist(),
    )


def compile_rank_plan(
    method: str,
    kind: str,
    mem_regions: RegionList,
    file_regions: RegionList,
    config: ClusterConfig,
    **opts,
) -> RankPlan:
    """One rank's :class:`RankPlan` from ``METHODS[method](**opts)``."""
    if kind not in ("read", "write"):
        raise ModelError(f"bad kind {kind!r}")
    try:
        cls = METHODS[method]
    except KeyError:
        raise ModelError(f"unknown method {method!r}") from None
    return cls(**opts).plan(kind, mem_regions, file_regions, config)


def predict_pattern(
    pattern: Pattern,
    method: str,
    kind: str,
    cfg: ClusterConfig,
    **opts,
) -> Prediction:
    """Compile and predict a whole benchmark pattern; ``opts`` are the
    method's constructor arguments, as in the simulator."""
    if method == "twophase":
        from .twophase import predict_twophase

        return predict_twophase(pattern, kind, cfg, **opts)
    plans = (
        compile_rank_plan(method, kind, a.mem_regions, a.file_regions, cfg, **opts)
        for a in pattern.accesses
    )
    return predict_plans(plans, cfg)
