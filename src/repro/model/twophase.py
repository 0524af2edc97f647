"""Analytic model of two-phase collective I/O.

Mirrors the engine in :mod:`repro.mpiio.twophase` request-for-request:
every rank ships its offset list to all peers, the first ``cb_nodes``
ranks aggregate stripe-aligned file domains, and each collective-buffer
round redistributes data before (writes) or after (reads) one list-I/O
access per aggregator.

The file phase reuses :func:`repro.model.predict.predict_plans` on the
*aggregators'* plans (the only ranks that touch the file system), and the
exchange phases are charged as a separate per-rank critical path:

``pack + (meta wire + data wire) / bandwidth + latency * (1 + rounds)``

whose maximum across ranks becomes :attr:`Prediction.exchange_bound`.
The predicted elapsed time is ``exchange_bound + file phase``, which the
test suite cross-validates against the discrete-event simulator and the
crossover studies use to predict where two-phase overtakes list I/O.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..config import ClusterConfig
from ..core import ListIO
from ..core.twophase import wire_order
from ..mpiio.twophase import (
    DATA_HEADER,
    META_BYTES_PER_REGION,
    META_HEADER,
    partition_file_domains,
    round_count,
    round_window,
    select_aggregators,
)
from ..patterns.base import Pattern
from ..regions import RegionList
from .predict import Prediction, _wire, predict_plans

__all__ = ["predict_twophase", "crossover_point"]


def _aggregator_regions(
    metas: dict, domains: List[Tuple[int, int]], rank: int, rounds: int, cb_buffer: Optional[int]
) -> RegionList:
    """File regions aggregator ``rank`` accesses, in round order (the
    engine's merged/coalesced per-window union)."""
    out = RegionList.empty()
    for rnd in range(rounds):
        wa, wb = round_window(domains[rank], rnd, cb_buffer)
        union = RegionList.empty()
        for r in metas.values():
            union = union.concat(r.clip(wa, wb))
        out = out.concat(union.coalesced())
    return out


def predict_twophase(
    pattern: Pattern,
    kind: str,
    cfg: ClusterConfig,
    *,
    cb_nodes: Optional[int] = None,
    cb_buffer: Optional[int] = None,
) -> Prediction:
    """Predict one two-phase collective transfer over ``pattern``."""
    n = pattern.n_ranks
    n_agg = len(select_aggregators(n, cb_nodes))
    metas = {}
    for rank, access in enumerate(pattern.accesses):
        regions, _order = wire_order(access.file_regions)
        metas[rank] = regions
    domains = partition_file_domains(metas, n, n_agg, cfg.stripe.stripe_size)
    rounds = round_count(domains, cb_buffer)

    # -- file phase: only aggregators touch PVFS, through list I/O -------
    listio = ListIO(split_memory_regions=False)
    plans = []
    for rank in range(n):
        regions = _aggregator_regions(metas, domains, rank, rounds, cb_buffer)
        plans.append(listio.plan(kind, RegionList.single(0, regions.total_bytes), regions, cfg))
    file_pred = predict_plans(plans, cfg)

    # -- exchange phase: per-rank wire + memcpy critical path ----------
    bw = cfg.network.bandwidth
    memcpy = cfg.costs.memcpy_rate
    meta_msg = np.array(
        [META_HEADER + META_BYTES_PER_REGION * metas[r].count for r in range(n)], np.float64
    )
    meta_wire = _wire(cfg, meta_msg)
    exchange = np.zeros(n)
    exchange_payload = 0
    for rank in range(n):
        tx = (n - 1) * meta_wire[rank]
        rx = float(meta_wire.sum() - meta_wire[rank])
        for rnd in range(rounds):
            windows = [round_window(d, rnd, cb_buffer) for d in domains]
            for d, (wa, wb) in enumerate(windows):
                if kind == "write":
                    # rank ships its clip to aggregator d; d receives all clips
                    mine = metas[rank].clip(wa, wb)
                    if mine.count and d != rank:
                        msg = DATA_HEADER + META_BYTES_PER_REGION * mine.count
                        tx += float(_wire(cfg, msg + mine.total_bytes))
                        exchange_payload += mine.total_bytes
                    if d == rank:
                        for src, r in metas.items():
                            got = r.clip(wa, wb)
                            if got.count and src != rank:
                                msg = DATA_HEADER + META_BYTES_PER_REGION * got.count
                                rx += float(_wire(cfg, msg + got.total_bytes))
                else:
                    # aggregator d ships each requester its pieces
                    mine = metas[rank].clip(wa, wb)
                    if mine.count and d != rank:
                        rx += float(_wire(cfg, DATA_HEADER + mine.total_bytes))
                        exchange_payload += mine.total_bytes
                    if d == rank:
                        for req, r in metas.items():
                            want = r.clip(wa, wb)
                            if want.count and req != rank:
                                tx += float(_wire(cfg, DATA_HEADER + want.total_bytes))
        pack = metas[rank].total_bytes / memcpy  # pack (write) / unpack (read)
        exchange[rank] = pack + (tx + rx) / bw + cfg.network.latency * (1 + rounds)
    # exchange_payload double-counts nothing but loops over both sides;
    # writes counted at senders, reads at requesters — each transfer once.
    exchange_bound = float(exchange.max())

    return Prediction(
        elapsed=exchange_bound + file_pred.elapsed,
        server_bound=file_pred.server_bound,
        network_bound=file_pred.network_bound,
        client_bound=file_pred.client_bound,
        serialized=False,
        n_logical_requests=file_pred.n_logical_requests,
        n_server_messages=file_pred.n_server_messages,
        moved_bytes=file_pred.moved_bytes + int(exchange_payload),
        useful_bytes=int(pattern.total_bytes),
        per_server_work=file_pred.per_server_work,
        per_client_path=file_pred.per_client_path,
        exchange_bound=exchange_bound,
    )


def crossover_point(
    xs: Sequence[float], twophase: Sequence[float], other: Sequence[float]
) -> Optional[float]:
    """First sweep coordinate where two-phase beats ``other`` (None if it
    never does)."""
    for x, a, b in zip(xs, twophase, other):
        if a < b:
            return x
    return None
