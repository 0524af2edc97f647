"""Analytic model of two-phase collective I/O.

Prices the same :class:`~repro.mpiio.twophase.CollectivePlan` the engine
in :mod:`repro.mpiio.twophase` runs, so the two agree request-for-request:
every rank ships its offset list to all peers, the first ``cb_nodes``
ranks aggregate stripe-aligned file domains, and each collective-buffer
round redistributes data before (writes) or after (reads) one list-I/O
access per aggregator.

The file phase reuses :func:`repro.model.predict.predict_plans` on the
*aggregators'* plans (one list batch per round; the only ranks that touch
the file system), and the exchange phases are charged as a separate
per-rank critical path over the plan's messages:

``pack + (meta wire + data wire) / bandwidth + latency * (1 + rounds)``

whose maximum across ranks becomes :attr:`Prediction.exchange_bound`.
The predicted elapsed time is ``exchange_bound + file phase``, which the
test suite cross-validates against the discrete-event simulator and the
crossover studies use to predict where two-phase overtakes list I/O.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from ..config import ClusterConfig
from ..core.twophase import wire_order
from ..mpiio.twophase import plan_collective, select_aggregators
from ..patterns.base import Pattern
from .predict import Prediction, _wire, predict_plans

__all__ = ["predict_twophase", "crossover_point"]


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
    metas = {rank: wire_order(a.file_regions)[0] for rank, a in enumerate(pattern.accesses)}
    n_agg = len(select_aggregators(n, cb_nodes))
    plan = plan_collective(kind, metas, n_agg, cfg.stripe.stripe_size, cb_buffer)

    # -- file phase: only aggregators touch PVFS, through list I/O -------
    file_pred = predict_plans((plan.aggregator_plan(r, cfg) for r in range(n)), cfg)

    # -- exchange phase: per-rank wire + memcpy critical path ----------
    # Each rank's sums run by round, then peer, as the engine sends.
    meta_wire = _wire(cfg, np.array(plan.meta_bytes, np.float64))
    tx = (n - 1) * meta_wire
    rx = meta_wire.sum() - meta_wire
    exchange_payload = 0
    shipped = [m for m in plan.messages() if m.src != m.dst]
    for msg, wire in zip(shipped, _wire(cfg, [m.nbytes for m in shipped])):
        tx[msg.src] += wire
        rx[msg.dst] += wire
        exchange_payload += msg.regions.total_bytes
    pack = np.array([metas[r].total_bytes for r in range(n)]) / cfg.costs.memcpy_rate
    latency = cfg.network.latency * (1 + plan.rounds)
    exchange_bound = float((pack + (tx + rx) / cfg.network.bandwidth + latency).max())

    return Prediction(
        elapsed=exchange_bound + file_pred.elapsed,
        server_bound=file_pred.server_bound,
        network_bound=file_pred.network_bound,
        client_bound=file_pred.client_bound,
        serialized=False,
        n_logical_requests=file_pred.n_logical_requests,
        n_server_messages=file_pred.n_server_messages,
        moved_bytes=file_pred.moved_bytes + exchange_payload,
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
