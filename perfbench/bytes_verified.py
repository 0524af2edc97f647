"""bytes_verified: write-then-read-back with real bytes, every byte checked.

Two patterns (1-D cyclic with 8 clients, block-block with 4 clients, 256
accesses per client over 4 MiB: a quarter of the ``scaled`` volume, so a
pass fits the run) on byte-moving clusters.  Every writer (multiple,
serialized data sieving RMW, list, two-phase) is paired with a different
reader; the pairing is drawn from the seed.  Each rank's read buffer is
compared byte for byte with the pattern oracle.  One ``failover-read``
point (two replicas, primary acks, an IOD crash mid-read) rides along.
"""

from __future__ import annotations

import random
import time
from typing import Dict, List

import numpy as np

from repro.config import ClusterConfig
from repro.core import METHODS, DataSievingIO
from repro.experiments.chaos import run_failover_scenario
from repro.experiments.presets import SMOKE
from repro.model import predict_pattern
from repro.mpi import Communicator
from repro.patterns import block_block, one_dim_cyclic
from repro.pvfs import Cluster
from repro.regions import build_flat_indices
from repro.units import MiB

from .harness import Workload, count_metrics, median_abs_log_ratio

TOTAL_BYTES = 4 * MiB
PATTERNS = (("cyclic", one_dim_cyclic, 8, 256), ("blockblock", block_block, 4, 256))
METHOD_NAMES = ("multiple", "datasieve", "list", "twophase")
WARMUP = ("cyclic", "list", "multiple")
FAILOVER = "failover-read"


def derangement(rng: random.Random, items) -> List:
    """A shuffle of ``items`` that leaves none in its place."""
    out = list(items)
    while any(a == b for a, b in zip(out, items)):
        rng.shuffle(out)
    return out


class PatternInput:
    """One pattern with its per-rank oracle buffers (built in set-up)."""

    def __init__(self, pattern, salt: int) -> None:
        self.pattern = pattern
        self.cfg = ClusterConfig.chiba_city(n_clients=pattern.n_ranks)
        self.ranks = []
        for r in range(pattern.n_ranks):
            a = pattern.rank(r)
            mem_idx = build_flat_indices(a.mem_regions.offsets, a.mem_regions.lengths)
            file_idx = build_flat_indices(a.file_regions.offsets, a.file_regions.lengths)
            expected = ((file_idx * 131 + salt) % 256).astype(np.uint8)
            source = np.zeros(a.buffer_bytes, np.uint8)
            source[mem_idx] = expected
            self.ranks.append((a, mem_idx, expected, source))


def wrong_bytes(inp: PatternInput, outs: Dict) -> int:
    """Bytes of the read buffers that differ from the pattern oracle."""
    return sum(int(np.count_nonzero(outs[r][mem_idx] != expected))
               for r, (_a, mem_idx, expected, _src) in enumerate(inp.ranks))


def _transfer(method, kind, comm, shared, rank, f, buf, access):
    if getattr(method, "collective", False):
        op = method.collective_read if kind == "read" else method.collective_write
        yield from op(comm, rank, shared, f, buf, access.mem_regions, access.file_regions)
    elif kind == "write" and isinstance(method, DataSievingIO):
        yield from method.serialized_write(comm, rank, f, buf, access.mem_regions,
                                           access.file_regions)
    elif kind == "write":
        yield from method.write(f, buf, access.mem_regions, access.file_regions)
    else:
        yield from method.read(f, buf, access.mem_regions, access.file_regions)


def round_trip(inp: PatternInput, writer: str, reader: str) -> Dict:
    """Write with ``writer``, barrier, read back with ``reader`` into one
    buffer per rank.  Host and simulated time are split at the barrier
    into the write and the read."""
    n = inp.pattern.n_ranks
    t_start = time.perf_counter()
    cluster = Cluster.build(inp.cfg, move_bytes=True)
    comm = Communicator(cluster.sim, n)
    wm, rm = METHODS[writer](), METHODS[reader]()
    shared_w: Dict = {}
    shared_r: Dict = {}
    outs: Dict = {}
    barrier = {}

    def workload(client):
        access, _mem_idx, _expected, source = inp.ranks[client.index]
        f = yield from client.open("/roundtrip", create=True)
        yield from _transfer(wm, "write", comm, shared_w, client.index, f, source, access)
        yield comm.barrier()
        if not barrier:
            barrier.update(sim=cluster.sim.now, host=time.perf_counter())
        out = outs[client.index] = np.zeros(access.buffer_bytes, np.uint8)
        yield from _transfer(rm, "read", comm, shared_r, client.index, f, out, access)
        yield from f.close()

    res = cluster.run_workload(workload)
    t_end = time.perf_counter()
    clients = {c.node.name for c in cluster.clients}
    nodes = cluster.net.nodes()
    to_clients = sum(nd.bytes_received for nd in nodes if nd.name in clients)
    from_servers = sum(nd.bytes_sent for nd in nodes if nd.name not in clients)
    return {
        "outs": outs,
        "write_s": barrier["sim"],
        "read_s": res.elapsed - barrier["sim"],
        "host_s": [barrier["host"] - t_start, t_end - barrier["host"]],
        "events": cluster.sim.events_scheduled,
        "counters": dict(res.counters.items()),
        "logical_requests": res.total_logical_requests,
        "server_messages": res.total_server_messages,
        # Servers only answer clients here, so what clients received
        # beyond the servers' sends travelled client to client.
        "exchange_bytes": to_clients - from_servers,
    }


class BytesVerified(Workload):
    name = "bytes_verified"
    pass_seconds = 5.0

    def __init__(self) -> None:
        self.inputs: Dict[str, PatternInput] = {}
        self.units: List = []
        self.results: Dict = {}

    def setup(self, seed: int) -> None:
        rng = random.Random(seed)
        salt = 17 + seed % 239
        self.inputs = {name: PatternInput(factory(TOTAL_BYTES, clients, accesses), salt)
                       for name, factory, clients, accesses in PATTERNS}
        units = [(name, w, r) for name, *_ in PATTERNS
                 for w, r in zip(METHOD_NAMES, derangement(rng, METHOD_NAMES))]
        units.append((FAILOVER, None, None))
        rng.shuffle(units)
        self.units = units
        self.results = {}
        pattern, writer, reader = WARMUP
        round_trip(self.inputs[pattern], writer, reader)

    def pass_units(self) -> List:
        return self.units

    def run_unit(self, unit):
        pattern, writer, reader = unit
        if pattern == FAILOVER:
            return run_failover_scenario(scale=SMOKE, replicas=2, ack="primary")
        return round_trip(self.inputs[pattern], writer, reader)

    def check(self, unit, out) -> bool:
        pattern = unit[0]
        if pattern == FAILOVER:
            self.results[unit] = out
            return out.data_errors == 0 and out.failovers > 0
        # Keep the counts, not the buffers.
        self.results[unit] = {k: v for k, v in out.items() if k != "outs"}
        return len(out["outs"]) == len(self.inputs[pattern].ranks) and wrong_bytes(
            self.inputs[pattern], out["outs"]) == 0

    def request_latencies(self, out, unit_seconds: float) -> List[float]:
        return out["host_s"] if isinstance(out, dict) else [unit_seconds]

    def model_des_err(self) -> float:
        """Over every write and every read, so the seed's pairing does
        not change which transfers are compared."""
        pairs = []
        for unit in self.units:
            pattern, writer, reader = unit
            if pattern == FAILOVER:
                continue  # the model has no notion of faults
            inp, out = self.inputs[pattern], self.results[unit]
            for method, kind, des in ((writer, "write", out["write_s"]),
                                      (reader, "read", out["read_s"])):
                pairs.append((predict_pattern(inp.pattern, method, kind, inp.cfg).elapsed, des))
        return median_abs_log_ratio(pairs)

    def counts(self) -> Dict[str, float]:
        trips = [self.results[u] for u in self.units if u[0] != FAILOVER]
        row = self.results[next(u for u in self.units if u[0] == FAILOVER)]
        counters: Dict[str, float] = {}
        for t in trips:
            for k, v in t["counters"].items():
                counters[k] = counters.get(k, 0.0) + v

        def total(suffix: str) -> float:
            return sum(v for k, v in counters.items()
                       if k.startswith("iod.") and k.endswith(suffix))

        useful = sum(inp.pattern.total_bytes for inp in self.inputs.values()) * len(
            METHOD_NAMES) * 2
        stored = total(".read_bytes") + total(".write_bytes")
        out = count_metrics(counters, {
            "simulate.events": sum(t["events"] for t in trips) + row.sim_events,
            "pvfs.logical_requests": sum(t["logical_requests"] for t in trips)
            + row.logical_requests,
            "pvfs.server_messages": sum(t["server_messages"] for t in trips)
            + row.server_messages,
            "storage.bytestore_mb": stored / MiB,
            "core.useful_over_moved": useful / counters["net.payload_bytes"],
            "mpiio.exchange_mb": sum(t["exchange_bytes"] for t in trips) / MiB,
        })
        out["pvfs.failovers"] += row.failovers
        out["pvfs.retries"] += row.retries
        return out


WORKLOAD = BytesVerified
