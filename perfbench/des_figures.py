"""des_figures: the paper's figure points through the DES, as the figure
drivers run them (``PointSpec.run`` with timing-only stores).

Figures 9-12 at ``scaled`` scale, 1-D cyclic with 8 clients and
block-block with 4 clients, plus a few Figure 15 (FLASH) and Figure 17
(tiled) points.  Each unit is one point; its ``SimMetrics`` fields are
checked against the committed oracle (event counts are left out: a
fast-path change may legitimately cut them).
"""

from __future__ import annotations

import random
from dataclasses import replace
from typing import Dict, List, Optional

from repro.experiments import artificial, flashio, tiledvis
from repro.experiments.presets import SCALED
from repro.obs import ObsSession

from .harness import Workload, count_metrics, load_oracle, median_abs_log_ratio

#: DataPoint fields compared with the oracle.
FIELDS = ("elapsed", "logical_requests", "server_messages", "moved_bytes", "useful_bytes",
          "phases")


def unit_key(spec) -> str:
    return (f"{spec.figure}/{spec.series or spec.method}/{spec.kind}"
            f"/c{spec.cfg.n_clients}/x{spec.x:g}")


def build_units() -> List:
    """The workload's points, in canonical order."""
    specs = []
    # Cyclic multiple I/O costs 1-3 s a point above 512 accesses, so the
    # cyclic figures take it at 512 only; the cheaper methods span 512-2048.
    for fig in ("9", "10"):
        specs += [s for s in artificial.build_specs(fig, SCALED, "des", clients=(8,),
                                                    accesses=(512, 1024, 2048))
                  if s.method != "multiple" or s.x == 512]
    # Block-block at 4 clients collapses to one grid over 512-2048 accesses.
    for fig in ("11", "12"):
        specs += artificial.build_specs(fig, SCALED, "des", clients=(4,), accesses=(1024,))
    specs += flashio.build_specs(SCALED, "des", clients=(2,), methods=("datasieve", "list"))
    specs += tiledvis.build_specs(SCALED, "des", methods=("datasieve", "list"))
    return specs


def point_fields(point) -> Dict:
    return {f: getattr(point, f) for f in FIELDS}


class DesFigures(Workload):
    name = "des_figures"
    pass_seconds = 5.0

    def __init__(self, oracle: Optional[Dict] = None) -> None:
        self.oracle = oracle
        self.units: List = []
        self.points: Dict = {}

    def setup(self, seed: int) -> None:
        if self.oracle is None:
            self.oracle = load_oracle(self.name)
        units = build_units()
        warm = units[0]
        random.Random(seed).shuffle(units)
        self.units = units
        self.points = {}
        warm.run()

    def pass_units(self) -> List:
        return self.units

    def run_unit(self, spec):
        return spec.run()

    def check(self, spec, point) -> bool:
        key = unit_key(spec)
        self.points[key] = point
        return point_fields(point) == self.oracle[key]

    def model_des_err(self) -> float:
        pairs = []
        for spec in self.units:
            model = replace(spec, mode="model", measure_phases=False).run()
            pairs.append((model.elapsed, self.points[unit_key(spec)].elapsed))
        return median_abs_log_ratio(pairs)

    def counts(self) -> Dict[str, float]:
        points = [self.points[unit_key(s)] for s in self.units]
        moved = sum(p.moved_bytes for p in points)
        counters: Dict[str, float] = {}
        # Network and daemon counters live on the cluster, which only an
        # ObsSession capture exposes: one extra, untimed pass.
        for spec in self.units:
            session = ObsSession()
            spec.run(obs=session)
            for k, v in session.runs[-1].counters.items():
                counters[k] = counters.get(k, 0.0) + v
        return count_metrics(counters, {
            "simulate.events": sum(p.sim_events for p in points),
            "pvfs.logical_requests": sum(p.logical_requests for p in points),
            "pvfs.server_messages": sum(p.server_messages for p in points),
            "core.useful_over_moved": sum(p.useful_bytes for p in points) / moved,
        })


WORKLOAD = DesFigures
