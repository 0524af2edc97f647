"""model_paper: ``predict_pattern`` at the paper's scale (1 GiB).

1-D cyclic with 8 clients and block-block with 4 clients at 100k
accesses per client, over every method and direction Figures 9-12 plot,
plus the block-block list write at 400k accesses (list writes spend most
of their time pairing memory and file pieces).  The analytic model runs no
simulation events; region algebra and the model dominate.  Each unit's
``Prediction`` fields are checked against the committed oracle, and
``model_des_err`` compares the predictions with simulated times the DES
produced for the same points (committed with the oracle: the DES needs
minutes per point at this scale).
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional

from repro.config import ClusterConfig
from repro.experiments.presets import PAPER
from repro.model import predict_pattern
from repro.patterns import block_block, one_dim_cyclic

from .harness import Workload, load_oracle, median_abs_log_ratio

FIELDS = ("elapsed", "server_bound", "network_bound", "client_bound", "exchange_bound",
          "serialized", "n_logical_requests", "n_server_messages", "moved_bytes",
          "useful_bytes")

_METHODS = (("multiple", "read"), ("datasieve", "read"), ("list", "read"),
            ("multiple", "write"), ("list", "write"))

#: (pattern name, factory, clients, accesses per client, methods).
RECIPES = (
    ("cyclic", one_dim_cyclic, 8, 100_000, _METHODS),
    ("blockblock", block_block, 4, 100_000, _METHODS),
    ("blockblock", block_block, 4, 400_000, (("list", "write"),)),
)

WARMUP = ("cyclic", 8, 100_000, "list", "write")


def unit_key(pattern: str, clients: int, accesses: int, method: str, kind: str) -> str:
    return f"{pattern}/c{clients}/a{accesses}/{method}/{kind}"


def build_units():
    """``(key, pattern, method, kind, cfg)`` in canonical order."""
    units = []
    for name, factory, clients, accesses, methods in RECIPES:
        pattern = factory(PAPER.artificial_total, clients, accesses)
        cfg = ClusterConfig.chiba_city(n_clients=clients)
        for method, kind in methods:
            units.append((unit_key(name, clients, accesses, method, kind),
                          pattern, method, kind, cfg))
    return units


def prediction_fields(pred) -> Dict:
    return {f: getattr(pred, f) for f in FIELDS}


class ModelPaper(Workload):
    name = "model_paper"
    pass_seconds = 5.0

    def __init__(self, oracle: Optional[Dict] = None) -> None:
        self.oracle = oracle
        self.units: List = []
        self.predictions: Dict = {}

    def setup(self, seed: int) -> None:
        if self.oracle is None:
            self.oracle = load_oracle(self.name)
        units = build_units()
        by_key = {u[0]: u for u in units}
        _key, pattern, method, kind, cfg = by_key[unit_key(*WARMUP)]
        predict_pattern(pattern, method, kind, cfg)
        random.Random(seed).shuffle(units)
        self.units = units
        self.predictions = {}

    def pass_units(self) -> List:
        return self.units

    def run_unit(self, unit):
        _key, pattern, method, kind, cfg = unit
        return predict_pattern(pattern, method, kind, cfg)

    def check(self, unit, pred) -> bool:
        key = unit[0]
        self.predictions[key] = pred
        return prediction_fields(pred) == self.oracle["predictions"][key]

    def model_des_err(self) -> float:
        des = self.oracle["des_elapsed"]
        return median_abs_log_ratio(
            (self.predictions[key].elapsed, des[key]) for key, *_ in self.units)


WORKLOAD = ModelPaper
