"""Analytic performance model (paper-scale sweeps without event simulation)."""

from ..core import RankPlan
from .predict import Prediction, compile_rank_plan, predict_pattern, predict_plans
from .twophase import crossover_point, predict_twophase

__all__ = [
    "RankPlan",
    "compile_rank_plan",
    "Prediction",
    "predict_pattern",
    "predict_plans",
    "predict_twophase",
    "crossover_point",
]
