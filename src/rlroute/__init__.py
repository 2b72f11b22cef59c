"""QoS-aware reinforcement-learning path finding on simulated networks."""

from .engine import Hyperparameters, QTable, RouteResult, find_route
from .harness import (
    ComparisonReport,
    ExperimentConfig,
    GammaStudyReport,
    compare_baseline,
    emit_comparison_reports,
    emit_gamma_reports,
    emit_reports,
    run_gamma_study,
    run_sequence,
)
from .network import NetworkGraph, RoutePath, TrafficDemand, graph_from_dict
from .rewards import make_weights

__all__ = [
    "ComparisonReport",
    "ExperimentConfig",
    "GammaStudyReport",
    "Hyperparameters",
    "NetworkGraph",
    "QTable",
    "RoutePath",
    "RouteResult",
    "TrafficDemand",
    "compare_baseline",
    "emit_comparison_reports",
    "emit_gamma_reports",
    "emit_reports",
    "find_route",
    "graph_from_dict",
    "make_weights",
    "run_gamma_study",
    "run_sequence",
]

__version__ = "0.1.0"
