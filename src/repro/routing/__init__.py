"""Cage routing CAD: batch space-time routers, greedy baseline."""

from .astar import (
    MOVES_8,
    WAIT,
    RoutingError,
    chebyshev_heuristic,
    distance_field,
    downhill_path,
)
from .greedy import GreedyRouter, make_requests
from .multi import BatchPlan, BatchRouter, RoutingRequest, WavefrontRouter

__all__ = [name for name in dir() if not name.startswith("_")]
