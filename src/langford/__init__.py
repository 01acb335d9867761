"""Finite-domain solver and experiment harness for Langford pairings."""

from .engine import SearchStats, Store, propagate_to_fixpoint, solve_all
from .heuristics import HeuristicKind, select_variable
from .models import (
    Instance,
    Model,
    VariantConfig,
    build_channelled,
    build_direct,
    build_model,
    build_positional,
)
from .oracle import enumerate_bruteforce

__all__ = [
    "HeuristicKind",
    "Instance",
    "Model",
    "SearchStats",
    "Store",
    "VariantConfig",
    "build_channelled",
    "build_direct",
    "build_model",
    "build_positional",
    "enumerate_bruteforce",
    "propagate_to_fixpoint",
    "select_variable",
    "solve_all",
]
