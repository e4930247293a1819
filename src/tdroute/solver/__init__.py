"""Multi-tour solver: model, validation, construction, local search."""

from .construct import regret_construct, select_seeds
from .engine import SolverConfig, solve
from .insertion import Infeasible, InsertionPlan, apply_insertion, cheapest_insertion
from .localsearch import random_walk, relocate_pass
from .model import Instance, Item, Solution, Stop, Tour, Vehicle, build_actions
from .validate import ValidationReport, validate

__all__ = [
    "Instance", "Item", "Solution", "Stop", "Tour", "Vehicle",
    "build_actions", "validate", "ValidationReport",
    "cheapest_insertion", "apply_insertion", "InsertionPlan", "Infeasible",
    "select_seeds", "regret_construct",
    "relocate_pass", "random_walk",
    "SolverConfig", "solve",
]
