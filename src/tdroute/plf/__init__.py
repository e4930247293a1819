"""Piecewise-linear algebra: arrival time functions, step costs, envelopes."""

from .atf import (
    EPS_SLOPE,
    EPS_T,
    Atf,
    EmptyDomain,
    InvalidEpsilon,
    MismatchedDomain,
    OutOfDomain,
    StepCost,
    TravelBounds,
    ZERO_COST,
    compose,
    compose_chain,
    min2,
)
from .envelope import (
    AffineEnvelope,
    PiecewiseLinear,
    atf_min_n,
    envelope_affine,
    min_n,
    multi_sort,
)
from .simplify import polish, simplify

__all__ = [
    "EPS_SLOPE",
    "EPS_T",
    "Atf",
    "EmptyDomain",
    "InvalidEpsilon",
    "MismatchedDomain",
    "OutOfDomain",
    "StepCost",
    "TravelBounds",
    "ZERO_COST",
    "compose",
    "compose_chain",
    "min2",
    "AffineEnvelope",
    "PiecewiseLinear",
    "atf_min_n",
    "envelope_affine",
    "min_n",
    "multi_sort",
    "polish",
    "simplify",
]


def default_epsilon(a, fraction=0.005):
    """Simplification tolerance as a fraction of the minimum travel time."""
    return max(fraction * a.travel_bounds().lo, 1e-9)
