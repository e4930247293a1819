"""Top-level solve loop: construction, relocation, two ruin-and-recreate walks."""

from __future__ import annotations

import random
import time
from dataclasses import dataclass

from .construct import regret_construct
from .localsearch import random_walk, relocate_pass


@dataclass
class SolverConfig:
    seed: int = 0
    iterations: int = 60           # walk budget; the post-walk gets half
    time_limit: float | None = None
    soft_brackets: tuple = ()


def solve(instance, config=None):
    """Construct and improve a solution.

    Regret construction (relocating every 25 insertions) is followed by a
    relocation pass, a random walk of ``iterations`` moves, then a second
    walk of half that budget with its own rng.  The result is
    deterministic for a fixed seed.

    With ``time_limit``, relocations stop between items and walks between
    moves once it is spent.  Construction always runs to the end, since it
    must place or unserve every item, so a solve overruns the limit by up
    to its construction time.
    """
    config = config or SolverConfig()
    try:
        return _solve(instance, config)
    finally:
        instance.clear_memos()


def _solve(instance, config):
    budget = config.iterations
    brackets = tuple(config.soft_brackets)
    deadline = (None if config.time_limit is None
                else time.monotonic() + config.time_limit)

    def remaining():
        if deadline is None:
            return None
        return max(0.0, deadline - time.monotonic())

    rng = random.Random(10007 * config.seed + 13)
    sol = regret_construct(
        instance, rng, brackets=brackets,
        improve_hook=lambda s: relocate_pass(instance, s, deadline=deadline))
    relocate_pass(instance, sol, deadline=deadline)
    if budget > 0:
        sol = random_walk(instance, sol, rng, budget, brackets,
                          time_limit=remaining())
        if remaining() is None or remaining() > 0:
            rng = random.Random(20011 * config.seed + 41)
            sol = random_walk(instance, sol, rng, max(1, budget // 2),
                              brackets, time_limit=remaining())
    sol.drop_empty_tours()
    return sol
