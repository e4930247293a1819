"""Top-level solve loop: parallel-style workers, shared incumbent."""

from __future__ import annotations

import random
import time
from dataclasses import dataclass

from .construct import regret_construct
from .localsearch import random_walk, relocate_pass


@dataclass
class SolverConfig:
    workers: int = 1
    seed: int = 0
    mode: str = "default"          # or "high-effort": more walk iterations
    iterations: int | None = None  # override the mode's walk budget
    time_limit: float | None = None
    soft_brackets: tuple = ()

    def walk_budget(self):
        if self.iterations is not None:
            return self.iterations
        return 240 if self.mode == "high-effort" else 60


def solve(instance, config=None):
    """Construct and improve a solution.

    Workers run seed selection, regret construction, and random walks with
    distinct rngs; the best result is then post-optimized by every worker.
    Workers execute sequentially (exchange points keep the same structure a
    parallel run would have), so the result is deterministic for a fixed
    seed regardless of the worker count.
    """
    config = config or SolverConfig()
    try:
        return _solve(instance, config)
    finally:
        instance.clear_action_memo()


def _solve(instance, config):
    t_start = time.monotonic()
    budget = config.walk_budget()
    brackets = tuple(config.soft_brackets)

    def remaining():
        if config.time_limit is None:
            return None
        return max(0.0, config.time_limit - (time.monotonic() - t_start))

    candidates = []
    for w in range(max(1, config.workers)):
        rng = random.Random(10007 * config.seed + 7919 * w + 13)
        sol = regret_construct(
            instance, rng, brackets=brackets,
            improve_hook=lambda s: relocate_pass(instance, s))
        relocate_pass(instance, sol)
        if budget > 0:
            sol = random_walk(instance, sol, rng, budget, brackets,
                              time_limit=remaining())
        candidates.append(sol)
        if remaining() is not None and remaining() <= 0:
            break

    best = min(range(len(candidates)), key=lambda i: (candidates[i].total_cost, i))
    incumbent = candidates[best]

    # post-optimize the shared incumbent with every worker's rng
    post_budget = max(1, budget // 2)
    if budget > 0:
        for w in range(max(1, config.workers)):
            if remaining() is not None and remaining() <= 0:
                break
            rng = random.Random(20011 * config.seed + 104729 * w + 41)
            incumbent = random_walk(instance, incumbent, rng, post_budget,
                                    brackets, time_limit=remaining())
    incumbent.drop_empty_tours()
    return incumbent
