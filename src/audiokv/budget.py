"""Head-wise KV cache budget allocation.

The score-driven `combined` formula adds a fixed local window and uniform
base to a score-proportional share of the remaining budget. `uniform` and
`pyramid` are score-agnostic baselines.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from enum import Enum
from pathlib import Path

import numpy as np

from .errors import BudgetTooSmallError, DimensionMismatchError, FormatError, json_int, read_json
from .heads import HeadScoreMatrix, topk_mask

# `pyramid` gives layer i a share proportional to PYRAMID_DECAY**i.
PYRAMID_DECAY = 0.8


class AllocationMode(Enum):
    COMBINED = "combined"
    UNIFORM = "uniform"
    PYRAMID = "pyramid"


@dataclass(frozen=True)
class BudgetPlan:
    """Per-head retained-token capacities under a global budget."""

    capacities: np.ndarray  # [layers, heads] int64
    window: int
    base: int
    global_budget: int
    mode: str

    @property
    def shape(self) -> tuple[int, int]:
        return self.capacities.shape

    @property
    def total(self) -> int:
        return int(self.capacities.sum())

    def summary(self) -> dict:
        """The plan without its capacities, as plan and result files record it."""
        return dict(window=self.window, base=self.base, budget=self.global_budget, mode=self.mode)


def budget_at_ratio(ratio: float, context: int, num_heads_total: int) -> int:
    """`ratio` of a `context`-long cache in every head: num_heads_total·int(ratio·context)."""
    return num_heads_total * int(ratio * context)


def resolve_base_tokens(budget: int, num_heads_total: int, base_fraction: float) -> int:
    """Uniform base allocation in tokens: a fraction of the per-head even share."""
    if not 0.0 <= base_fraction <= 1.0:
        raise ValueError("base_fraction must be in [0, 1]")
    return int(base_fraction * budget / num_heads_total)


def _even_split(totals: np.ndarray | int, parts: int) -> np.ndarray:
    """Each total split into `parts` integer shares along a new last axis; the
    remainder goes one each to the first shares."""
    return totals // parts + (np.arange(parts) < totals % parts)


def _apportion(total: int, weights: np.ndarray, key: np.ndarray | None = None) -> np.ndarray:
    """`total` split into integer shares in proportion to `weights`.

    Each share starts at the floor of its real share. The slots the floors
    leave go an equal part to every share, then one each to the `topk_mask`
    of `key`, which defaults to the fractional remainders.
    """
    real = total * weights / weights.sum()
    shares = np.floor(real).astype(np.int64)
    leftover = max(total - int(shares.sum()), 0)
    key = real - shares if key is None else key
    return shares + leftover // len(shares) + topk_mask(key, leftover % len(shares))


def allocate(
    scores: HeadScoreMatrix,
    budget: int,
    window: int,
    base: int,
    mode: AllocationMode,
) -> BudgetPlan:
    """Turn head scores into integer per-head capacities.

    combined: cap = window + base + the `_apportion` of
              score_budget = budget - heads * (window + base) by the scores,
              its leftovers going to the highest scores. A zero score sum
              falls back to equal scores.
    uniform:  an even split of the budget, the remainder going one each to
              the lowest-indexed heads.
    pyramid:  the `_apportion` of layers * (budget // layers) by the weights
              PYRAMID_DECAY**layer, its leftovers going to the largest
              remainders; the rest of an uneven budget goes one each to the
              first layers, and each layer is split evenly over its heads.

    Every mode spends exactly `budget`; a head below the window raises
    BudgetTooSmallError.
    """
    if window < 0 or base < 0:
        raise ValueError("window and base must be non-negative")
    layers, heads = scores.shape
    n = layers * heads

    if mode is AllocationMode.COMBINED:
        floor_per_head = window + base
        score_budget = budget - n * floor_per_head
        if score_budget < 0:
            raise BudgetTooSmallError(
                f"budget {budget} cannot cover window+base "
                f"{floor_per_head} for all {n} heads"
            )
        s = np.maximum(scores.scores.astype(np.float64), 0.0).reshape(-1)
        if s.sum() <= 0.0:
            s = np.ones_like(s)
        capacities = (floor_per_head + _apportion(score_budget, s, s)).reshape(layers, heads)
    elif mode is AllocationMode.UNIFORM:
        capacities = _even_split(budget, n).reshape(layers, heads)
    elif mode is AllocationMode.PYRAMID:
        if budget < layers:
            raise BudgetTooSmallError(f"pyramid budget {budget} < one slot per layer ({layers})")
        weights = np.array([PYRAMID_DECAY**i for i in range(layers)])
        layer_totals = _apportion(layers * (budget // layers), weights)
        layer_totals += _even_split(budget % layers, layers)
        capacities = _even_split(layer_totals[:, None], heads)
    else:
        raise ValueError(f"unknown allocation mode: {mode}")
    if capacities.min() < window:
        raise BudgetTooSmallError(
            f"{mode.value} budget {budget} leaves a head {capacities.min()} < window {window}"
        )

    return BudgetPlan(
        capacities=capacities,
        window=window,
        base=base,
        global_budget=budget,
        mode=mode.value,
    )


def make_plan(
    scores: HeadScoreMatrix, budget: int, mode: AllocationMode, window: int, base_fraction: float
) -> BudgetPlan:
    """`allocate` `budget` in `mode`; only `combined` spends a uniform base,
    `resolve_base_tokens(budget, heads, base_fraction)`."""
    combined = mode is AllocationMode.COMBINED
    base = resolve_base_tokens(budget, scores.scores.size, base_fraction) if combined else 0
    return allocate(scores, budget, window, base, mode)


def save_plan(plan: BudgetPlan, path: str | Path) -> None:
    payload = {**plan.summary(), "capacities": plan.capacities.tolist()}
    Path(path).write_text(json.dumps(payload, indent=1))


def load_plan(path: str | Path) -> BudgetPlan:
    """Read a plan file back. Capacities, window, base and budget must be JSON
    integers: a fractional (or float-valued) one is a FormatError, not
    truncated, and none may be negative. The budget must equal the
    capacities' sum, and the mode must name an AllocationMode."""
    payload = read_json(path)
    try:
        capacities = np.asarray(payload["capacities"])
        if capacities.size and capacities.dtype.kind != "i":
            raise ValueError(f"capacities must be integers, got dtype {capacities.dtype}")
        capacities = capacities.astype(np.int64)
        plan = BudgetPlan(
            capacities=capacities,
            window=json_int(payload["window"], "window"),
            base=json_int(payload["base"], "base"),
            global_budget=json_int(payload["budget"], "budget"),
            mode=AllocationMode(payload["mode"]).value,
        )
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise FormatError(f"{path}: bad plan file: {exc!r}") from exc
    if capacities.ndim != 2:
        raise DimensionMismatchError(f"{path}: capacities must be a 2-D matrix")
    if min(plan.window, plan.base, capacities.min(initial=0)) < 0:
        raise FormatError(f"{path}: window, base and capacities must be >= 0")
    if plan.total != plan.global_budget:
        raise FormatError(f"{path}: budget {plan.global_budget} != capacities' sum {plan.total}")
    return plan
