"""Head-wise KV cache budget allocation.

The score-driven `combined` formula adds a fixed local window and uniform
base to a score-proportional share of the remaining budget. `uniform` and
`pyramid` are score-agnostic baselines.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from enum import Enum
from pathlib import Path

import numpy as np

from .errors import BudgetTooSmallError, DimensionMismatchError, FormatError, read_json
from .heads import HeadScoreMatrix

DEFAULT_PYRAMID_DECAY = 0.8


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


def resolve_base_tokens(budget: int, num_heads_total: int, base_fraction: float) -> int:
    """Uniform base allocation in tokens: a fraction of the per-head even share."""
    if not 0.0 <= base_fraction <= 1.0:
        raise ValueError("base_fraction must be in [0, 1]")
    return int(base_fraction * budget / num_heads_total)


def _ranked_heads(scores: np.ndarray) -> np.ndarray:
    """Flat head order by descending score, ties toward lower (layer, head)."""
    flat = scores.reshape(-1)
    return np.argsort(-flat, kind="stable")


def _distribute_leftover(capacities: np.ndarray, leftover: int, scores: np.ndarray) -> None:
    if leftover <= 0:
        return
    order = _ranked_heads(scores)
    flat = capacities.reshape(-1)
    flat += leftover // len(order)
    flat[order[: leftover % len(order)]] += 1


def allocate(
    scores: HeadScoreMatrix,
    budget: int,
    window: int,
    base: int,
    mode: AllocationMode,
) -> BudgetPlan:
    """Turn head scores into integer per-head capacities.

    combined:          cap = window + base + floor(score_budget * S / sum(S))
                       with score_budget = budget - heads * (window + base).
    uniform / pyramid: score-agnostic splits of the budget; a head's share
                       below the window raises BudgetTooSmallError.

    Every mode spends exactly `budget`: rounding leftovers go one each to heads
    in descending score order. A zero score sum falls back to a uniform split.
    """
    if window < 0 or base < 0:
        raise ValueError("window and base must be non-negative")
    layers, heads = scores.shape
    n = layers * heads
    s = np.maximum(scores.scores.astype(np.float64), 0.0)
    total_score = float(s.sum())
    if total_score <= 0.0:
        s = np.ones_like(s)
        total_score = float(n)

    if mode is AllocationMode.COMBINED:
        floor_per_head = window + base
        score_budget = budget - n * floor_per_head
        if score_budget < 0:
            raise BudgetTooSmallError(
                f"budget {budget} cannot cover window+base "
                f"{floor_per_head} for all {n} heads"
            )
        shares = np.floor(score_budget * s / total_score).astype(np.int64)
        capacities = floor_per_head + shares
        _distribute_leftover(capacities, score_budget - int(shares.sum()), s)
    elif mode is AllocationMode.UNIFORM:
        capacities = np.full((layers, heads), budget // n, dtype=np.int64)
        _distribute_leftover(capacities, budget - n * (budget // n), np.zeros_like(s))
    elif mode is AllocationMode.PYRAMID:
        if budget < layers:
            raise BudgetTooSmallError(f"pyramid budget {budget} < one slot per layer ({layers})")
        layer_totals = np.array(
            pyramid_schedule(layers, budget // layers, DEFAULT_PYRAMID_DECAY), dtype=np.int64
        )[:, None]
        layer_totals[: budget % layers] += 1  # an uneven budget's rest goes to the widest layers
        per_head = layer_totals // heads
        capacities = per_head + (np.arange(heads) < layer_totals - per_head * heads)
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


def pyramid_schedule(num_layers: int, per_layer_budget: int, decay: float) -> list[int]:
    """Geometrically decaying per-layer budgets, renormalized to the exact total.

    Weights decay^0, decay^1, ... are scaled so the grand total equals
    num_layers * per_layer_budget; fractional remainders are rounded with the
    largest-remainder rule (ties to the earlier layer).
    """
    if not 0.0 < decay <= 1.0:
        raise ValueError("decay must be in (0, 1]")
    if per_layer_budget < 1:
        raise ValueError("per_layer_budget must be >= 1")
    total = num_layers * per_layer_budget
    weights = np.array([decay**i for i in range(num_layers)], dtype=np.float64)
    raw = total * weights / weights.sum()
    floors = np.floor(raw).astype(np.int64)
    remainders = raw - floors
    leftover = total - int(floors.sum())
    order = np.argsort(-remainders, kind="stable")
    floors[order[:leftover]] += 1
    return [int(v) for v in floors]


def save_plan(plan: BudgetPlan, path: str | Path) -> None:
    payload = {
        "window": plan.window,
        "base": plan.base,
        "budget": plan.global_budget,
        "mode": plan.mode,
        "capacities": plan.capacities.tolist(),
    }
    Path(path).write_text(json.dumps(payload, indent=1))


def load_plan(path: str | Path) -> BudgetPlan:
    """Read a plan file back. Capacities must be JSON integers: a fractional
    (or float-valued) capacity is a FormatError, not truncated."""
    payload = read_json(path)
    try:
        capacities = np.asarray(payload["capacities"])
        if capacities.size and capacities.dtype.kind != "i":
            raise ValueError(f"capacities must be integers, got dtype {capacities.dtype}")
        capacities = capacities.astype(np.int64)
        plan = BudgetPlan(
            capacities=capacities,
            window=int(payload["window"]),
            base=int(payload["base"]),
            global_budget=int(payload["budget"]),
            mode=str(payload["mode"]),
        )
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise FormatError(f"{path}: bad plan file: {exc!r}") from exc
    if capacities.ndim != 2:
        raise DimensionMismatchError(f"{path}: capacities must be a 2-D matrix")
    return plan
