"""Token-selection policies deciding which KV entries each head retains.

All policies share the same skeleton: the most recent `recent` context
positions are kept unconditionally (counted inside capacity), and the rest of
a head's capacity is filled with the highest-scoring older positions, ties
going to the lower index. They differ in where the scores come from: the
window-averaged attention as-is, spectrally smoothed, pooled, or accumulated
over the whole trace.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from pathlib import Path
from typing import NamedTuple, Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .budget import AllocationMode, BudgetPlan
from .errors import (
    CapacityBelowRecentError,
    DimensionMismatchError,
    FormatError,
    json_int,
    read_json,
)
from .spectral import SssConfig, smooth_rows
from .trace import AttentionTrace, DecodingStep

DEFAULT_RECENT = 32
DEFAULT_POOL_WIDTH = 7


@dataclass(frozen=True)
class ObservationWindow:
    """Mean attention over the last `width` steps, padded to the final context."""

    width: int
    aggregated: np.ndarray  # [layers, heads, context] float64

    @property
    def context_length(self) -> int:
        return self.aggregated.shape[-1]

    @property
    def shape(self) -> tuple[int, int]:
        return self.aggregated.shape[:2]


@dataclass(frozen=True)
class EvictionResult:
    """The retained KV entries of every head.

    `mask` ([layers, heads, context] bool, True at every retained entry) is
    the stored form; `retained` is derived from it on each access.
    """

    policy_name: str
    mask: np.ndarray
    plan: BudgetPlan | None = None

    @property
    def context_length(self) -> int:
        return self.mask.shape[-1]

    @property
    def shape(self) -> tuple[int, int]:
        return self.mask.shape[:2]

    @property
    def retained(self) -> tuple[tuple[np.ndarray, ...], ...]:
        """[layer][head] sorted int64 retained indices."""
        return tuple(tuple(np.flatnonzero(head) for head in layer) for layer in self.mask)

    def total_retained(self) -> int:
        return int(self.mask.sum())


def build_observation_window(trace: AttentionTrace, width: int) -> ObservationWindow:
    """Average the last `width` steps' rows, zero-padding vanished tail positions.

    A width larger than the trace is clamped to the available steps.
    """
    if width < 1:
        raise ValueError("width must be >= 1")
    width = min(width, trace.num_steps)
    summed = summed_attention(trace.steps[-width:], trace.final_context_length)
    return ObservationWindow(width=width, aggregated=summed / width)


def summed_attention(steps: Sequence[DecodingStep], context: int) -> np.ndarray:
    """The float64 [layers, heads, context] sum of the steps' attention rows.

    Each step adds its first `min(step.context_length, context)` positions:
    a shorter step is zero-padded, a longer one cut at `context`.
    """
    layers, heads = steps[0].attention.shape[:2]
    acc = np.zeros((layers, heads, context), dtype=np.float64)
    for step in steps:
        width = min(step.context_length, context)
        acc[:, :, :width] += step.attention[:, :, :width]
    return acc


def topk_mask(scores: np.ndarray, k: np.ndarray, ranked: np.ndarray | None = None) -> np.ndarray:
    """True at the k[...] highest scores of each row, ties going to the lower index.

    This is where every selection ranks: each row keeps everything above its
    kth-largest value, then the first of the entries equal to it (the oracle
    overlap applies the same rule through `metrics._descending_ranks`). The
    kth value is read off `ranked`, the value sort of `scores` along the last
    axis, which callers ranking one array under several k sort once and pass
    in; without it the scores are sorted here.

    Every row is scanned once for the entries at or above its kth value.
    Only the rows where those number more than k, because the ties at the
    kth value spill past it, are scanned again to keep their first ties.
    """
    context = scores.shape[-1]
    if context == 0:
        return np.zeros(scores.shape, dtype=bool)
    if ranked is None:
        ranked = np.sort(scores, axis=-1)
    k = np.minimum(k, context)
    rank = np.minimum(context - k, context - 1)[..., None]
    kth = np.take_along_axis(ranked, rank, axis=-1)
    mask = scores >= kth
    excess = np.count_nonzero(mask, axis=-1) - k
    spill = excess > 0
    if spill.any():
        tied = scores[spill] == kth[spill]
        room = (np.count_nonzero(tied, axis=-1) - excess[spill])[:, None]
        # A running count of ties never exceeds the row length.
        seen = np.cumsum(tied, axis=-1, dtype=np.min_scalar_type(context))
        mask[spill] &= ~tied | (seen <= room)
    return mask


def _retain(
    scores: np.ndarray,
    capacities: np.ndarray | int,
    recent: int,
    ranked: np.ndarray | None = None,
) -> np.ndarray:
    """Per head: the recent positions plus the top-scored older positions.

    scores is [layers, heads, context]; capacities broadcasts to [layers, heads].
    Returns the [layers, heads, context] retained mask.
    `ranked`, if given, is the value sort of the evictable prefix, as
    `rank_scores` returns it. Ties go to the lower index.
    """
    layers, heads, context = scores.shape
    capacities = np.broadcast_to(capacities, (layers, heads))
    if np.any(capacities < recent):
        raise CapacityBelowRecentError(
            f"capacity {capacities.min()} < recent window {recent}"
        )
    kept_recent = min(recent, context)
    boundary = context - kept_recent
    fill = np.minimum(capacities, context) - kept_recent
    mask = np.ones((layers, heads, context), dtype=bool)
    mask[..., :boundary] = topk_mask(scores[..., :boundary], fill, ranked)
    return mask


def _pool(scores: np.ndarray, width: int) -> np.ndarray:
    """`np.convolve(row, ones(width) / width, "same")` on every row at once, bit for bit.

    np.convolve sums each full window in index order (through BLAS dot
    products once width > 11) and each partial window at the two ends through
    a BLAS dot product; the same arithmetic is repeated here. Width 1 is the
    identity, so `scores` itself comes back, not a copy.
    """
    if width == 1:
        return scores
    kernel = np.full(width, 1.0 / width)
    half = width // 2
    context = scores.shape[-1]
    pooled = np.empty_like(scores)
    if context >= width:
        windows = sliding_window_view(scores, width, axis=-1)
        if width <= 11:
            full = windows[..., 0] * kernel[0]
            for tap in range(1, width):
                full = full + windows[..., tap] * kernel[tap]
        else:
            full = np.vecdot(windows, kernel)
        pooled[..., half : context - half] = full
    for i in [*range(min(half, context)), *range(max(context - half, half), context)]:
        lo, hi = max(i - half, 0), min(i + half + 1, context)
        pooled[..., i] = np.vecdot(scores[..., lo:hi], kernel[: hi - lo])
    return pooled


def _check_dims(window: ObservationWindow, plan: BudgetPlan) -> None:
    if window.shape != plan.shape:
        raise DimensionMismatchError(
            f"window heads {window.shape} != plan heads {plan.shape}"
        )


def rank_scores(
    window: ObservationWindow, sss_cfg: SssConfig | None, recent: int
) -> tuple[np.ndarray, np.ndarray]:
    """The scores `select_audiokv` ranks, and the value sort of their evictable prefix.

    Every plan selected from one window with one SSS config and recent
    window ranks the same two arrays, so a caller selecting under several
    plans builds them once and passes them to `select_audiokv` as `ranking`.
    """
    scores = window.aggregated
    boundary = max(window.context_length - recent, 0)
    if sss_cfg is not None and boundary > 0:
        # Only the evictable prefix is scored, so only it is smoothed; the
        # unconditionally kept recent block would otherwise bleed into its
        # neighbours through the global filter.
        scores = scores.copy()
        scores[..., :boundary] = smooth_rows(scores[..., :boundary], sss_cfg)
    return scores, np.sort(scores[..., :boundary], axis=-1)


def select_audiokv(
    window: ObservationWindow,
    plan: BudgetPlan,
    sss_cfg: SssConfig | None,
    recent: int = DEFAULT_RECENT,
    ranking: tuple[np.ndarray, np.ndarray] | None = None,
) -> EvictionResult:
    """Head-budgeted top-score retention, optionally smoothing scores first.

    `ranking`, if given, must be `rank_scores(window, sss_cfg, recent)`;
    without it that is built here.
    """
    _check_dims(window, plan)
    if ranking is None:
        ranking = rank_scores(window, sss_cfg, recent)
    scores, ranked = ranking
    name = "audiokv" if sss_cfg is not None else "audiokv-nosss"
    return EvictionResult(name, _retain(scores, plan.capacities, recent, ranked), plan)


def select_snapkv(
    window: ObservationWindow,
    capacity_per_head: np.ndarray | int,
    pool_width: int = DEFAULT_POOL_WIDTH,
    recent: int = DEFAULT_RECENT,
) -> EvictionResult:
    """Uniform capacity with centered moving-average pooling of the scores."""
    if pool_width < 1 or pool_width % 2 == 0:
        raise ValueError("pool_width must be odd and >= 1")
    scores = _pool(window.aggregated, pool_width)
    return EvictionResult("snapkv", _retain(scores, capacity_per_head, recent))


def select_h2o(
    trace: AttentionTrace,
    capacity_per_head: np.ndarray | int,
    recent: int = DEFAULT_RECENT,
) -> EvictionResult:
    """Heavy-hitter retention: attention mass accumulated over every step."""
    scores = summed_attention(trace.steps, trace.final_context_length)
    return EvictionResult("h2o", _retain(scores, capacity_per_head, recent))


def select_adakv(
    window: ObservationWindow,
    layer_budget: np.ndarray | int,
    recent: int = DEFAULT_RECENT,
) -> EvictionResult:
    """Layer-pooled selection: heads compete for one shared layer budget.

    `layer_budget` is one budget for every layer or one per layer. Each head
    keeps its recent window; the remaining layer budget goes to the layer's
    highest-scored older entries, ties going to the lower (head, index), so
    per-head counts vary.
    """
    layers, heads = window.shape
    context = window.context_length
    layer_budget = np.broadcast_to(layer_budget, (layers,))
    if np.any(layer_budget < heads * recent):
        raise CapacityBelowRecentError(
            f"layer budget {layer_budget.min()} < {heads} heads x recent {recent}"
        )
    kept_recent = min(recent, context)
    boundary = context - kept_recent
    pool = layer_budget - heads * kept_recent
    older = window.aggregated[..., :boundary].reshape(layers, heads * boundary)
    mask = np.ones((layers, heads, context), dtype=bool)
    mask[..., :boundary] = topk_mask(older, pool).reshape(layers, heads, boundary)
    return EvictionResult("adakv", mask)


class Policy(NamedTuple):
    """A named policy's plan mode, `select` selector, and whether it smooths."""

    mode: AllocationMode
    selector: str
    smooth: bool


POLICIES = {
    "audiokv": Policy(AllocationMode.COMBINED, "audiokv", True),
    "audiokv-nosss": Policy(AllocationMode.COMBINED, "audiokv", False),
    "snapkv": Policy(AllocationMode.UNIFORM, "snapkv", False),
    "snapkv+sss": Policy(AllocationMode.UNIFORM, "audiokv", True),
    "h2o": Policy(AllocationMode.UNIFORM, "h2o", False),
    "adakv": Policy(AllocationMode.UNIFORM, "adakv", False),
    "pyramid": Policy(AllocationMode.PYRAMID, "audiokv", False),
}


def select(
    name: str,
    selector: str,
    window: ObservationWindow,
    trace: AttentionTrace,
    plan: BudgetPlan,
    sss_cfg: SssConfig | None,
    recent: int,
    pool_width: int,
    ranking: tuple[np.ndarray, np.ndarray] | None = None,
) -> EvictionResult:
    """Run `selector` under `plan`, naming the result `name`.

    audiokv (smoothing with `sss_cfg` if given, `ranking` as in
    `select_audiokv`), snapkv (pooling over `pool_width`) and h2o (scoring
    every step of `trace`) keep the plan's per-head capacities; adakv pools
    each layer's total.
    """
    _check_dims(window, plan)
    if selector == "audiokv":
        result = select_audiokv(window, plan, sss_cfg, recent, ranking)
    elif selector == "snapkv":
        result = select_snapkv(window, plan.capacities, pool_width, recent)
    elif selector == "h2o":
        result = select_h2o(trace, plan.capacities, recent)
    elif selector == "adakv":
        result = select_adakv(window, plan.capacities.sum(axis=1), recent)
    else:
        raise ValueError(f"unknown selector: {selector}")
    return replace(result, policy_name=name)


def save_result(result: EvictionResult, path: str | Path) -> None:
    """Write `result` as the compact JSON `json.dumps` makes of its payload.

    `retained` is written straight from the mask: each head's indices pick
    their decimal texts from one table built per call, so no index becomes
    a Python int on the way to the file.
    """
    payload = {
        "policy": result.policy_name,
        "context_length": result.context_length,
        "plan": None
        if result.plan is None
        else {
            "window": result.plan.window,
            "base": result.plan.base,
            "budget": result.plan.global_budget,
            "mode": result.plan.mode,
        },
    }
    digits = np.array([str(i).encode() for i in range(result.context_length)], dtype=object)

    def listed(items) -> bytes:
        """`json.dumps`' text of a list whose items are already text."""
        return b"[" + b", ".join(items) + b"]"

    retained = listed(
        listed(listed(digits[np.flatnonzero(head)].tolist()) for head in layer)
        for layer in result.mask
    )
    # "retained" is the last key: it goes in before the payload's closing brace.
    text = json.dumps(payload).encode()
    Path(path).write_bytes(text[:-1] + b', "retained": ' + retained + b"}")


def load_result(path: str | Path) -> EvictionResult:
    """Read a result file back; the plan summary is not reconstructed.

    `context_length` must be a JSON integer. Every layer must list the same
    number of heads, and every head's indices must be strictly increasing and
    lie in [0, context_length).
    """
    try:
        payload = read_json(path)
        policy = str(payload["policy"])
        context = json_int(payload["context_length"], "context_length")
        rows = [[np.asarray(kept) for kept in layer] for layer in payload["retained"]]
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise FormatError(f"{path}: bad result file: {exc!r}") from exc
    per_head = [kept for layer in rows for kept in layer]
    if not per_head or any(len(layer) != len(rows[0]) for layer in rows):
        raise FormatError(f"{path}: every layer must list the same, nonzero number of heads")
    if any(kept.ndim != 1 or (kept.size and kept.dtype.kind != "i") for kept in per_head):
        raise FormatError(f"{path}: each head must list a flat array of integer indices")
    index = np.concatenate(per_head).astype(np.int64)
    head_of = np.repeat(np.arange(len(per_head)), [len(kept) for kept in per_head])
    unsorted = np.diff(index)[head_of[1:] == head_of[:-1]] <= 0
    if context < 0 or np.any(index < 0) or np.any(index >= context) or np.any(unsorted):
        raise FormatError(f"{path}: head indices must increase strictly within [0, {context})")
    try:
        mask = np.zeros((len(per_head), context), dtype=bool)
    except MemoryError as exc:
        raise FormatError(f"{path}: context_length {context} is too large to hold") from exc
    mask[head_of, index] = True
    return EvictionResult(policy, mask.reshape(len(rows), len(rows[0]), context))
