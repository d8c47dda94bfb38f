"""Token-selection policies deciding which KV entries each head retains.

All policies share the same skeleton: the most recent `recent` context
positions are kept unconditionally (counted inside capacity), and the rest of
a head's capacity is filled with the highest-scoring older positions, ties
going to the lower index. They differ in how they rank the observation
window's mean attention: as-is, spectrally smoothed, or pooled, per head or
across a layer.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Iterable, NamedTuple

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
from .heads import topk_mask
from .spectral import SssConfig, smooth_rows
from .trace import AttentionTrace, DecodingStep, StepSum, stream_steps

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

    @classmethod
    def mean_of(cls, summed: np.ndarray, width: int) -> "ObservationWindow":
        """The window whose `width` steps' rows sum to `summed`.

        `summed` is divided in place and becomes the window's `aggregated`.
        """
        summed /= width
        return cls(width=width, aggregated=summed)


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
    steps = stream_steps(trace, trace.num_steps - width)
    return ObservationWindow.mean_of(summed_attention(steps, trace.final_context_length), width)


def summed_attention(steps: Iterable[DecodingStep], context: int) -> np.ndarray:
    """The float64 [layers, heads, context] sum of the steps' attention rows.

    Each step adds its first `min(step.context_length, context)` positions:
    a shorter step is zero-padded, a longer one cut at `context`. Steps
    narrower than the context go through one contiguous buffer (`StepSum`).
    The steps are read once, in order, so a caller summing a trace's steps
    passes its `stream_steps`. `simulate` and `compare` get their sums from
    `validate_trace` instead, in the pass that validates the trace.
    """
    summed = None
    for step in steps:
        if summed is None:
            summed = StepSum(*step.attention.shape[:2], context)
        summed.add(step.attention)
    if summed is None:
        raise ValueError("no steps to sum")
    return summed.total


def _evictable(context: int, recent: int) -> int:
    """How many positions precede the recent block, which is always kept."""
    return context - min(recent, context)


def _check_capacities(capacities: np.ndarray, recent: int) -> None:
    """Raise CapacityBelowRecentError if a [..., layers, heads] capacity is
    below `recent`, naming the least capacity of the first [layers, heads]
    block that holds one."""
    below = capacities < recent
    if below.any():
        first = tuple(np.argwhere(below)[0][:-2])
        raise CapacityBelowRecentError(
            f"capacity {capacities[first].min()} < recent window {recent}"
        )


def _retain(
    scores: np.ndarray,
    capacities: np.ndarray | int,
    recent: int,
    ranked: np.ndarray | None = None,
) -> np.ndarray:
    """Per head: the recent positions plus the top-scored older positions.

    scores is [layers, heads, context]; capacities is shaped `(*lead, *rows)`
    as `topk_mask`'s k is, its row part broadcasting to [layers, heads].
    Returns the `(*lead, layers, heads, context)` retained mask, one per
    lead index, after `_check_capacities`.
    `ranked`, if given, is the value sort of the evictable prefix, as
    `rank_scores` returns it. Ties go to the lower index.
    """
    layers, heads, context = scores.shape
    capacities = np.broadcast_to(
        capacities, np.broadcast_shapes(np.shape(capacities), (layers, heads))
    )
    _check_capacities(capacities, recent)
    boundary = _evictable(context, recent)
    fill = np.minimum(capacities, context) - (context - boundary)
    mask = np.ones((*capacities.shape, context), dtype=bool)
    topk_mask(scores[..., :boundary], fill, ranked, out=mask[..., :boundary])
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
    half = width // 2
    context = scores.shape[-1]
    # No window, full or partial, spans more than the context.
    kernel = np.full(min(width, context), 1.0 / width)
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
    window ranks the same two arrays, so `metrics.score_rows` builds them
    once per layer block and config and selects every plan from them in one
    `_retain`.
    """
    scores = window.aggregated
    boundary = _evictable(window.context_length, recent)
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
) -> EvictionResult:
    """Head-budgeted top-score retention, optionally smoothing scores first."""
    _check_dims(window, plan)
    scores, ranked = rank_scores(window, sss_cfg, recent)
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
    """Heavy-hitter retention: attention mass accumulated over every step.

    The reference for `select`'s h2o selector, which ranks the window.
    """
    scores = summed_attention(stream_steps(trace), trace.final_context_length)
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
    boundary = _evictable(context, recent)
    pool = layer_budget - heads * (context - boundary)
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
    plan: BudgetPlan,
    sss_cfg: SssConfig | None,
    recent: int,
    pool_width: int,
) -> EvictionResult:
    """Run `selector` on `window` under `plan`, naming the result `name`.

    audiokv (smoothing with `sss_cfg` if given), snapkv (pooling over
    `pool_width`) and h2o keep the plan's per-head capacities; adakv pools
    each layer's total. h2o ranks the window unpooled, as snapkv at pool
    width 1: the window is the steps' sum that `select_h2o` ranks, divided
    by the width, which keeps the ranking at a power-of-two width such as
    the default 32. At other widths rounding may tie two close sums.
    """
    _check_dims(window, plan)
    if selector == "audiokv":
        result = select_audiokv(window, plan, sss_cfg, recent)
    elif selector == "snapkv":
        result = select_snapkv(window, plan.capacities, pool_width, recent)
    elif selector == "h2o":
        result = select_snapkv(window, plan.capacities, 1, recent)
    elif selector == "adakv":
        result = select_adakv(window, plan.capacities.sum(axis=1), recent)
    else:
        raise ValueError(f"unknown selector: {selector}")
    return replace(result, policy_name=name)


def save_result(result: EvictionResult, path: str | Path) -> None:
    """Write `result` as the compact JSON `json.dumps` makes of its payload.

    `retained` is written from `result.retained`: each head's indices pick
    their decimal texts from one table built per call, so no index becomes
    a Python int on the way to the file.
    """
    payload = {
        "policy": result.policy_name,
        "context_length": result.context_length,
        "plan": None if result.plan is None else result.plan.summary(),
    }
    digits = np.array([str(i).encode() for i in range(result.context_length)], dtype=object)

    def listed(items) -> bytes:
        """`json.dumps`' text of a list whose items are already text."""
        return b"[" + b", ".join(items) + b"]"

    retained = listed(
        listed(listed(digits[kept].tolist()) for kept in layer) for layer in result.retained
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
