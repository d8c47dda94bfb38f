"""Per-head audio-grounding scores from traces and word alignments.

A head is audio-critical when its top-K attended indices, at the steps that
generate a word, land inside that word's audio-token span. The per-step hit
ratio is averaged over all word-aligned steps into an L x H score matrix.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import DimensionMismatchError, FormatError, json_int, read_json
from .trace import AttentionTrace, WordAlignment, WordStepMap, stream_steps, word_to_audio_span

DEFAULT_TOP_K = 24


@dataclass(frozen=True)
class TopKConfig:
    k: int = DEFAULT_TOP_K

    def __post_init__(self) -> None:
        if self.k < 1:
            raise ValueError("k must be >= 1")


@dataclass(frozen=True)
class HeadScoreMatrix:
    """scores[layer, head] in [0, 1]; num_samples = aggregated decoding steps."""

    scores: np.ndarray
    num_samples: int

    @property
    def shape(self) -> tuple[int, int]:
        return self.scores.shape


def score_heads(
    trace: AttentionTrace,
    words: list[WordAlignment],
    word_step_map: WordStepMap,
    cfg: TopKConfig = TopKConfig(),
) -> HeadScoreMatrix:
    """Mean per-head hit ratio over all word-aligned decoding steps.

    Each step is scored against the span of its own word; steps not aligned
    to any word are ignored, and never read. An empty map yields a zero
    matrix.

    The aligned steps are read in trace order, through `stream_steps`, and
    their hits are summed in the map's order. A step's rows are sorted once.
    When no row's ties spill past its top k, the top k is everything at or
    above the kth value, so only the span is compared against it; otherwise
    the hits are read off `topk_mask`.
    """
    position = {step.step_index: p for p, step in enumerate(trace.steps)}
    # Trace position -> (sample number, audio span) of each hit ratio read
    # there, the samples numbered in the map's order.
    samples: dict[int, list[tuple[int, int, int]]] = {}
    count = 0
    for word_index, step_indices in word_step_map.entries:
        span = word_to_audio_span(words[word_index], trace)
        for step_index in sorted(step_indices):
            at = samples.setdefault(position[step_index], [])
            at.append((count, span.start_index, span.end_index + 1))
            count += 1
    hits = [None] * count
    first = min(samples, default=0)
    for at, step in enumerate(stream_steps(trace, first, max(samples, default=-1) + 1), first):
        if at not in samples:
            continue
        rows = step.attention  # [L, H, context]
        context = step.context_length
        k = min(cfg.k, context)
        ranked = np.sort(rows, axis=-1)
        kth = ranked[..., context - k, None]
        top = None
        if k < context and np.any(ranked[..., context - k - 1, None] == kth):
            top = topk_mask(rows, k, ranked)
        for sample, lo, hi in samples[at]:
            inside = rows[..., lo:hi] >= kth if top is None else top[..., lo:hi]
            hits[sample] = np.count_nonzero(inside, axis=-1)
        del ranked, kth, top  # freed before the next step is sorted
    totals = np.zeros((trace.num_layers, trace.num_heads), dtype=np.float64)
    for sample_hits in hits:
        totals += sample_hits / cfg.k
    scores = totals / count if count else totals
    return HeadScoreMatrix(scores=scores, num_samples=count)


def topk_mask(
    scores: np.ndarray,
    k: np.ndarray | int,
    ranked: np.ndarray | None = None,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """True at the k highest scores of each row, ties going to the lower index.

    This is the one top-k rule: head scoring, every selector, the oracle
    overlap, and the leftover slots of the combined plan and the pyramid
    schedule (`budget._apportion`) all rank with it.
    `k` (>= 0) is shaped `(*lead, *rows)`, its row part broadcasting
    against the rows of `scores`, and the mask is `(*lead, *rows, n)`: one
    mask per lead index, so a caller ranking one array under several k
    stacks them in one call. `ranked` is the value sort of `scores` along
    the last axis; callers ranking one array in several calls sort it once
    and pass it in. Each row keeps everything above its kth-largest value,
    then the first of the entries equal to it. One compare does that, except
    in the rows whose ties at the kth value spill past the top k: k is 0, or
    the sorted value just below the kth slot is the same. Only those rows
    are scanned again, one lead index at a time, so no float copy of the
    rows is made. `out`, if given, is the `(*lead, *rows, n)` bool array the
    mask is written to and returned as.
    """
    context = scores.shape[-1]
    k = np.minimum(k, context)
    k = np.broadcast_to(k, np.broadcast_shapes(k.shape, scores.shape[:-1]))
    if context == 0:
        return np.zeros((*k.shape, 0), dtype=bool) if out is None else out
    if ranked is None:
        ranked = np.sort(scores, axis=-1)
    lead = k.shape[: k.ndim - ranked.ndim + 1]
    # The kth slot (the last when k is 0) and the one below it, which wraps
    # round when k is the context, where nothing spills.
    slots = np.minimum(context - k, context - 1)[..., None] - np.array([1, 0])
    ranked = ranked[(None,) * len(lead)]
    below, kth = np.moveaxis(np.take_along_axis(ranked, slots, axis=-1), -1, 0)
    spill = (k == 0) | ((k < context) & (below == kth))
    mask = np.greater_equal(scores, kth[..., None], out=out)
    for index in np.ndindex(lead):
        rows = spill[index]
        if rows.any():
            # The rows keep everything at or above the kth value, less the
            # ties past their room; no float copy of the rows is made.
            kept, tied = mask[index][rows], (scores == kth[index][..., None])[rows]
            above = np.count_nonzero(kept, axis=-1) - np.count_nonzero(tied, axis=-1)
            room = (k[index][rows] - above)[:, None]
            # A running count of ties never exceeds the row length.
            seen = np.cumsum(tied, axis=-1, dtype=np.min_scalar_type(context))
            tied &= seen > room
            del seen
            kept ^= tied
            mask[index][rows] = kept
    return mask


def save_scores(matrix: HeadScoreMatrix, path: str | Path) -> None:
    payload = {
        "num_layers": int(matrix.shape[0]),
        "num_heads": int(matrix.shape[1]),
        "num_samples": int(matrix.num_samples),
        "scores": matrix.scores.tolist(),
    }
    Path(path).write_text(json.dumps(payload, indent=1))


def load_scores(path: str | Path) -> HeadScoreMatrix:
    """Read a head-score file; every score must be a number in [0, 1], and the
    header fields JSON integers, `num_layers` and `num_heads` >= 1 and
    `num_samples` >= 0."""
    payload = read_json(path)
    try:
        scores = np.asarray(payload["scores"], dtype=np.float64)
        header = tuple(json_int(payload[key], key) for key in ("num_layers", "num_heads"))
        num_samples = json_int(payload["num_samples"], "num_samples")
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise FormatError(f"{path}: bad head-score file: {exc!r}") from exc
    if min(header) < 1:
        raise FormatError(f"{path}: num_layers and num_heads must be >= 1, got {header}")
    if num_samples < 0:
        raise FormatError(f"{path}: num_samples must be >= 0, got {num_samples}")
    if scores.shape != header:
        raise DimensionMismatchError(
            f"{path}: scores shaped {scores.shape}, header says {header}"
        )
    # NaN fails both comparisons, so it is out of range too.
    outside = ~((scores >= 0.0) & (scores <= 1.0))
    if outside.any():
        layer, head = np.argwhere(outside)[0]
        raise FormatError(
            f"{path}: score [{layer}][{head}] is {scores[layer, head]}, not a number in [0, 1]"
        )
    return HeadScoreMatrix(scores=scores, num_samples=num_samples)
