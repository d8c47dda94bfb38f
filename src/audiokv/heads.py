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

from .errors import DimensionMismatchError, FormatError
from .trace import AttentionTrace, WordAlignment, WordStepMap, word_to_audio_span

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
    to any word are ignored. An empty map yields a zero matrix.

    The top-k of every row of a step is ranked here from one value sort: the
    kth-largest value splits each row into the entries above it, which are
    all kept, and the ties at it, of which the first `room` are kept, so the
    set is a stable descending argsort's first k. Hits are counted per span
    without building that set.
    """
    shape = (trace.num_layers, trace.num_heads)
    totals = np.zeros(shape, dtype=np.float64)
    num_samples = 0
    steps_by_index = {step.step_index: step for step in trace.steps}
    for word_index, step_indices in word_step_map.entries:
        span = word_to_audio_span(words[word_index], trace)
        lo, hi = span.start_index, span.end_index + 1
        for step_index in sorted(step_indices):
            step = steps_by_index[step_index]
            rows = step.attention  # [L, H, context]
            k = min(cfg.k, step.context_length)
            kth = np.sort(rows, axis=-1)[..., step.context_length - k, None]
            room = k - np.count_nonzero(rows > kth, axis=-1)
            tied_before = np.count_nonzero(rows[..., :lo] == kth, axis=-1)
            inside = rows[..., lo:hi]
            hits = np.count_nonzero(inside > kth, axis=-1) + np.clip(
                room - tied_before, 0, np.count_nonzero(inside == kth, axis=-1)
            )
            totals += hits / cfg.k
            num_samples += 1
    scores = totals / num_samples if num_samples else totals
    return HeadScoreMatrix(scores=scores, num_samples=num_samples)


def save_scores(matrix: HeadScoreMatrix, path: str | Path) -> None:
    payload = {
        "num_layers": int(matrix.shape[0]),
        "num_heads": int(matrix.shape[1]),
        "num_samples": int(matrix.num_samples),
        "scores": matrix.scores.tolist(),
    }
    Path(path).write_text(json.dumps(payload, indent=1))


def load_scores(path: str | Path) -> HeadScoreMatrix:
    payload = json.loads(Path(path).read_text())
    try:
        scores = np.asarray(payload["scores"], dtype=np.float64)
        header = (int(payload["num_layers"]), int(payload["num_heads"]))
        num_samples = int(payload["num_samples"])
    except (KeyError, TypeError, ValueError) as exc:
        raise FormatError(f"{path}: bad head-score file: {exc!r}") from exc
    if scores.shape != header:
        raise DimensionMismatchError(
            f"{path}: scores shaped {scores.shape}, header says {header}"
        )
    return HeadScoreMatrix(scores=scores, num_samples=num_samples)
