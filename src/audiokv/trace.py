"""Attention traces, word alignments, and their on-disk formats.

A trace records, for each decoding step, the attention distribution of the
newly generated token over all prior context positions for every layer and
head. Word alignments are WhisperX-style records (word, start, end, score)
that anchor generated text to audio time.

Trace file layout (little-endian): magic "AKVT", u32 version=1, u32 layers,
u32 heads, u32 steps, u32 audio_start, u32 audio_tokens, f64 duration; then
per step a u32 context length followed by layers*heads*context f32 values in
layer-major, head-major, index-minor order. Generated token texts are not
part of the binary record; they ride in an optional sidecar JSON
("<trace>.tokens.json", one string per step) written and read automatically.
"""

from __future__ import annotations

import bisect
import json
import math
import mmap
import os
import re
import stat
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import DegenerateSpanError, FormatError, IntegrityError, read_json

TRACE_MAGIC = b"AKVT"
TRACE_VERSION = 1
ROW_SUM_TOLERANCE = 1e-4  # f32 softmax exports accumulate rounding error

_HEADER = struct.Struct("<4sIIIIIId")
_U32 = struct.Struct("<I")


@dataclass(frozen=True)
class WordAlignment:
    """One aligned word with its time boundaries and alignment confidence."""

    text: str
    t_start: float
    t_end: float
    confidence: float


@dataclass(frozen=True)
class AudioSpan:
    """Inclusive range of audio token indices covering one word."""

    start_index: int
    end_index: int


@dataclass(frozen=True)
class DecodingStep:
    step_index: int
    generated_token_text: str
    attention: np.ndarray  # [layers, heads, context] float32

    @property
    def context_length(self) -> int:
        return self.attention.shape[-1]


@dataclass(frozen=True)
class AttentionTrace:
    """Immutable per-step attention record plus the audio-prefix geometry."""

    num_layers: int
    num_heads: int
    steps: tuple[DecodingStep, ...]
    audio_start: int
    num_audio_tokens: int
    total_duration_s: float

    @property
    def num_steps(self) -> int:
        return len(self.steps)

    @property
    def audio_span(self) -> tuple[int, int]:
        return self.audio_start, self.num_audio_tokens

    @property
    def final_context_length(self) -> int:
        return self.steps[-1].context_length

    def prefix(self, num_steps: int) -> "AttentionTrace":
        """Sub-trace containing the first num_steps decoding steps."""
        if not 1 <= num_steps <= self.num_steps:
            raise ValueError(f"num_steps must be in [1, {self.num_steps}]")
        return AttentionTrace(
            num_layers=self.num_layers,
            num_heads=self.num_heads,
            steps=self.steps[:num_steps],
            audio_start=self.audio_start,
            num_audio_tokens=self.num_audio_tokens,
            total_duration_s=self.total_duration_s,
        )


@dataclass(frozen=True)
class WordStepMap:
    """Word index -> decoding steps that generated it (disjoint across words)."""

    entries: tuple[tuple[int, frozenset[int]], ...]

    def aligned_steps(self) -> list[int]:
        """All mapped step indices, sorted."""
        out: set[int] = set()
        for _, steps in self.entries:
            out |= steps
        return sorted(out)

    def __len__(self) -> int:
        return len(self.entries)


def validate_trace(trace: AttentionTrace) -> None:
    """Check every structural invariant; raise Format/IntegrityError if broken."""
    if trace.num_layers < 1 or trace.num_heads < 1 or trace.num_steps < 1:
        raise FormatError("trace must have at least one layer, head, and step")
    # Written as a negation so a NaN duration, which compares false, fails too.
    if not 0.0 <= trace.total_duration_s < math.inf:
        raise FormatError(f"duration must be finite and >= 0, got {trace.total_duration_s}")
    prev_context = 0
    prev_step_index = -1
    for position, step in enumerate(trace.steps):
        if step.step_index <= prev_step_index:
            raise IntegrityError(
                f"step indices must increase: {step.step_index} after {prev_step_index}"
            )
        prev_step_index = step.step_index
        if step.attention.shape[:2] != (trace.num_layers, trace.num_heads):
            raise FormatError(
                f"step {position} attention shaped {step.attention.shape}, "
                f"expected ({trace.num_layers}, {trace.num_heads}, _)"
            )
        if step.context_length <= prev_context:
            raise IntegrityError(
                f"context length must increase: step {position} has "
                f"{step.context_length} after {prev_context}"
            )
        prev_context = step.context_length
        sums = step.attention.sum(axis=-1, dtype=np.float64)
        worst = float(np.max(np.abs(sums - 1.0)))
        # Written as a negation so a NaN sum, which compares false, fails too.
        if not worst <= ROW_SUM_TOLERANCE:
            raise IntegrityError(
                f"step {position} attention row sums off by {worst:.2e} "
                f"(tolerance {ROW_SUM_TOLERANCE})"
            )
        if np.any(step.attention < 0):
            raise IntegrityError(f"step {position} has negative attention values")
    first_context = trace.steps[0].context_length
    if trace.audio_start < 0 or trace.num_audio_tokens < 0:
        raise FormatError("audio span fields must be non-negative")
    if trace.audio_start + trace.num_audio_tokens > first_context:
        raise FormatError(
            f"audio span [{trace.audio_start}, "
            f"{trace.audio_start + trace.num_audio_tokens}) exceeds the "
            f"smallest context length {first_context}"
        )


def write_trace(trace: AttentionTrace, path: str | Path) -> None:
    """Serialize a trace; token texts go to the sidecar when any are non-empty.

    The file is written beside `path` and renamed over it, so a trace loaded
    from `path` keeps reading the old file: truncating a mapped file would
    kill its reader with SIGBUS.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as fh:
            fh.write(
                _HEADER.pack(
                    TRACE_MAGIC,
                    TRACE_VERSION,
                    trace.num_layers,
                    trace.num_heads,
                    trace.num_steps,
                    trace.audio_start,
                    trace.num_audio_tokens,
                    trace.total_duration_s,
                )
            )
            for step in trace.steps:
                fh.write(_U32.pack(step.context_length))
                fh.write(np.ascontiguousarray(step.attention, dtype="<f4").tobytes())
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)
    texts = [step.generated_token_text for step in trace.steps]
    sidecar = _sidecar_path(path)
    if any(texts):
        sidecar.write_text(json.dumps(texts, ensure_ascii=False))
    elif sidecar.exists():
        sidecar.unlink()


def load_trace(path: str | Path) -> AttentionTrace:
    """Read and fully validate a trace file (plus token sidecar if present).

    The file is mapped read-only, not copied: each step's attention is a
    read-only view of the mapping, which stays open while any step is alive.
    """
    path = Path(path)
    with open(path, "rb") as fh:
        info = os.fstat(fh.fileno())
        if not stat.S_ISREG(info.st_mode):
            raise FormatError(f"{path}: a trace is memory-mapped, so it must be a regular file")
        # mmap refuses an empty file, so the size is checked first.
        if info.st_size < _HEADER.size:
            raise FormatError(f"{path}: truncated header")
        data = mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_READ)
    magic, version, layers, heads, num_steps, a0, n_audio, duration = _HEADER.unpack_from(
        data, 0
    )
    if magic != TRACE_MAGIC:
        raise FormatError(f"{path}: bad magic {magic!r}")
    if version != TRACE_VERSION:
        raise FormatError(f"{path}: unsupported version {version}")
    # Every step takes at least its u32 context length, so a count the file
    # cannot hold is caught before one text per step is made.
    if num_steps > (len(data) - _HEADER.size) // _U32.size:
        raise FormatError(f"{path}: truncated: {num_steps} steps in {len(data)} bytes")
    texts = _load_sidecar(path, num_steps)
    offset = _HEADER.size
    steps = []
    for index in range(num_steps):
        if offset + _U32.size > len(data):
            raise FormatError(f"{path}: truncated at step {index}")
        (context,) = _U32.unpack_from(data, offset)
        offset += _U32.size
        count = layers * heads * context
        if count == 0:  # numpy cannot shape an empty block with very large sides
            raise FormatError(f"{path}: step {index} is empty ({layers}x{heads}x{context})")
        end = offset + 4 * count
        if end > len(data):
            raise FormatError(f"{path}: truncated attention block at step {index}")
        block = np.frombuffer(data, dtype="<f4", count=count, offset=offset)
        offset += 4 * count
        steps.append(
            DecodingStep(
                step_index=index,
                generated_token_text=texts[index],
                attention=block.reshape(layers, heads, context),
            )
        )
    if offset != len(data):
        raise FormatError(f"{path}: {len(data) - offset} trailing bytes")
    trace = AttentionTrace(
        num_layers=layers,
        num_heads=heads,
        steps=tuple(steps),
        audio_start=a0,
        num_audio_tokens=n_audio,
        total_duration_s=duration,
    )
    validate_trace(trace)
    return trace


def _sidecar_path(path: Path) -> Path:
    return path.with_name(path.name + ".tokens.json")


def _load_sidecar(path: Path, num_steps: int) -> list[str]:
    sidecar = _sidecar_path(path)
    if not sidecar.exists():
        return [""] * num_steps
    texts = read_json(sidecar)
    if not isinstance(texts, list) or len(texts) != num_steps:
        raise FormatError(f"{sidecar}: expected a list of {num_steps} strings")
    return [str(t) for t in texts]


def load_alignment(path: str | Path) -> list[WordAlignment]:
    """Read a WhisperX-style JSON array of {word, start, end, score} objects.

    Times must be finite, non-negative and ordered (start <= end).
    """
    raw = read_json(path)
    if not isinstance(raw, list):
        raise FormatError(f"{path}: expected a JSON array")
    words = []
    for i, item in enumerate(raw):
        try:
            word = WordAlignment(
                text=str(item["word"]),
                t_start=float(item["start"]),
                t_end=float(item["end"]),
                confidence=float(item["score"]),
            )
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise FormatError(f"{path}: bad alignment record {i}: {exc}") from exc
        # NaN fails every comparison, so the chain rejects it too.
        if not 0.0 <= word.t_start <= word.t_end < math.inf:
            raise FormatError(
                f"{path}: alignment record {i} needs finite times with "
                f"0 <= start <= end, got start {word.t_start}, end {word.t_end}"
            )
        words.append(word)
    return words


def write_alignment(words: list[WordAlignment], path: str | Path) -> None:
    records = [
        {"word": w.text, "start": w.t_start, "end": w.t_end, "score": w.confidence}
        for w in words
    ]
    Path(path).write_text(json.dumps(records, ensure_ascii=False, indent=1))


def filter_words(words: list[WordAlignment], tau: float) -> list[WordAlignment]:
    """Keep only words with confidence >= tau, preserving order."""
    if not 0.0 <= tau <= 1.0:
        raise ValueError(f"tau must be in [0, 1], got {tau}")
    return [w for w in words if w.confidence >= tau]


def word_to_audio_span(word: WordAlignment, trace: AttentionTrace) -> AudioSpan:
    """Map word timestamps to audio token indices, assuming uniform time->index.

    Both endpoints use floor(t / duration * audio_tokens) and are clamped into
    the audio prefix so a word ending exactly at the total duration stays on
    the last audio token.
    """
    a0, n_audio = trace.audio_span
    duration = trace.total_duration_s
    if duration <= 0 or n_audio == 0:
        raise DegenerateSpanError(
            f"cannot map time to tokens (duration={duration}, audio_tokens={n_audio})"
        )
    last = a0 + n_audio - 1

    def to_index(t: float) -> int:
        return min(max(a0 + math.floor(t / duration * n_audio), a0), last)

    return AudioSpan(start_index=to_index(word.t_start), end_index=to_index(word.t_end))


def _normalize_text(text: str) -> str:
    """Case-fold and drop punctuation; keep letters, digits, and spaces."""
    folded = text.casefold()
    return "".join(ch for ch in folded if ch.isalnum() or ch.isspace())


def align_generated_to_words(
    steps: list[DecodingStep] | tuple[DecodingStep, ...],
    words: list[WordAlignment],
) -> WordStepMap:
    """Greedy left-to-right match of generated text against aligned words.

    The steps' texts are concatenated (case-folded, punctuation stripped) and
    split into whitespace-delimited generated words; each alignment word is
    matched to the next equal generated word, never backtracking. A step
    belongs to the generated word containing its first non-space character,
    so sub-word tokens straddling a boundary go to the earlier word.
    """
    pieces = [_normalize_text(step.generated_token_text) for step in steps]
    generated = list(re.finditer(r"\S+", "".join(pieces)))
    starts = [m.start() for m in generated]
    steps_per_word: list[set[int]] = [set() for _ in generated]
    position = 0
    for step, piece in zip(steps, pieces):
        first = re.search(r"\S", piece)
        if first is not None:
            # The owning word is the last one starting at or before that character.
            owner = bisect.bisect_right(starts, position + first.start()) - 1
            steps_per_word[owner].add(step.step_index)
        position += len(piece)

    entries = []
    cursor = 0
    for word_index, word in enumerate(words):
        target = _normalize_text(word.text).replace(" ", "")
        if not target:
            continue
        for g in range(cursor, len(generated)):
            if generated[g].group() == target:
                if steps_per_word[g]:
                    entries.append((word_index, frozenset(steps_per_word[g])))
                cursor = g + 1
                break
    return WordStepMap(entries=tuple(entries))
