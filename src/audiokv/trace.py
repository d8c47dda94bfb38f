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
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Iterator, NamedTuple, Sequence

import numpy as np

from .errors import AudioKvError, DegenerateSpanError, FormatError, IntegrityError, read_json

TRACE_MAGIC = b"AKVT"
TRACE_VERSION = 1
ROW_SUM_TOLERANCE = 1e-4  # f32 softmax exports accumulate rounding error
# Bytes of finished steps a pass over a mapped trace lets the kernel drop at a
# time (`stream_steps`): the most of them that stay resident behind the pass.
RELEASE_CHUNK = 2 << 20
# Where mmap cannot drop pages, a mapped trace stays resident while it is open.
_CAN_RELEASE = hasattr(mmap, "MADV_DONTNEED") and hasattr(mmap.mmap, "madvise")

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


class TraceFile(NamedTuple):
    """Where `map_trace` found a trace's steps: the read-only mapping, and the
    file offset just past each step's values, in step order."""

    data: mmap.mmap
    ends: tuple[int, ...]


@dataclass(frozen=True)
class AttentionTrace:
    """Immutable per-step attention record plus the audio-prefix geometry.

    `source` is set by `map_trace`, so that `stream_steps` can let the kernel
    drop the pages of the steps a pass has finished; None for a trace built
    in memory.
    """

    num_layers: int
    num_heads: int
    steps: tuple[DecodingStep, ...]
    audio_start: int
    num_audio_tokens: int
    total_duration_s: float
    source: TraceFile | None = field(default=None, repr=False, compare=False)

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
        return replace(self, steps=self.steps[:num_steps])


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


class StepSum:
    """The float64 [layers, heads, context] sum of attention steps added one by one.

    Each step adds its first `min(width, context)` positions: a narrower
    step is zero-padded, a wider one cut at `context`. A narrower step is
    first copied into one contiguous float64 buffer whose tail past the
    step's width is zero, so the sum is a contiguous add instead of a write
    through a strided view of the sum; the tail is re-zeroed if a later
    step is narrower than the last. A step at least as wide as the context
    is added straight from its own rows. The sum is made when the first step
    is added, so a sum made ahead of its steps holds no memory until then.
    """

    def __init__(self, layers: int, heads: int, context: int) -> None:
        self._shape = (layers, heads, context)
        self.total: np.ndarray | None = None
        self._buffer: np.ndarray | None = None
        self._filled = 0  # leading buffer positions that may be nonzero

    def add(self, attention: np.ndarray) -> np.ndarray | None:
        """Add one step's rows; return their float64 copy if the buffer made one."""
        width, context = attention.shape[-1], self._shape[-1]
        if self.total is None:
            self.total = np.zeros(self._shape, dtype=np.float64)
        if width >= context:
            self.total += attention[..., :context]
            return None
        if self._buffer is None:
            self._buffer = np.zeros_like(self.total)
        buffer = self._buffer
        buffer[..., :width] = attention
        if self._filled > width:
            buffer[..., width : self._filled] = 0.0
        self._filled = width
        self.total += buffer
        return buffer[..., :width]

    def finish(self) -> None:
        """Free the copy buffer once the last step is added."""
        self._buffer = None


def stream_steps(
    trace: AttentionTrace, start: int = 0, stop: int | None = None
) -> Iterator[DecodingStep]:
    """Yield `trace.steps[start:stop]` in order, releasing mapped pages behind the pass.

    For a trace from `map_trace`, once the steps passed since the last
    release end `RELEASE_CHUNK` bytes or more beyond it, the kernel is told
    to drop the whole pages they fill (`MADV_DONTNEED`); when the pass ends,
    it drops the rest up to the last step yielded. A dropped page reloads
    from the page cache if it is read again, so no value changes; only what
    the process keeps resident does. A trace built in memory, or a platform
    without `madvise`, yields the steps and releases nothing.
    """
    start, stop, _ = slice(start, stop).indices(trace.num_steps)
    steps = trace.steps[start:stop]
    source = trace.source
    # A trace given more steps than its file's (by `replace`) releases nothing.
    if source is None or not _CAN_RELEASE or stop > len(source.ends):
        yield from steps
        return
    data, ends = source
    page = mmap.PAGESIZE
    released = (ends[start - 1] if start else 0) // page * page
    end = released
    try:
        for position, step in enumerate(steps, start):
            yield step
            end = ends[position]
            if end - released >= RELEASE_CHUNK:
                whole = end // page * page
                data.madvise(mmap.MADV_DONTNEED, released, whole - released)
                released = whole
    finally:
        if end > released:
            data.madvise(mmap.MADV_DONTNEED, released, end - released)


def validate_trace(
    trace: AttentionTrace,
    spans: Sequence[tuple[int, int]] = (),
    context: int | None = None,
) -> list[np.ndarray]:
    """Check every structural invariant; raise Format/IntegrityError if broken.

    Every step is read once. The same pass adds the steps of each
    `(start, stop)` in `spans` into a `StepSum` as wide as `context`, or, if
    `context` is None, as wide as the span's last step, and returns those
    float64 sums in the order of `spans`. A step in a span takes its row sums
    from the float64 copy that the sum made of it, if one was made. A span's
    sum is made at its first step, and its copy buffer is freed once its last
    step is added, so `compare` holds no idle window buffer while it sums the
    future. This is
    how `simulate` gets its observation window: the window is its one span,
    and the steps after it are validated all the same.

    The row sums and the minimum of each step are collected and checked
    together, at the end or at the first step that fails a structural check.
    Either way the error names the first bad step, and a step's structural
    faults are reported before its values.
    """
    if trace.num_layers < 1 or trace.num_heads < 1 or trace.num_steps < 1:
        raise FormatError("trace must have at least one layer, head, and step")
    # Written as a negation so a NaN duration, which compares false, fails too.
    if not 0.0 <= trace.total_duration_s < math.inf:
        raise FormatError(f"duration must be finite and >= 0, got {trace.total_duration_s}")
    shape = (trace.num_layers, trace.num_heads)
    sums = []
    for start, stop in spans:
        if not 0 <= start < stop <= trace.num_steps:
            raise ValueError(f"span [{start}, {stop}) is not inside {trace.num_steps} steps")
        width = trace.steps[stop - 1].context_length if context is None else context
        sums.append((start, stop, StepSum(*shape, width)))
    row_sums = np.empty((trace.num_steps, *shape))
    minima = np.empty(trace.num_steps)
    prev = None
    for position, step in enumerate(stream_steps(trace)):
        fault = _step_fault(position, step, prev, shape)
        if fault is not None:
            _check_values(row_sums, minima, position)
            raise fault
        prev = step
        attention = step.attention
        copy = None
        for start, stop, summed in sums:
            if start <= position < stop:
                added = summed.add(attention)
                if copy is None:
                    copy = added
                if position == stop - 1:
                    summed.finish()
        if copy is None:
            attention.sum(axis=-1, dtype=np.float64, out=row_sums[position])
        else:
            np.add.reduce(copy, axis=-1, out=row_sums[position])
        minima[position] = attention.min()
    _check_values(row_sums, minima, trace.num_steps)
    first_context = trace.steps[0].context_length
    if trace.audio_start < 0 or trace.num_audio_tokens < 0:
        raise FormatError("audio span fields must be non-negative")
    if trace.audio_start + trace.num_audio_tokens > first_context:
        raise FormatError(
            f"audio span [{trace.audio_start}, "
            f"{trace.audio_start + trace.num_audio_tokens}) exceeds the "
            f"smallest context length {first_context}"
        )
    return [summed.total for _, _, summed in sums]


def _step_fault(
    position: int, step: DecodingStep, prev: DecodingStep | None, shape: tuple[int, int]
) -> AudioKvError | None:
    """The first structural fault of the step at `position` after `prev`, or None."""
    prev_index = -1 if prev is None else prev.step_index
    if step.step_index <= prev_index:
        return IntegrityError(f"step indices must increase: {step.step_index} after {prev_index}")
    if step.attention.ndim != 3 or step.attention.shape[:2] != shape:
        return FormatError(
            f"step {position} attention shaped {step.attention.shape}, "
            f"expected ({shape[0]}, {shape[1]}, _)"
        )
    prev_context = 0 if prev is None else prev.context_length
    if step.context_length <= prev_context:
        return IntegrityError(
            f"context length must increase: step {position} has "
            f"{step.context_length} after {prev_context}"
        )
    return None


def _check_values(row_sums: np.ndarray, minima: np.ndarray, count: int) -> None:
    """Raise for the first of the first `count` steps whose rows do not sum
    to 1 or hold a negative value; a step's row sums are checked first."""
    drift = np.abs(row_sums[:count] - 1.0).max(axis=(1, 2))
    # Written as a negation so a NaN sum, which compares false, fails too.
    bad_sums = ~(drift <= ROW_SUM_TOLERANCE)
    bad = bad_sums | (minima[:count] < 0)
    if not bad.any():
        return
    position = int(np.argmax(bad))
    if bad_sums[position]:
        raise IntegrityError(
            f"step {position} attention row sums off by {drift[position]:.2e} "
            f"(tolerance {ROW_SUM_TOLERANCE})"
        )
    raise IntegrityError(f"step {position} has negative attention values")


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
            for step in stream_steps(trace):
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

    `map_trace` followed by `validate_trace`, which reads every step once;
    an error names the file or the first bad step.
    """
    trace = map_trace(path)
    validate_trace(trace)
    return trace


def map_trace(path: str | Path) -> AttentionTrace:
    """Map a trace file (plus token sidecar if present) without reading its values.

    The file's layout is checked, but not its steps: pass the trace to
    `validate_trace` before using it. The header and each step's context
    length are read through the file, so parsing leaves none of the mapped
    pages resident. The file is mapped read-only, not copied: each step's
    attention is a read-only view of the mapping, which stays open while any
    step is alive. The trace's `source` records the mapping and where each
    step ends, for `stream_steps`.
    """
    path = Path(path)
    # Unbuffered: each read below fetches the 4 bytes asked for, no more.
    with open(path, "rb", buffering=0) as fh:
        info = os.fstat(fh.fileno())
        if not stat.S_ISREG(info.st_mode):
            raise FormatError(f"{path}: a trace is memory-mapped, so it must be a regular file")
        size = info.st_size
        # mmap refuses an empty file, so the size is checked first.
        if size < _HEADER.size:
            raise FormatError(f"{path}: truncated header")
        data = mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_READ)
        magic, version, layers, heads, num_steps, a0, n_audio, duration = _HEADER.unpack(
            fh.read(_HEADER.size)
        )
        if magic != TRACE_MAGIC:
            raise FormatError(f"{path}: bad magic {magic!r}")
        if version != TRACE_VERSION:
            raise FormatError(f"{path}: unsupported version {version}")
        # Every step takes at least its u32 context length, so a count the file
        # cannot hold is caught before one text per step is made.
        if num_steps > (size - _HEADER.size) // _U32.size:
            raise FormatError(f"{path}: truncated: {num_steps} steps in {size} bytes")
        texts = _load_sidecar(path, num_steps)
        offset = _HEADER.size
        steps, ends = [], []
        for index in range(num_steps):
            if offset + _U32.size > size:
                raise FormatError(f"{path}: truncated at step {index}")
            fh.seek(offset)
            (context,) = _U32.unpack(fh.read(_U32.size))
            offset += _U32.size
            count = layers * heads * context
            if count == 0:  # numpy cannot shape an empty block with very large sides
                raise FormatError(f"{path}: step {index} is empty ({layers}x{heads}x{context})")
            end = offset + 4 * count
            if end > size:
                raise FormatError(f"{path}: truncated attention block at step {index}")
            block = np.frombuffer(data, dtype="<f4", count=count, offset=offset)
            offset = end
            ends.append(end)
            steps.append(
                DecodingStep(
                    step_index=index,
                    generated_token_text=texts[index],
                    attention=block.reshape(layers, heads, context),
                )
            )
    if offset != size:
        raise FormatError(f"{path}: {size - offset} trailing bytes")
    return AttentionTrace(
        num_layers=layers,
        num_heads=heads,
        steps=tuple(steps),
        audio_start=a0,
        num_audio_tokens=n_audio,
        total_duration_s=duration,
        source=TraceFile(data, tuple(ends)),
    )


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
