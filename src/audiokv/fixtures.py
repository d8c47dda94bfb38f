"""Deterministic synthetic traces for tests, demos, and calibration.

Three profiles:

* ``specialized-heads``: a small fraction of planted heads lock their top-K
  attention onto the current word's audio span; everything else looks at
  recent text. Exercises head scoring and allocation skew.
* ``spike-plateau``: planted audio heads carry a broad moderate plateau of
  relevance over the not-yet-transcribed audio plus tall transient peaks on
  the words being transcribed right now. The observation window therefore
  shows a dense cluster of high-frequency peaks over the recently transcribed
  region, while the held-out future attends the plateau; smoothing disperses
  selection off the transient peaks. Exercises the smoothing and comparison
  machinery.
* ``uniform``: every head shares one mild pattern; scores come out nearly
  equal.

All randomness flows from the single seed, so identical seeds reproduce
identical traces byte for byte. Each step is built as one float64
[layers, heads, context] block and normalised to float32.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .trace import AttentionTrace, DecodingStep, WordAlignment, validate_trace

PROFILES = ("specialized-heads", "spike-plateau", "uniform")

# The observation window `spike-plateau` is built around, the CLI's default
# window: its future attends a plateau past the words these steps generate,
# local-head drift is redrawn once per this many steps, and recency spans at
# most this many positions.
OBSERVED_STEPS = 32


@dataclass(frozen=True)
class Fixture:
    profile: str
    seed: int
    trace: AttentionTrace
    words: list[WordAlignment]
    planted_heads: tuple[tuple[int, int], ...]


def _split_word_text(word: str, pieces: int) -> list[str]:
    """Chop ' word' into `pieces` non-empty sub-token texts."""
    text = " " + word
    size = max(1, len(text) // pieces)
    chunks = [text[i * size : (i + 1) * size] for i in range(pieces - 1)]
    chunks.append(text[(pieces - 1) * size :])
    return [c if c else " " for c in chunks]


def _words(
    rng: np.random.Generator, count: int, duration: float, low_count: int
) -> list[WordAlignment]:
    """`count` equal-length words over `duration` seconds; `low_count` of
    them have confidence 0.90, below the default tau."""
    conf = rng.uniform(0.96, 0.995, size=count)
    if low_count:
        dips = rng.choice(count, size=min(low_count, count), replace=False)
        conf[dips] = 0.90
    return [
        WordAlignment(
            text=f"word{w:02d}",
            t_start=w * duration / count,
            t_end=(w + 1) * duration / count,
            confidence=float(conf[w]),
        )
        for w in range(count)
    ]


def _exponential_recent(length: int, gamma: float) -> np.ndarray:
    weights = gamma ** np.arange(length)[::-1]  # latest position heaviest
    return weights / weights.sum()


def _plateau_profile(
    rng: np.random.Generator, length: int, coverage: float, lo: int
) -> np.ndarray:
    """Blocky relevance profile: 2-3 broad high-relevance regions over a floor.

    Blocks live in [lo, length): the already-consumed opening of the audio
    keeps only the floor, so early transients never coincide with a block.
    """
    profile = np.full(length, 0.02)
    num_blocks = int(rng.integers(2, 4))
    usable = length - lo
    block = int(coverage * usable / num_blocks)
    segment = usable // num_blocks
    for i in range(num_blocks):
        # one block per segment keeps blocks disjoint and coverage exact
        start = lo + i * segment + int(rng.integers(0, segment - block + 1))
        profile[start : start + block] = 1.0
    return profile


def _planted_mask(layers: int, heads: int, planted) -> np.ndarray:
    mask = np.zeros((layers, heads), dtype=bool)
    mask[tuple(np.array(planted, dtype=int).reshape(-1, 2).T)] = True
    return mask


def _by_kind(is_planted: np.ndarray, on, off) -> np.ndarray:
    """[layers, heads, n]: `on` for planted heads, `off` for the others.

    The shorter vector is zero-padded on the left, so both end at position
    n - 1; adding the padding's 0.0 leaves a value's bits unchanged.
    """
    width = max(len(on), len(off))
    rows = np.zeros((*is_planted.shape, width))
    rows[is_planted, width - len(on) :] = on
    rows[~is_planted, width - len(off) :] = off
    return rows


def _block(base, prefix, audio, tail, context: int) -> np.ndarray:
    """One step's unnormalised float64 [layers, heads, context] attention.

    Every position starts at `base / context`. `prefix` is added to the
    positions before the audio, `audio` to the audio tokens after them, and
    `tail` to the last positions; the three regions are disjoint.
    """
    rows = np.repeat(base[..., None] / context, context, axis=-1)
    a0, n_audio = prefix.shape[-1], audio.shape[-1]
    rows[..., :a0] += prefix
    rows[..., a0 : a0 + n_audio] += audio
    rows[..., context - tail.shape[-1] :] += tail
    return rows


def _fixture(profile, seed, planted, words, steps_per_word, blocks, geometry) -> Fixture:
    """Step t is block t normalised to float32, with piece t of the words
    (each split `steps_per_word` ways) as its text.

    `blocks` yields one float64 block per step, so only one is alive at a
    time. `geometry` is (audio_start, num_audio_tokens, total_duration_s).
    """
    texts = [piece for word in words for piece in _split_word_text(word.text, steps_per_word)]
    steps = tuple(
        DecodingStep(t, texts[t], (rows / rows.sum(axis=-1, keepdims=True)).astype(np.float32))
        for t, rows in enumerate(blocks)
    )
    layers, heads, _ = steps[0].attention.shape
    trace = AttentionTrace(layers, heads, steps, *geometry)
    return Fixture(profile, seed, trace, words, planted)


SPIKE_PLATEAU_KNOBS = {
    "audio_share": 0.35,
    "peak_step_gain": 5.0,  # per-step spike height, in units of the plateau top
    "transcribed_decay": 0.6,
    "plateau_coverage": 0.6,
    "step_noise": 0.10,  # transient per-step jitter, uncorrelated with the future
    "recent_share": 0.30,
}


def _spike_plateau(seed: int) -> Fixture:
    rng = np.random.default_rng(seed)
    layers, heads = 2, 4
    planted = ((0, 0), (1, 2))  # in row-major order, the order of per-step draws
    is_planted = _planted_mask(layers, heads, planted)
    num_words, steps_per_word = 24, 8
    n_audio, a0, n_post = 512, 4, 2
    duration = 9.6
    num_steps = num_words * steps_per_word

    span_width = n_audio / num_words
    word_start = [a0 + int(np.floor(w * span_width)) for w in range(num_words)]
    word_stop = word_start[1:] + [a0 + n_audio]  # exclusive

    knobs = SPIKE_PLATEAU_KNOBS
    unit = knobs["audio_share"] / n_audio * 2.0  # plateau-top value pre-normalization
    peak_value = knobs["peak_step_gain"] * unit

    observed_words = OBSERVED_STEPS // steps_per_word
    plateau_lo = word_stop[observed_words - 1] - a0
    profiles = np.array(
        [_plateau_profile(rng, n_audio, knobs["plateau_coverage"], plateau_lo) for _ in planted]
    )
    trend = unit * profiles

    def draw_peaks(profile, w):
        # Transient mis-alignment spikes: prefer irrelevant (off-plateau) frames.
        span = np.arange(word_start[w] - a0, word_stop[w] - a0)
        off = span[profile[span] < 0.5]
        pool = off if len(off) >= 4 else span
        return rng.choice(pool, size=4, replace=False)

    # [planted head, word, 4] audio-token offsets
    peaks = np.array([[draw_peaks(p, w) for w in range(num_words)] for p in profiles])
    # Diffuse audio attention for local heads drifts slowly: one noise draw
    # per head per OBSERVED_STEPS-step phase, so it shapes the window mean
    # but carries no information about later phases.
    num_phases = (num_steps + OBSERVED_STEPS - 1) // OBSERVED_STEPS
    local = np.nonzero(~is_planted)  # (layers, heads) of the local heads
    drift = rng.uniform(-1.0, 1.0, size=(len(local[0]), num_phases, n_audio))
    words = _words(rng, num_words, duration, low_count=3)

    base = np.full((layers, heads), 0.01)
    prefix = _by_kind(
        is_planted, [0.0016, 0.0012, 0.0008, 0.0004], [0.0032, 0.0024, 0.0016, 0.0008]
    )

    def blocks():
        for t in range(num_steps):
            w = t // steps_per_word
            word_len = word_stop[w] - word_start[w]
            # The step's draws, head by head in row-major order. Local heads
            # glance at the current word too, but re-aim every step, so their
            # window-mean stays flat and only the per-step top-K sees it.
            noise, in_span, roaming = [], [], []
            for planted_head in is_planted.flat:
                if planted_head:
                    noise.append(rng.uniform(-1.0, 1.0, size=n_audio))
                else:
                    in_span.append(rng.choice(word_len, size=2, replace=False))
                    roaming.append(rng.choice(n_audio, size=3, replace=False))
            glances = np.hstack([word_start[w] + np.array(in_span), a0 + np.array(roaming)])
            audio = np.empty((layers, heads, n_audio))
            audio[~is_planted] = 0.02 * (1.0 + 0.5 * drift[:, t // OBSERVED_STEPS]) / n_audio
            planted_audio = trend * (1.0 + knobs["step_noise"] * np.array(noise))
            planted_audio[:, : word_start[w] - a0] *= knobs["transcribed_decay"]
            planted_audio[np.arange(len(planted))[:, None], peaks[:, w]] = peak_value
            audio[is_planted] = planted_audio
            # recency of planted heads starts with generated tokens, so the
            # evictable zone never inherits a lone hot boundary position
            tail = _by_kind(
                is_planted,
                knobs["recent_share"] * _exponential_recent(min(OBSERVED_STEPS, t), 0.8),
                0.45 * _exponential_recent(min(OBSERVED_STEPS, n_post + t), 0.8),
            )
            rows = _block(base, prefix, audio, tail, a0 + n_audio + n_post + t)
            # buffered `+=`: a position glanced at twice gains 0.0045 once
            rows[local[0][:, None], local[1][:, None], glances] += 0.0045
            yield rows

    return _fixture(
        "spike-plateau", seed, planted, words, steps_per_word, blocks(), (a0, n_audio, duration)
    )


def _specialized_or_uniform(seed: int, uniform: bool) -> Fixture:
    rng = np.random.default_rng(seed)
    layers, heads = 2, 10
    planted = () if uniform else ((0, 0), (1, 5))
    is_planted = _planted_mask(layers, heads, planted)
    num_words = 16
    span = 24
    n_audio, a0, n_post = num_words * span, 4, 2
    duration = 8.0

    words = _words(rng, num_words, duration, low_count=2)
    jitter = rng.uniform(0.0, 1e-4, size=(layers, heads))
    base = np.where(is_planted, 0.04, 0.13 + jitter)
    prefix = _by_kind(is_planted, [0.008, 0.006, 0.004, 0.002], [0.048, 0.036, 0.024, 0.012])
    # Uniform heads all glance at the current word, each with its own slight
    # wiggle; in specialized-heads only the planted heads lock onto it.
    wiggle = 1.0 + 0.12 * (jitter * 1e4 - 0.5)
    span_gain = 0.25 * wiggle / span if uniform else np.where(is_planted, 0.90 / span, 0.0)

    def blocks():
        for t in range(num_words):
            audio = np.zeros((layers, heads, n_audio))
            audio[..., t * span : (t + 1) * span] = span_gain[..., None]
            tail = _by_kind(
                is_planted,
                0.04 * _exponential_recent(min(12, n_post + t), 0.7),
                0.50 * _exponential_recent(min(24, n_post + t), 0.8),
            )
            yield _block(base, prefix, audio, tail, a0 + n_audio + n_post + t)

    profile = "uniform" if uniform else "specialized-heads"
    return _fixture(profile, seed, planted, words, 1, blocks(), (a0, n_audio, duration))


def generate_fixture(profile: str, seed: int) -> Fixture:
    """Build one synthetic trace plus matching word alignments."""
    if profile == "spike-plateau":
        fixture = _spike_plateau(seed)
    elif profile == "specialized-heads":
        fixture = _specialized_or_uniform(seed, uniform=False)
    elif profile == "uniform":
        fixture = _specialized_or_uniform(seed, uniform=True)
    else:
        raise ValueError(f"unknown profile {profile!r}; choose from {PROFILES}")
    validate_trace(fixture.trace)
    return fixture
