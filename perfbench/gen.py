"""Seeded, vectorised generator for production-shaped attention traces.

The layout follows an audio language model prompt: a short system prefix,
750 audio tokens (30 s at 25 tokens/s), a long text instruction, then the
generated transcript of 16 words at 4 sub-word steps each. Every step is
built as one [layers * heads, context] array; there is no Python loop over
heads.

A minority of planted audio heads carry the spike-plateau structure of the
`spike-plateau` fixture: tall transient peaks on the word being transcribed
plus a broad plateau over audio not yet transcribed. All other heads attend
to recency, the prompt and diffuse audio. Nothing here is tuned to hide
known defects: with few planted heads the `combined` allocation still hands
them more slots than the context holds.
"""

from __future__ import annotations

import numpy as np

from audiokv.trace import AttentionTrace, DecodingStep, WordAlignment, validate_trace

NUM_WORDS = 16
STEPS_PER_WORD = 4
AUDIO_START = 32
NUM_AUDIO = 750
NUM_INSTRUCTION = 700
DURATION_S = 30.0
PLANTED_SHARE = 0.075
LOW_CONFIDENCE_WORDS = 3
OBSERVED_STEPS = 32  # the CLI's default window; the plateau sits beyond it

# Six letters each, so every word splits into the same sub-word steps and the
# work per op does not depend on which words a seed draws.
VOCABULARY = (
    "signal", "window", "budget", "market", "planet", "garden", "silver", "harbor",
    "violin", "engine", "forest", "letter", "mirror", "canyon", "candle", "pepper",
    "rocket", "saddle", "tunnel", "wander", "yellow", "zipper", "anchor", "basket",
    "castle", "dragon", "falcon", "bridge", "copper", "meadow", "marble", "pencil",
)


def _recency(length: int, gamma: float) -> np.ndarray:
    weights = gamma ** np.arange(length)[::-1]
    return weights / weights.sum()


def _split(text: str, pieces: int) -> list[str]:
    text = " " + text
    size = max(1, len(text) // pieces)
    chunks = [text[i * size : (i + 1) * size] for i in range(pieces - 1)]
    chunks.append(text[(pieces - 1) * size :])
    return [c if c else " " for c in chunks]


def generate(seed: int, layers: int, heads: int) -> tuple[AttentionTrace, list[WordAlignment]]:
    """Build and validate one trace plus its word alignment."""
    rng = np.random.default_rng(seed)
    n = layers * heads
    num_steps = NUM_WORDS * STEPS_PER_WORD
    base_context = AUDIO_START + NUM_AUDIO + NUM_INSTRUCTION
    audio = slice(AUDIO_START, AUDIO_START + NUM_AUDIO)
    instruction = slice(audio.stop, audio.stop + NUM_INSTRUCTION)

    planted = np.sort(rng.choice(n, size=max(1, round(PLANTED_SHARE * n)), replace=False))
    is_planted = np.zeros(n, dtype=bool)
    is_planted[planted] = True
    p = len(planted)

    word_start = (np.arange(NUM_WORDS) * NUM_AUDIO) // NUM_WORDS
    word_stop = np.append(word_start[1:], NUM_AUDIO)

    # Plateau: three disjoint blocks per planted head over the audio that is
    # transcribed only after the observation window.
    lo = int(word_stop[OBSERVED_STEPS // STEPS_PER_WORD - 1])
    segment = (NUM_AUDIO - lo) // 3
    block = int(0.6 * segment)
    starts = lo + np.arange(3) * segment + rng.integers(0, segment - block + 1, size=(p, 3))
    pos = np.arange(NUM_AUDIO)
    in_block = ((pos >= starts[..., None]) & (pos < starts[..., None] + block)).any(axis=1)
    unit = 0.35 / NUM_AUDIO * 2.0
    plateau = unit * np.where(in_block, 1.0, 0.02)  # [p, audio]
    # Peak density matches the spike-plateau fixture: 4 peaks per ~21 audio
    # tokens there, 8 per ~47 here.
    peaks = rng.integers(
        word_start[None, :, None], word_stop[None, :, None], size=(p, NUM_WORDS, 8)
    )

    num_phases = (num_steps + 31) // 32
    drift = rng.uniform(-1.0, 1.0, size=(num_phases, n - p, NUM_AUDIO))
    sink = np.where(is_planted, 0.004, 0.008)[:, None] * np.array([0.4, 0.3, 0.2, 0.1])

    conf = rng.uniform(0.96, 0.995, size=NUM_WORDS)
    conf[rng.choice(NUM_WORDS, size=LOW_CONFIDENCE_WORDS, replace=False)] = 0.90
    vocab = rng.choice(len(VOCABULARY), size=NUM_WORDS, replace=False)
    words = [
        WordAlignment(
            text=VOCABULARY[v],
            t_start=w * DURATION_S / NUM_WORDS,
            t_end=(w + 1) * DURATION_S / NUM_WORDS,
            confidence=float(conf[w]),
        )
        for w, v in enumerate(vocab)
    ]
    texts = [piece for word in words for piece in _split(word.text, STEPS_PER_WORD)]

    local = ~is_planted
    rows_p = np.arange(p)[:, None]
    rows_l = np.arange(n - p)[:, None]
    steps = []
    for t in range(num_steps):
        w = t // STEPS_PER_WORD
        context = base_context + t
        rows = np.full((n, context), 0.01 / context)
        rows[:, :4] += sink

        a_p = plateau * (1.0 + 0.10 * rng.uniform(-1.0, 1.0, size=(p, NUM_AUDIO)))
        a_p[:, : word_start[w]] *= 0.6
        a_p[rows_p, peaks[:, w]] = 5.0 * unit
        a_l = 0.02 * (1.0 + 0.5 * drift[t // 32]) / NUM_AUDIO
        roaming = np.concatenate(
            [
                rng.integers(word_start[w], word_stop[w], size=(n - p, 2)),
                rng.integers(0, NUM_AUDIO, size=(n - p, 3)),
            ],
            axis=1,
        )
        a_l[rows_l, roaming] += 0.0045
        rows[is_planted, audio] += a_p
        rows[local, audio] += a_l
        rows[local, instruction] += 0.05 / NUM_INSTRUCTION
        if t:
            recent_p = min(32, t)
            rows[is_planted, context - recent_p :] += 0.30 * _recency(recent_p, 0.8)
        rows[local, context - 32 :] += 0.45 * _recency(32, 0.8)

        rows /= rows.sum(axis=1, keepdims=True)
        steps.append(
            DecodingStep(
                step_index=t,
                generated_token_text=texts[t],
                attention=rows.reshape(layers, heads, context).astype(np.float32),
            )
        )

    trace = AttentionTrace(
        num_layers=layers,
        num_heads=heads,
        steps=tuple(steps),
        audio_start=AUDIO_START,
        num_audio_tokens=NUM_AUDIO,
        total_duration_s=DURATION_S,
    )
    validate_trace(trace)
    return trace, words
