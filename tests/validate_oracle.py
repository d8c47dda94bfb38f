"""Step-by-step reference for `validate_trace` and `summed_attention`.

Each step is checked on its own, in order, and raises at its first fault;
its row sums come from a float64 cast of the step itself. The sum adds
every step through a view of the accumulator cut at the step's width. This
is the definition the library's one-pass validation and contiguous-buffer
sum must reproduce: error for error, and bit for bit.
"""

import math

import numpy as np

from audiokv.errors import FormatError, IntegrityError
from audiokv.trace import ROW_SUM_TOLERANCE


def validate_trace(trace):
    if trace.num_layers < 1 or trace.num_heads < 1 or trace.num_steps < 1:
        raise FormatError("trace must have at least one layer, head, and step")
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


def summed_attention(steps, context):
    layers, heads = steps[0].attention.shape[:2]
    acc = np.zeros((layers, heads, context), dtype=np.float64)
    for step in steps:
        width = min(step.context_length, context)
        acc[:, :, :width] += step.attention[:, :, :width]
    return acc
