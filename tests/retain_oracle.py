"""Per-head references for the batched selection kernels and metrics.

These are the loop-per-head and row-at-a-time versions the library once
shipped: `retain_for_head` keeps one head's recent window plus its top-scored
older positions, and `sss` smooths one signal with a searchsorted energy
cutoff and a mask built slice by slice. The `select_*` helpers apply them head
by head, `select_adakv` lexsorts each layer's pooled (score, head, index)
triples, and `oracle_overlap` / `coverage_entropy` / `retained_mass` score
one head at a time with sets, `np.histogram` and 1-D sums, so tests can
require the batched code to match them exactly. `topk_mask` is the batched
ranking sorting its own rows, so a precomputed sort passed to the real one
can be checked against it.
`result_file_bytes` is the result writer as it was, `json.dumps` of the
payload with every retained index as a Python int.
"""

import json
import math

import numpy as np

from audiokv.errors import CapacityBelowRecentError


def retain_for_head(scores, capacity, recent):
    """Recent positions plus the top-scored older positions, sorted."""
    context = scores.shape[0]
    if capacity < recent:
        raise CapacityBelowRecentError(f"capacity {capacity} < recent window {recent}")
    capacity = min(capacity, context)
    kept_recent = min(recent, context)
    boundary = context - kept_recent
    fill = capacity - kept_recent
    older_order = np.argsort(-scores[:boundary], kind="stable")
    chosen = older_order[:fill]
    retained = np.concatenate([chosen, np.arange(boundary, context)])
    return np.sort(retained.astype(np.int64))


def topk_mask(scores, k):
    """True at the k[...] highest scores of each row, ties going to the lower index."""
    context = scores.shape[-1]
    if context == 0:
        return np.zeros(scores.shape, dtype=bool)
    k = np.minimum(k, context)
    rank = np.minimum(context - k, context - 1)[..., None]
    kth = np.take_along_axis(np.sort(scores, axis=-1), rank, axis=-1)
    above = scores > kth
    tied = scores == kth
    room = (k - above.sum(axis=-1))[..., None]
    return above | (tied & (np.cumsum(tied, axis=-1) <= room))


def energy_cutoff(bins, cutoff_ratio):
    last = len(bins) - 1
    if cutoff_ratio >= 1.0:
        return last
    cum = np.cumsum(np.abs(bins) ** 2)
    total = cum[-1]
    if total <= 0.0:
        return last
    return int(np.searchsorted(cum, total * cutoff_ratio, side="left"))


def build_mask(cutoff_index, length, transition_bins):
    weights = np.zeros(length, dtype=np.float64)
    weights[: cutoff_index + 1] = 1.0
    if transition_bins > 0:
        offsets = np.arange(1, transition_bins + 1)
        stop = min(cutoff_index + transition_bins, length - 1)
        count = stop - cutoff_index
        if count > 0:
            ramp = 0.5 * (1.0 + np.cos(np.pi * offsets[:count] / transition_bins))
            weights[cutoff_index + 1 : cutoff_index + 1 + count] = ramp
    return weights


def sss(signal, config):
    """(1-alpha)*x + alpha*irfft(rfft(x)*mask) for one 1-D signal."""
    x = np.asarray(signal, dtype=np.float64)
    if config.mix_alpha == 0.0:
        return x.copy()
    bins = np.fft.rfft(x)
    cutoff = energy_cutoff(bins, config.cutoff_ratio)
    transition = (
        max(2, math.ceil(0.05 * len(bins)))
        if config.transition_bins is None
        else config.transition_bins
    )
    mask = build_mask(cutoff, len(bins), transition)
    smoothed = np.fft.irfft(bins * mask, n=x.size)
    return (1.0 - config.mix_alpha) * x + config.mix_alpha * smoothed


def smooth_rows(signals, config):
    """sss on every signal along the last axis, one at a time."""
    x = np.asarray(signals, dtype=np.float64)
    rows = [sss(row, config) for row in x.reshape(-1, x.shape[-1])]
    return np.array(rows, dtype=np.float64).reshape(x.shape)


def _per_head(scores, capacities, recent):
    layers, heads = capacities.shape
    return tuple(
        tuple(
            retain_for_head(scores[layer, head], int(capacities[layer, head]), recent)
            for head in range(heads)
        )
        for layer in range(layers)
    )


def select_audiokv(window, plan, sss_cfg, recent):
    context = window.context_length
    boundary = max(context - recent, 0)
    scores = window.aggregated.copy()
    if sss_cfg is not None and boundary > 0:
        for layer, head in np.ndindex(*window.shape):
            scores[layer, head, :boundary] = sss(scores[layer, head, :boundary], sss_cfg)
    return _per_head(scores, plan.capacities, recent)


def select_snapkv(window, capacity_per_head, pool_width, recent):
    kernel = np.full(pool_width, 1.0 / pool_width)
    scores = window.aggregated.copy()
    if pool_width > 1:
        for layer, head in np.ndindex(*window.shape):
            scores[layer, head] = np.convolve(scores[layer, head], kernel, mode="same")
    capacities = np.full(window.shape, capacity_per_head)
    return _per_head(scores, capacities, recent)


def select_h2o(trace, capacity_per_head, recent):
    acc = np.zeros(
        (trace.num_layers, trace.num_heads, trace.final_context_length), dtype=np.float64
    )
    for step in trace.steps:
        acc[:, :, : step.context_length] += step.attention
    capacities = np.full((trace.num_layers, trace.num_heads), capacity_per_head)
    return _per_head(acc, capacities, recent)


def select_adakv(window, layer_budget, recent):
    layers, heads = window.shape
    context = window.context_length
    if layer_budget < heads * recent:
        raise CapacityBelowRecentError(
            f"layer budget {layer_budget} < {heads} heads x recent {recent}"
        )
    kept_recent = min(recent, context)
    boundary = context - kept_recent
    pool_budget = min(layer_budget - heads * kept_recent, heads * boundary)
    recent_indices = np.arange(boundary, context, dtype=np.int64)
    retained = []
    for layer in range(layers):
        older = window.aggregated[layer, :, :boundary]
        flat_scores = older.reshape(-1)
        head_of = np.repeat(np.arange(heads), boundary)
        index_of = np.tile(np.arange(boundary), heads)
        order = np.lexsort((index_of, head_of, -flat_scores))
        chosen = order[:pool_budget]
        row = []
        for head in range(heads):
            mine = index_of[chosen[head_of[chosen] == head]]
            row.append(np.sort(np.concatenate([mine.astype(np.int64), recent_indices])))
        retained.append(tuple(row))
    return tuple(retained)


def oracle_overlap(retained, future):
    """Mean per-head overlap of `retained` with the top of `future` [L, H, C]."""
    overlaps = []
    for layer, row in enumerate(retained):
        for head, kept in enumerate(row):
            if len(kept) == 0:
                overlaps.append(1.0)
                continue
            order = np.argsort(-future[layer, head], kind="stable")
            oracle = set(order[: len(kept)].tolist())
            overlaps.append(len(oracle.intersection(kept.tolist())) / len(oracle))
    return float(np.mean(overlaps))


def retained_mass(result, window):
    """Mean per-head share of the window's mass on the retained indices."""
    context = result.context_length
    shares = []
    for layer_rows, layer_kept in zip(window.aggregated, result.mask):
        for row, kept in zip(layer_rows, layer_kept):
            total = float(row.sum())
            shares.append(float(row[:context][kept].sum()) / total if total > 0.0 else 1.0)
    return float(np.mean(shares))


def coverage_entropy(retained, context, bins):
    """Mean per-head entropy of retained indices over `bins` equal bins."""
    entropies = []
    for row in retained:
        for kept in row:
            if len(kept) == 0:
                entropies.append(0.0)
                continue
            counts, _ = np.histogram(kept, bins=bins, range=(0, context))
            p = counts[counts > 0] / len(kept)
            entropies.append(float(-np.sum(p * np.log(p))))
    return float(np.mean(entropies))


def result_file_bytes(result):
    """The bytes of `result`'s file: `json.dumps` of its payload."""
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
        "retained": [[head.tolist() for head in layer] for layer in result.retained],
    }
    return json.dumps(payload).encode()
