"""Whole-grid reference for `metrics.score_rows`, which scores by layer blocks.

`score_rows` is the row scoring as the library once shipped it: every row's
retained mask joins one [rows, layers, heads, context] stack, which is scored
at once against the held-out future, sorted whole. `_overlaps`, `_masses`,
`_entropies` and `_head_sums` are that version's metric kernels, each
returning every pair's mean over all heads, so tests can require the
block-wise scoring to give the same reports bit for bit.
"""

import itertools

import numpy as np

from audiokv.eviction import _check_capacities, _check_dims, _retain, rank_scores, select
from audiokv.heads import topk_mask
from audiokv.metrics import DEFAULT_ENTROPY_BINS, RetentionReport


def _overlaps(masks, future, ranked):
    sizes = masks.sum(axis=-1)
    oracle = topk_mask(future, sizes, ranked)
    oracle &= masks
    hits = np.count_nonzero(oracle, axis=-1)
    overlaps = np.where(sizes > 0, hits / np.maximum(sizes, 1), 1.0)
    return np.mean(overlaps.reshape(len(masks), -1), axis=-1)


def _head_sums(values, kept):
    used = np.count_nonzero(kept, axis=-1)
    order = np.argsort(used, kind="stable")
    values = values[order][kept[order]]
    sums = np.empty(len(used))
    row = offset = 0
    for n, run in itertools.groupby(used[order].tolist()):
        count = len(list(run))
        block = values[offset : offset + count * n].reshape(count, n)
        sums[order[row : row + count]] = block.sum(axis=-1)
        row, offset = row + count, offset + count * n
    return sums


def _masses(masks, window):
    pairs, layers, heads, context = masks.shape
    rows = window.aggregated.reshape(layers * heads, window.context_length)
    totals = rows.sum(axis=-1)
    mass = np.stack(
        [_head_sums(rows[:, :context], mask.reshape(layers * heads, context)) for mask in masks]
    )
    shares = np.divide(mass, totals, out=np.ones_like(mass), where=totals > 0.0)
    return np.mean(shares, axis=-1)


def _entropies(masks, bins):
    pairs, layers, heads, context = masks.shape
    bounds = np.ceil(np.linspace(0, context, bins + 1)).astype(np.intp)
    rows = masks.reshape(pairs * layers * heads, context)
    counts = np.stack(
        [np.count_nonzero(rows[:, lo:hi], axis=-1) for lo, hi in zip(bounds[:-1], bounds[1:])],
        axis=-1,
    )
    occupied = counts > 0
    p = counts / np.maximum(counts.sum(axis=-1, keepdims=True), 1)
    terms = p * np.log(p, out=np.zeros_like(p), where=occupied)
    return np.mean(-_head_sums(terms, occupied).reshape(pairs, -1), axis=-1)


def score_rows(window, future, policies, plans, geom, recent):
    """`metrics.score_rows` over the whole grid at once."""
    masks = np.empty((len(plans), *window.shape, window.context_length), dtype=bool)
    ranks = []
    for i, (policy, plan) in enumerate(zip(policies, plans)):
        if policy.selector == "audiokv":
            _check_dims(window, plan)
            _check_capacities(plan.capacities, recent)
            ranks.append(i)
        else:
            result = select(policy.name, policy.selector, window, plan, policy.sss, recent, 1)
            masks[i] = result.mask
    for sss in dict.fromkeys(policies[i].sss for i in ranks):
        rows = [i for i in ranks if policies[i].sss == sss]
        scores, ranked = rank_scores(window, sss, recent)
        capacities = np.stack([plans[i].capacities for i in rows])
        masks[rows] = _retain(scores, capacities, recent, ranked)
    kept = np.count_nonzero(masks.reshape(len(masks), -1), axis=-1)
    overlaps = _overlaps(masks, future.aggregated, np.sort(future.aggregated, axis=-1))
    entropies = _entropies(masks, DEFAULT_ENTROPY_BINS)
    masses = _masses(masks, future)
    return [
        RetentionReport(
            policy_name=policy.name,
            retention_ratio=float(kept[i] / masks[i].size),
            oracle_overlap=float(overlaps[i]),
            coverage_entropy=float(entropies[i]),
            mass_retained=float(masses[i]),
            memory_bytes=int(kept[i]) * geom.entry_bytes,
        )
        for i, policy in enumerate(policies)
    ]
