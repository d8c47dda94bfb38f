"""Retention-quality metrics and the trace-replay comparison harness.

Policies are evaluated once at an eviction boundary inside the trace: the
steps before it feed the observation window the policies select from, and the
steps after it are held out as ground truth. Quality is then measured against
that held-out future: how much of the attention mass the model goes on to
spend lands on retained entries (retained_mass), and how closely the retained
set matches the hindsight-optimal one (oracle_overlap). Coverage entropy
quantifies how dispersed the retained indices are; memory_footprint counts
bytes for the surviving KV pairs.
"""

from __future__ import annotations

import csv
import io
import itertools
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .budget import BudgetPlan, budget_at_ratio, make_plan
from .errors import DimensionMismatchError, HorizonError
from .eviction import (
    DEFAULT_RECENT,
    POLICIES,
    EvictionResult,
    ObservationWindow,
    _check_capacities,
    _check_dims,
    _retain,
    build_observation_window,
    rank_scores,
    select,
    summed_attention,
)
from .heads import HeadScoreMatrix, topk_mask
from .spectral import SssConfig
from .trace import AttentionTrace, stream_steps, validate_trace

DEFAULT_ENTROPY_BINS = 10

# The POLICIES names `compare` reports per ratio: uniform vs head-aware plan, SSS off vs on.
COMPARE_GRID = ("snapkv", "snapkv+sss", "audiokv-nosss", "audiokv")


@dataclass(frozen=True)
class KvGeometry:
    head_dim: int = 64
    bytes_per_element: int = 2
    kv_pair_factor: int = 2  # one key plus one value per entry

    def __post_init__(self) -> None:
        if min(self.head_dim, self.bytes_per_element, self.kv_pair_factor) < 1:
            raise ValueError("geometry fields must be positive")

    @property
    def entry_bytes(self) -> int:
        """Bytes one retained KV entry holds."""
        return self.kv_pair_factor * self.head_dim * self.bytes_per_element


@dataclass(frozen=True)
class RetentionReport:
    policy_name: str
    retention_ratio: float
    oracle_overlap: float
    coverage_entropy: float
    mass_retained: float
    memory_bytes: int


@dataclass(frozen=True)
class PolicySpec:
    """One comparison row: its report name, the `eviction.select` selector it
    runs under its paired plan, and its SSS config (None: no smoothing)."""

    name: str
    selector: str = "audiokv"
    sss: SssConfig | None = None


def eviction_boundary(trace: AttentionTrace, observation_width: int) -> tuple[int, int]:
    """How many steps precede the eviction boundary, `observation_width` cut to
    leave at least one for the held-out future, and the last one's context,
    which the policies select from and the future is cut at. `simulate`
    observes `min(window, steps)` steps instead: it holds out no future."""
    obs_steps = min(observation_width, trace.num_steps - 1)
    if obs_steps < 1:
        raise HorizonError("trace too short to split into observation and future")
    return obs_steps, trace.steps[obs_steps - 1].context_length


def compare_grid(
    trace: AttentionTrace,
    scores: HeadScoreMatrix,
    ratios: tuple[float, ...],
    window: int,
    base_fraction: float,
    sss: SssConfig,
) -> tuple[list[PolicySpec], list[BudgetPlan]]:
    """`run_comparison`'s `COMPARE_GRID` rows at each ratio, and their plans.

    A ratio's budget is `budget_at_ratio` at the context of the
    `eviction_boundary` of an `observation_width` of `window`; the rows of
    one plan mode share one `make_plan`, and the rows that smooth use `sss`.
    Each row takes its plan mode and SSS from `POLICIES` and runs the
    audiokv selector, so the `snapkv` row ranks the window's scores unpooled.
    """
    _, context = eviction_boundary(trace, window)
    modes = dict.fromkeys(POLICIES[name].mode for name in COMPARE_GRID)
    policies, plans = [], []
    for ratio in ratios:
        budget = budget_at_ratio(ratio, context, scores.scores.size)
        plan_of = {mode: make_plan(scores, budget, mode, window, base_fraction) for mode in modes}
        for name in COMPARE_GRID:
            policy = POLICIES[name]
            policies.append(PolicySpec(name, sss=sss if policy.smooth else None))
            plans.append(plan_of[policy.mode])
    return policies, plans


def find_eviction_step(trace: AttentionTrace, context_length: int) -> int:
    """Index of the step whose context matches the eviction boundary."""
    for i, step in enumerate(trace.steps):
        if step.context_length == context_length:
            return i
    raise HorizonError(f"no step has context length {context_length}")


def aggregate_future_attention(
    trace: AttentionTrace, eviction_step: int, horizon: int, context_length: int
) -> ObservationWindow:
    """Mean held-out attention over the next `horizon` steps, truncated to the
    pre-eviction context (positions created later are not evictable)."""
    start = eviction_step + 1
    count = len(trace.steps[start : start + horizon])
    if not count:
        raise HorizonError(f"no decoding steps remain after step {eviction_step}")
    future = stream_steps(trace, start, start + count)
    return ObservationWindow.mean_of(summed_attention(future, context_length), count)


def oracle_overlap(result: EvictionResult, trace: AttentionTrace, horizon: int) -> float:
    """Mean per-head overlap with the hindsight-optimal retained set.

    The oracle keeps, per head, the indices with the largest attention mass
    over the `horizon` steps that follow the eviction boundary, using the same
    set size the policy retained.
    """
    boundary = find_eviction_step(trace, result.context_length)
    future = aggregate_future_attention(trace, boundary, horizon, result.context_length)
    return float(_overlaps(result.mask[None], future.aggregated, None)[0])


def _overlaps(masks: np.ndarray, future: np.ndarray, ranked: np.ndarray | None) -> np.ndarray:
    """`oracle_overlap` of each [pairs, layers, heads, context] retained mask
    against the held-out aggregate `future` and its value sort `ranked`
    (None: sorted here), which serves every set size: a head's oracle set is
    the `topk_mask` of its future row at the number it retained.
    """
    sizes = masks.sum(axis=-1)
    oracle = topk_mask(future, sizes, ranked)
    oracle &= masks  # the hits, in place
    hits = np.count_nonzero(oracle, axis=-1)
    overlaps = np.where(sizes > 0, hits / np.maximum(sizes, 1), 1.0)
    return np.mean(overlaps.reshape(len(masks), -1), axis=-1)


def _head_sums(values: np.ndarray, kept: np.ndarray) -> np.ndarray:
    """Each row's sum of its `kept` entries, in index order.

    numpy's summation order depends on a row's length. Sorted by how many
    entries they keep, the rows lay out their kept values in runs of equal
    length, and each run is summed as one [rows, n] block: every row gets the
    bits its own 1-D `np.sum` would. A row that keeps nothing sums to 0.
    """
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


def retained_mass(result: EvictionResult, window: ObservationWindow) -> float:
    """Mean per-head share of the window's attention mass on retained indices.

    A head with no attention mass counts as fully retained. The window may
    reach past the result's context, not fall short of it.
    """
    return float(_masses(result.mask[None], window)[0])


def _masses(masks: np.ndarray, window: ObservationWindow) -> np.ndarray:
    """`retained_mass` of each [pairs, layers, heads, context] retained mask.

    The window's row totals are summed once; each pair's kept mass is
    gathered on its own, so no float copy of the rows carries the pair axis.
    """
    pairs, layers, heads, context = masks.shape
    if (layers, heads) != window.shape or window.context_length < context:
        raise DimensionMismatchError(
            f"result {masks.shape[1:]} does not fit window {window.aggregated.shape}"
        )
    rows = window.aggregated.reshape(layers * heads, window.context_length)
    totals = rows.sum(axis=-1)
    mass = np.stack(
        [_head_sums(rows[:, :context], mask.reshape(layers * heads, context)) for mask in masks]
    )
    shares = np.divide(mass, totals, out=np.ones_like(mass), where=totals > 0.0)
    return np.mean(shares, axis=-1)


def coverage_entropy(result: EvictionResult, bins: int = DEFAULT_ENTROPY_BINS) -> float:
    """Mean per-head Shannon entropy (nats) of retained indices over equal bins.

    Each bin's counts are one scan of that bin's columns of the mask. A head
    scores minus the sum of its `p·log p` terms over its occupied bins, in bin
    order, as its own 1-D `np.sum` would; a head that keeps nothing scores 0.
    """
    return float(_entropies(result.mask[None], bins)[0])


def _entropies(masks: np.ndarray, bins: int) -> np.ndarray:
    """`coverage_entropy` of each [pairs, layers, heads, context] retained
    mask, every pair's bin counts taken in the same scan."""
    if bins < 2:
        raise ValueError("bins must be >= 2")
    pairs, layers, heads, context = masks.shape
    # Bin b holds positions [bounds[b], bounds[b+1]): np.histogram's rule,
    # edges[b] <= position < edges[b+1]. With fewer positions than bins, some
    # bins are empty.
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


def memory_footprint(result: EvictionResult, geom: KvGeometry) -> int:
    """Bytes held by the retained KV entries across all heads."""
    return result.total_retained() * geom.entry_bytes


def run_comparison(
    trace: AttentionTrace,
    policies: list[PolicySpec],
    plans: list[BudgetPlan],
    geom: KvGeometry = KvGeometry(),
    *,
    observation_width: int = DEFAULT_RECENT,
    recent: int = DEFAULT_RECENT,
) -> list[RetentionReport]:
    """Score each (policy, plan) row at the eviction boundary; reports come back in input order.

    The first `observation_width` steps feed the policies; every step after
    them is held out to score the results. The trace is taken as validated:
    the window and the held-out future are summed here, one pass over their
    steps each, and `score_rows` does the rest. `compare` calls `score_rows`
    with the sums of `validated_split` instead, which reads each step once.
    """
    if len(policies) != len(plans):
        raise ValueError("policies and plans must pair up one to one")
    if not policies:
        return []
    obs_steps, context = eviction_boundary(trace, observation_width)
    obs_trace = trace.prefix(obs_steps)
    window = build_observation_window(obs_trace, obs_steps)
    future = aggregate_future_attention(trace, obs_steps - 1, trace.num_steps - obs_steps, context)
    return score_rows(obs_trace, window, future, policies, plans, geom, recent)


def validated_split(
    trace: AttentionTrace, observation_width: int
) -> tuple[AttentionTrace, ObservationWindow, ObservationWindow] | None:
    """`validate_trace` of every step, in the pass that sums the observation
    window and the held-out future of `eviction_boundary`.

    Returns the observed prefix of the trace, the window and the future, as
    `run_comparison` builds them; the future is cut at the window's context.
    A trace too short to split is validated all the same, and None comes
    back: the caller's own `eviction_boundary` raises its `HorizonError`
    after the inputs read before it, so a bad step is reported first.
    """
    if trace.num_steps < 2:
        validate_trace(trace)
        return None
    obs_steps, context = eviction_boundary(trace, observation_width)
    spans = [(0, obs_steps), (obs_steps, trace.num_steps)]
    window, future = validate_trace(trace, spans, context)
    return (
        trace.prefix(obs_steps),
        ObservationWindow.mean_of(window, obs_steps),
        ObservationWindow.mean_of(future, trace.num_steps - obs_steps),
    )


def score_rows(
    obs_trace: AttentionTrace,
    window: ObservationWindow,
    future: ObservationWindow,
    policies: list[PolicySpec],
    plans: list[BudgetPlan],
    geom: KvGeometry,
    recent: int,
) -> list[RetentionReport]:
    """Select each (policy, plan) row from `window` and score it against `future`.

    `obs_trace` is the observed prefix of the trace, which only the h2o
    selector reads. The window's scores are smoothed and sorted once per
    distinct SSS config, and the audiokv rows ranking them select in one
    `_retain` over their stacked capacities. Other selectors run through
    `select` one row at a time. The retained masks form one [rows, layers,
    heads, context] stack, scored for every row at once against the
    held-out aggregate, which is sorted once. Rows are checked in input
    order first, so an error names the first bad row.
    """
    masks = np.empty((len(plans), *window.shape, window.context_length), dtype=bool)
    ranks = []
    for i, (policy, plan) in enumerate(zip(policies, plans)):
        if policy.selector == "audiokv":
            _check_dims(window, plan)
            _check_capacities(plan.capacities, recent)
            ranks.append(i)
        else:
            masks[i] = select(
                policy.name, policy.selector, window, obs_trace, plan, policy.sss, recent, 1
            ).mask
    for sss in dict.fromkeys(policies[i].sss for i in ranks):
        rows = [i for i in ranks if policies[i].sss == sss]
        scores, ranked = rank_scores(window, sss, recent)
        capacities = np.stack([plans[i].capacities for i in rows])
        masks[rows] = _retain(scores, capacities, recent, ranked)
        del scores, ranked  # freed before the next ranking and the scoring
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


# Report column name -> the RetentionReport field it shows, in column order.
REPORT_COLUMNS = {
    "policy": "policy_name",
    "ratio": "retention_ratio",
    "overlap": "oracle_overlap",
    "mass": "mass_retained",
    "entropy": "coverage_entropy",
    "bytes": "memory_bytes",
}


def _report_rows(reports: list[RetentionReport]) -> list[dict]:
    return [{name: getattr(r, field) for name, field in REPORT_COLUMNS.items()} for r in reports]


def reports_to_csv(reports: list[RetentionReport]) -> str:
    """The report as CSV, floats written with `%.10g`."""
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(REPORT_COLUMNS)
    for row in _report_rows(reports):
        writer.writerow(f"{v:.10g}" if isinstance(v, float) else v for v in row.values())
    return buffer.getvalue()


def write_reports(
    reports: list[RetentionReport], csv_path: str | Path, json_path: str | Path | None = None
) -> None:
    """Write the CSV report and, if `json_path` is given, its JSON mirror of the same rows."""
    Path(csv_path).write_text(reports_to_csv(reports))
    if json_path is not None:
        Path(json_path).write_text(json.dumps(_report_rows(reports), indent=1))
