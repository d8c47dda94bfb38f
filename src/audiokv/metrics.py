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
# Bytes of the float64 [layers, heads, context] slice of the window that
# `score_rows` ranks, selects and scores at a time, at least one layer: its
# transients are a few such slices, and its rows' masks an eighth of one per row.
SCORE_BLOCK = 384 << 10


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
    return float(_row_means(_overlaps(result.mask[None], future.aggregated, None))[0])


def _row_means(per_head: np.ndarray) -> np.ndarray:
    """Each row's mean over its [layers, heads] values: the figure it reports."""
    return np.mean(per_head.reshape(len(per_head), -1), axis=-1)


def _overlaps(masks: np.ndarray, future: np.ndarray, ranked: np.ndarray | None) -> np.ndarray:
    """Each head's `oracle_overlap` for each [pairs, layers, heads, context]
    retained mask, against the held-out aggregate `future` and its value sort
    `ranked` (None: sorted here), which serves every set size: a head's
    oracle set is the `topk_mask` of its future row at the number it retained.
    """
    sizes = masks.sum(axis=-1)
    oracle = topk_mask(future, sizes, ranked)
    oracle &= masks  # the hits, in place
    hits = np.count_nonzero(oracle, axis=-1)
    return np.where(sizes > 0, hits / np.maximum(sizes, 1), 1.0)


def _head_sums(values: np.ndarray, kept: np.ndarray) -> np.ndarray:
    """Each row's sum of its `kept` entries, in index order.

    Row `r` of `kept` keeps entries of row `r % len(values)` of `values`, so
    several masks of the same rows are summed in one call. numpy's summation
    order depends on a row's length. Sorted by how many entries they keep,
    the rows fall into runs of equal length, and the kept values of each run
    are summed as [rows, n] blocks of at most `len(values)` rows, so no more
    than one copy of `values` is gathered at a time: every row gets the bits
    its own 1-D `np.sum` would. A row that keeps nothing sums to 0.
    """
    used = np.count_nonzero(kept, axis=-1)
    order = np.argsort(used, kind="stable")
    sums = np.empty(len(used))
    row = 0
    for n, run in itertools.groupby(used[order].tolist()):
        end = row + len(list(run))
        for start in range(row, end, len(values)):
            rows = order[start : min(start + len(values), end)]
            block = values[rows % len(values)][kept[rows]].reshape(len(rows), n)
            sums[rows] = block.sum(axis=-1)
        row = end
    return sums


def retained_mass(result: EvictionResult, window: ObservationWindow) -> float:
    """Mean per-head share of the window's attention mass on retained indices.

    A head with no attention mass counts as fully retained. The window may
    reach past the result's context, not fall short of it.
    """
    return float(_row_means(_masses(result.mask[None], window))[0])


def _masses(masks: np.ndarray, window: ObservationWindow) -> np.ndarray:
    """Each head's `retained_mass` share for each [pairs, layers, heads,
    context] retained mask.

    The window's row totals are summed once, and every pair's kept mass is
    gathered in one `_head_sums` call, one run of equal-length rows at a
    time, so no float copy of the rows carries the pair axis.
    """
    pairs, layers, heads, context = masks.shape
    if (layers, heads) != window.shape or window.context_length < context:
        raise DimensionMismatchError(
            f"result {masks.shape[1:]} does not fit window {window.aggregated.shape}"
        )
    rows = window.aggregated.reshape(layers * heads, window.context_length)
    totals = rows.sum(axis=-1)
    mass = _head_sums(rows[:, :context], masks.reshape(pairs * layers * heads, context))
    mass = mass.reshape(pairs, layers * heads)
    shares = np.divide(mass, totals, out=np.ones_like(mass), where=totals > 0.0)
    return shares.reshape(pairs, layers, heads)


def coverage_entropy(result: EvictionResult, bins: int = DEFAULT_ENTROPY_BINS) -> float:
    """Mean per-head Shannon entropy (nats) of retained indices over equal bins.

    Each bin's counts are one scan of that bin's columns of the mask. A head
    scores minus the sum of its `p·log p` terms over its occupied bins, in bin
    order, as its own 1-D `np.sum` would; a head that keeps nothing scores 0.
    """
    return float(_row_means(_entropies(result.mask[None], bins))[0])


def _entropies(masks: np.ndarray, bins: int) -> np.ndarray:
    """Each head's `coverage_entropy` for each [pairs, layers, heads, context]
    retained mask, every pair's bin counts taken in the same scan."""
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
    return -_head_sums(terms, occupied).reshape(pairs, layers, heads)


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
    window = build_observation_window(trace.prefix(obs_steps), obs_steps)
    future = aggregate_future_attention(trace, obs_steps - 1, trace.num_steps - obs_steps, context)
    return score_rows(window, future, policies, plans, geom, recent)


def validated_split(
    trace: AttentionTrace, observation_width: int
) -> tuple[ObservationWindow, ObservationWindow] | None:
    """`validate_trace` of every step, in the pass that sums the observation
    window and the held-out future of `eviction_boundary`.

    Returns the window and the future, as `run_comparison` builds them; the
    future is cut at the window's context. Every selector reads only the
    window, so nothing else of the observed steps is kept. A trace too short
    to split is validated all the same, and None comes back: the caller's
    own `eviction_boundary` raises its `HorizonError` after the inputs read
    before it, so a bad step is reported first.
    """
    if trace.num_steps < 2:
        validate_trace(trace)
        return None
    obs_steps, context = eviction_boundary(trace, observation_width)
    spans = [(0, obs_steps), (obs_steps, trace.num_steps)]
    window, future = validate_trace(trace, spans, context)
    return (
        ObservationWindow.mean_of(window, obs_steps),
        ObservationWindow.mean_of(future, trace.num_steps - obs_steps),
    )


def score_rows(
    window: ObservationWindow,
    future: ObservationWindow,
    policies: list[PolicySpec],
    plans: list[BudgetPlan],
    geom: KvGeometry,
    recent: int,
) -> list[RetentionReport]:
    """Select each (policy, plan) row from `window` and score it against `future`.

    Every selector reads only the window, not the trace's steps.
    Rows are checked in input order first, so an error names
    the first bad row: an audiokv row's plan is checked, and a row on any
    other selector runs through `select` whole. The grid is then ranked,
    selected and scored one block of layers at a time, each block's float64
    window slice about `SCORE_BLOCK` bytes. In a block, the window's scores
    are smoothed and sorted once per distinct SSS config, and the audiokv
    rows ranking them select in one `_retain` over their stacked capacities.
    The block's retained masks form one [rows, layers, heads, context]
    stack, scored for every row at once against the held-out aggregate,
    sorted once per block. Every step of that is local to a head's row, so
    the per-head overlap, entropy and mass of each block are those of the
    whole grid, and each report takes their mean over all heads at the end.
    """
    layers, heads = window.shape
    context = window.context_length
    selected = {}
    groups: dict[SssConfig | None, list[int]] = {}
    for i, (policy, plan) in enumerate(zip(policies, plans)):
        if policy.selector == "audiokv":
            _check_dims(window, plan)
            _check_capacities(plan.capacities, recent)
            groups.setdefault(policy.sss, []).append(i)
        else:
            result = select(policy.name, policy.selector, window, plan, policy.sss, recent, 1)
            selected[i] = result.mask
    capacities = {
        sss: np.stack([plans[i].capacities for i in rows]) for sss, rows in groups.items()
    }
    kept = np.zeros(len(plans), dtype=np.intp)
    overlaps, entropies, masses = (np.empty((len(plans), layers, heads)) for _ in range(3))
    step = max(1, SCORE_BLOCK // (heads * context * window.aggregated.itemsize))
    for lo in range(0, layers, step):
        block = slice(lo, lo + step)
        part = ObservationWindow(window.width, window.aggregated[block])
        masks = np.empty((len(plans), *part.shape, context), dtype=bool)
        for i, mask in selected.items():
            masks[i] = mask[block]
        for sss, rows in groups.items():
            scores, ranked = rank_scores(part, sss, recent)
            masks[rows] = _retain(scores, capacities[sss][:, block], recent, ranked)
            del scores, ranked  # freed before the next ranking and the scoring
        ahead = ObservationWindow(future.width, future.aggregated[block])
        kept += np.count_nonzero(masks.reshape(len(masks), -1), axis=-1)
        overlaps[:, block] = _overlaps(masks, ahead.aggregated, np.sort(ahead.aggregated, axis=-1))
        entropies[:, block] = _entropies(masks, DEFAULT_ENTROPY_BINS)
        masses[:, block] = _masses(masks, ahead)
        del masks  # freed before the next block's stack is made
    overlaps, entropies, masses = (_row_means(v) for v in (overlaps, entropies, masses))
    size = layers * heads * context
    return [
        RetentionReport(
            policy_name=policy.name,
            retention_ratio=float(kept[i] / size),
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
