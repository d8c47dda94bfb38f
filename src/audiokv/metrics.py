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
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .budget import BudgetPlan
from .errors import DimensionMismatchError, HorizonError
from .eviction import (
    EvictionResult,
    ObservationWindow,
    build_observation_window,
    rank_scores,
    select,
    summed_attention,
)
from .spectral import SssConfig
from .trace import AttentionTrace

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
    future = trace.steps[eviction_step + 1 : eviction_step + 1 + horizon]
    if not future:
        raise HorizonError(f"no decoding steps remain after step {eviction_step}")
    acc = summed_attention(future, context_length)
    acc /= len(future)
    return ObservationWindow(width=len(future), aggregated=acc)


def oracle_overlap(result: EvictionResult, trace: AttentionTrace, horizon: int) -> float:
    """Mean per-head overlap with the hindsight-optimal retained set.

    The oracle keeps, per head, the indices with the largest attention mass
    over the `horizon` steps that follow the eviction boundary, using the same
    set size the policy retained.
    """
    boundary = find_eviction_step(trace, result.context_length)
    future = aggregate_future_attention(trace, boundary, horizon, result.context_length)
    return _overlap(result, _descending_ranks(future.aggregated))


def _descending_ranks(values: np.ndarray) -> np.ndarray:
    """Each entry's place in its row sorted by descending value, ties going
    to the lower index: `ranks < k` is `topk_mask(values, k)` for every k."""
    order = np.argsort(-values, axis=-1, kind="stable")
    ranks = np.empty_like(order)
    np.put_along_axis(ranks, order, np.arange(values.shape[-1]), axis=-1)
    return ranks


def _overlap(result: EvictionResult, future_ranks: np.ndarray) -> float:
    """`oracle_overlap` against the held-out aggregate's `_descending_ranks`.

    Ranking the future once serves every set size: a head's oracle set is
    the entries ranked below the number it retained.
    """
    retained = result.mask
    sizes = retained.sum(axis=-1)
    hits = (retained & (future_ranks < sizes[..., None])).sum(axis=-1)
    overlaps = np.where(sizes > 0, hits / np.maximum(sizes, 1), 1.0)
    return float(np.mean(overlaps.ravel()))


def retained_mass(result: EvictionResult, window: ObservationWindow) -> float:
    """Mean per-head share of the window's attention mass on retained indices."""
    if result.shape != window.shape:
        raise DimensionMismatchError(
            f"result heads {result.shape} != window heads {window.shape}"
        )
    context = result.context_length
    shares = []
    for layer_rows, layer_kept in zip(window.aggregated, result.mask):
        for row, kept in zip(layer_rows, layer_kept):
            total = float(row.sum())
            shares.append(float(row[:context][kept].sum()) / total if total > 0.0 else 1.0)
    return float(np.mean(shares))


def coverage_entropy(result: EvictionResult, bins: int = DEFAULT_ENTROPY_BINS) -> float:
    """Mean per-head Shannon entropy (nats) of retained indices over equal bins.

    Each bin's counts are one scan of that bin's columns of the mask.
    """
    if bins < 2:
        raise ValueError("bins must be >= 2")
    layers, heads = result.shape
    context = result.context_length
    # Bin b holds positions [bounds[b], bounds[b+1]): np.histogram's rule,
    # edges[b] <= position < edges[b+1]. With fewer positions than bins, some
    # bins are empty.
    bounds = np.ceil(np.linspace(0, context, bins + 1)).astype(np.intp)
    rows = result.mask.reshape(layers * heads, context)
    counts = np.stack(
        [np.count_nonzero(rows[:, lo:hi], axis=-1) for lo, hi in zip(bounds[:-1], bounds[1:])],
        axis=-1,
    )
    occupied = counts > 0
    used = occupied.sum(axis=-1)
    # numpy's summation order depends on a row's length, so heads are summed
    # in groups that fill the same number of bins, in bin order: each gets the
    # bits its own 1-D -np.sum(p * np.log(p)) would. Empty heads score 0.
    entropies = np.zeros(layers * heads)
    for n in np.unique(used[used > 0]):
        group = used == n
        kept = counts[group][occupied[group]].reshape(-1, n)
        p = kept / kept.sum(axis=-1, keepdims=True)
        entropies[group] = -np.sum(p * np.log(p), axis=-1)
    return float(np.mean(entropies))


def memory_footprint(result: EvictionResult, geom: KvGeometry) -> int:
    """Bytes held by the retained KV entries across all heads."""
    per_entry = geom.kv_pair_factor * geom.head_dim * geom.bytes_per_element
    return result.total_retained() * per_entry


def run_comparison(
    trace: AttentionTrace,
    policies: list[PolicySpec],
    plans: list[BudgetPlan],
    geom: KvGeometry = KvGeometry(),
    *,
    observation_width: int = 32,
    recent: int = 32,
) -> list[RetentionReport]:
    """Replay the trace once per (policy, plan) pair, in the order given.

    The first `observation_width` steps feed the policies; every step after
    them is held out to score the results. Pairs run one after another and
    reports come back in input order. The window's scores are smoothed and
    sorted once per distinct SSS config, and the held-out aggregate is ranked
    once (`_descending_ranks`); every pair selects and scores its oracle
    overlap against those.
    """
    if len(policies) != len(plans):
        raise ValueError("policies and plans must pair up one to one")
    if not policies:
        return []
    obs_steps = min(observation_width, trace.num_steps - 1)
    if obs_steps < 1:
        raise HorizonError("trace too short to split into observation and future")
    obs_trace = trace.prefix(obs_steps)
    window = build_observation_window(obs_trace, obs_steps)
    context = obs_trace.final_context_length
    future = aggregate_future_attention(trace, obs_steps - 1, trace.num_steps - obs_steps, context)
    future_ranks = _descending_ranks(future.aggregated)
    rankings = {
        sss: rank_scores(window, sss, recent)
        for sss in dict.fromkeys(p.sss for p in policies if p.selector == "audiokv")
    }
    reports = []
    for policy, plan in zip(policies, plans):
        # Rows differ only in plan, selector and SSS: every row ranks the
        # unpooled window scores, so snapkv pools over width 1 (a no-op).
        result = select(
            policy.name, policy.selector, window, obs_trace, plan, policy.sss, recent, 1,
            rankings.get(policy.sss),
        )
        reports.append(
            RetentionReport(
                policy_name=policy.name,
                retention_ratio=float(result.mask.mean()),
                oracle_overlap=_overlap(result, future_ranks),
                coverage_entropy=coverage_entropy(result),
                mass_retained=retained_mass(result, future),
                memory_bytes=memory_footprint(result, geom),
            )
        )
    return reports


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
