"""Traced re-execution of the `compare` and `simulate` commands, layer by layer.

Each `replay_*` function calls the public functions of `audiokv` with the
same arguments `cli.cmd_compare`, `metrics.run_comparison` and
`cli.cmd_simulate` use, wrapping every call in a span. The traced run checks
that the replayed outputs are byte-identical to the command's own files, so
the per-layer numbers describe the same work as the end-to-end op.
"""

from __future__ import annotations

import dataclasses
import statistics
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from audiokv.budget import AllocationMode, allocate, resolve_base_tokens
from audiokv.cli import RunConfig
from audiokv.eviction import (
    EvictionResult,
    build_observation_window,
    save_result,
    select_adakv,
    select_audiokv,
    select_h2o,
    select_snapkv,
)
from audiokv.heads import TopKConfig, load_scores, save_scores, score_heads
from audiokv.metrics import (
    DEFAULT_ENTROPY_BINS,
    KvGeometry,
    PolicySpec,
    RetentionReport,
    aggregate_future_attention,
    coverage_entropy,
    memory_footprint,
    oracle_overlap,
    reports_to_csv,
    retained_mass,
    run_comparison,
    write_reports,
)
from audiokv.spectral import smooth_rows
from audiokv.trace import align_generated_to_words, filter_words, load_alignment, load_trace

SIMULATE_RATIO = 0.4
SIMULATE_POOL_WIDTH = 7  # the `simulate --pool-width` default


class Tracer:
    """Spans and counts, kept in memory until the run writes them out at its end."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self.counts: list[dict] = []
        self.op: str | int | None = None
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append(
            {"name": name, "start": time.perf_counter(), "end": None, "parent": parent, "op": self.op}
        )
        self._stack.append(index)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[index]["end"] = time.perf_counter()

    def count(self, name: str, value: float) -> None:
        self.counts.append({"name": name, "value": value, "op": self.op})


def _load(tr: Tracer, path: Path):
    with tr.span("trace.load_trace"):
        trace = load_trace(path)
    # load_trace reads the whole trace file plus its token sidecar.
    sidecar = path.with_name(path.name + ".tokens.json")
    tr.count("trace.bytes_read", path.stat().st_size + sidecar.stat().st_size)
    return trace


def replay_score(tr: Tracer, trace, alignment: Path, cfg: RunConfig):
    """`cli._score_from_files` after the trace load."""
    with tr.span("trace.align"):
        words = filter_words(load_alignment(alignment), cfg.tau)
        mapping = align_generated_to_words(list(trace.steps), words)
    with tr.span("heads.score_heads"):
        scores = score_heads(trace, words, mapping, TopKConfig(cfg.top_k))
    tr.count("heads.rows_ranked", len(mapping.aligned_steps()) * trace.num_layers * trace.num_heads)
    return scores


def replay_score_heads(tr: Tracer, trace_path: Path, alignment: Path, out: Path) -> None:
    """`audiokv score-heads`."""
    cfg = RunConfig()
    scores = replay_score(tr, _load(tr, trace_path), alignment, cfg)
    save_scores(scores, out)


def replay_compare(tr: Tracer, trace_path: Path, alignment: Path, ratios, csv_path, json_path):
    """`audiokv compare`; returns what the serial pair replay needs."""
    cfg = RunConfig(retention_ratios=tuple(ratios))
    trace = _load(tr, trace_path)
    scores = replay_score(tr, trace, alignment, cfg)
    obs_steps = min(cfg.window, trace.num_steps - 1)
    context = trace.steps[obs_steps - 1].context_length
    n = trace.num_layers * trace.num_heads
    policies, plans = [], []
    for ratio in cfg.retention_ratios:
        budget = n * int(ratio * context)
        base = resolve_base_tokens(budget, n, cfg.base_fraction)
        with tr.span("budget.allocate"):
            uniform = allocate(scores, budget, cfg.window, 0, AllocationMode.UNIFORM)
        with tr.span("budget.allocate"):
            combined = allocate(scores, budget, cfg.window, base, AllocationMode.COMBINED)
        for name, plan, smoother in (
            ("snapkv", uniform, None),
            ("snapkv+sss", uniform, cfg.sss()),
            ("audiokv-nosss", combined, None),
            ("audiokv", combined, cfg.sss()),
        ):
            policies.append(PolicySpec(name=name, selector="audiokv", sss=smoother))
            plans.append(plan)
    with tr.span("metrics.run_comparison"):
        reports = run_comparison(
            trace, policies, plans, KvGeometry(), observation_width=cfg.window, recent=cfg.window
        )
    with tr.span("metrics.write_reports"):
        write_reports(reports, csv_path, json_path)
    return trace, scores, policies, plans, cfg


def _used(tr: Tracer, mode: str, result: EvictionResult, budget: int) -> None:
    tr.count("eviction.retained_entries", result.total_retained())
    tr.count(f"budget.retained.{mode}", result.total_retained())
    tr.count(f"budget.budget.{mode}", budget)


def replay_pairs_serial(tr: Tracer, trace, policies, plans, cfg: RunConfig) -> str:
    """`metrics.run_comparison` with its pairs run one after another.

    Returns the CSV text of the reports, which must equal the command's.
    """
    geom = KvGeometry()
    with tr.span("metrics.pairs_serial"):
        obs_steps = min(cfg.window, trace.num_steps - 1)
        horizon = trace.num_steps - obs_steps
        obs_trace = trace.prefix(obs_steps)
        with tr.span("eviction.window"):
            window = build_observation_window(obs_trace, obs_steps)
        context = obs_trace.final_context_length
        with tr.span("metrics.future"):
            future = aggregate_future_attention(trace, obs_steps - 1, horizon, context)
        reports = []
        for policy, plan in zip(policies, plans):
            kind = "sss" if policy.sss is not None else "nosss"
            with tr.span(f"eviction.select_audiokv.{kind}"):
                result = select_audiokv(window, plan, policy.sss, cfg.window)
            result = dataclasses.replace(result, policy_name=policy.name)
            _used(tr, plan.mode, result, plan.global_budget)
            layers, heads = result.shape
            with tr.span("metrics.oracle_overlap"):
                overlap = oracle_overlap(result, trace, horizon)
            with tr.span("metrics.coverage_entropy"):
                entropy = coverage_entropy(result, DEFAULT_ENTROPY_BINS)
            with tr.span("metrics.retained_mass"):
                mass = retained_mass(result, future)
            reports.append(
                RetentionReport(
                    policy_name=policy.name,
                    retention_ratio=result.total_retained() / (layers * heads * context),
                    oracle_overlap=overlap,
                    coverage_entropy=entropy,
                    mass_retained=mass,
                    memory_bytes=memory_footprint(result, geom),
                )
            )
    for policy in policies:
        if policy.sss is not None:
            smooth_prefix(tr, window, policy.sss, cfg.window)
    return reports_to_csv(reports)


def smooth_prefix(tr: Tracer, window, sss_cfg, recent: int) -> None:
    """`smooth_rows` over the evictable prefixes `select_audiokv` smooths."""
    boundary = max(window.context_length - recent, 0)
    if boundary == 0:
        return
    rows = window.aggregated[:, :, :boundary].reshape(-1, boundary)
    with tr.span("spectral.smooth_rows"):
        smoothed = smooth_rows(rows, sss_cfg)
    if not np.all(np.isfinite(smoothed)):
        raise ValueError("smooth_rows produced non-finite values")
    tr.count("spectral.rows_smoothed", rows.shape[0])


def replay_simulate(tr: Tracer, trace_path: Path, policy: str, scores_path: Path, out: Path):
    """`audiokv simulate --ratio 0.4 --scores ...`; returns the window for smoothing."""
    cfg = RunConfig()
    trace = _load(tr, trace_path)
    obs_steps = min(cfg.window, trace.num_steps)
    obs_trace = trace.prefix(obs_steps)
    with tr.span("eviction.window"):
        window = build_observation_window(obs_trace, obs_steps)
    context = window.context_length
    n = trace.num_layers * trace.num_heads
    capacity = int(SIMULATE_RATIO * context)
    budget = capacity * n
    if policy in ("audiokv", "audiokv-nosss", "pyramid"):
        with tr.span("heads.load_scores"):
            scores = load_scores(scores_path)
        if policy == "pyramid":
            mode, base, sss_cfg, kind = AllocationMode.PYRAMID, 0, None, "nosss"
        else:
            mode = AllocationMode.COMBINED
            base = resolve_base_tokens(budget, n, cfg.base_fraction)
            sss_cfg = cfg.sss() if policy == "audiokv" else None
            kind = "sss" if sss_cfg is not None else "nosss"
        with tr.span("budget.allocate"):
            plan = allocate(scores, budget, cfg.window, base, mode)
        with tr.span(f"eviction.select_audiokv.{kind}"):
            result = select_audiokv(window, plan, sss_cfg, recent=cfg.window)
        _used(tr, mode.value, result, budget)
    # snapkv and h2o keep one capacity per head, so they count as uniform plans.
    elif policy == "snapkv":
        with tr.span("eviction.select_snapkv"):
            result = select_snapkv(window, capacity, SIMULATE_POOL_WIDTH, recent=cfg.window)
        _used(tr, "uniform", result, budget)
    elif policy == "h2o":
        with tr.span("eviction.select_h2o"):
            result = select_h2o(obs_trace, capacity, recent=cfg.window)
        _used(tr, "uniform", result, budget)
    elif policy == "adakv":
        with tr.span("eviction.select_adakv"):
            result = select_adakv(window, capacity * trace.num_heads, recent=cfg.window)
        tr.count("eviction.retained_entries", result.total_retained())
    else:
        raise ValueError(f"unknown policy {policy}")
    result = dataclasses.replace(result, policy_name=policy)
    with tr.span("eviction.save_result"):
        save_result(result, out)
    return window


# Per-layer metrics: name -> (unit, better, span or count it reads).
# The end-to-end metric and workload each should move are in README.md.
LAYER_METRICS = {
    "trace.load_trace_s": ("s", "lower", "trace.load_trace"),
    "trace.bytes_read": ("bytes", "lower", "trace.bytes_read"),
    "trace.align_s": ("s", "lower", "trace.align"),
    "heads.score_heads_s": ("s", "lower", "heads.score_heads"),
    "heads.rows_ranked": ("count", "lower", "heads.rows_ranked"),
    "spectral.smooth_rows_s": ("s", "lower", "spectral.smooth_rows"),
    "spectral.rows_smoothed": ("count", "lower", "spectral.rows_smoothed"),
    "budget.allocate_s": ("s", "lower", "budget.allocate"),
    "budget.used_ratio.combined": ("ratio", "higher", "combined"),
    "budget.used_ratio.uniform": ("ratio", "higher", "uniform"),
    "budget.used_ratio.pyramid": ("ratio", "higher", "pyramid"),
    "eviction.window_s": ("s", "lower", "eviction.window"),
    "eviction.select_audiokv.sss_s": ("s", "lower", "eviction.select_audiokv.sss"),
    "eviction.select_audiokv.nosss_s": ("s", "lower", "eviction.select_audiokv.nosss"),
    "eviction.select_snapkv_s": ("s", "lower", "eviction.select_snapkv"),
    "eviction.select_h2o_s": ("s", "lower", "eviction.select_h2o"),
    "eviction.select_adakv_s": ("s", "lower", "eviction.select_adakv"),
    "eviction.retained_entries": ("count", "higher", "eviction.retained_entries"),
    "eviction.save_result_s": ("s", "lower", "eviction.save_result"),
    "metrics.future_s": ("s", "lower", "metrics.future"),
    "metrics.oracle_overlap_s": ("s", "lower", "metrics.oracle_overlap"),
    "metrics.retained_mass_s": ("s", "lower", "metrics.retained_mass"),
    "metrics.coverage_entropy_s": ("s", "lower", "metrics.coverage_entropy"),
    "metrics.write_reports_s": ("s", "lower", "metrics.write_reports"),
    "metrics.run_comparison_s": ("s", "lower", "metrics.run_comparison"),
    "metrics.pairs_serial_s": ("s", "lower", "metrics.pairs_serial"),
    "fixtures.generate_s": ("s", "lower", "fixtures.generate"),
    "cli.self_s": ("s", "lower", None),
    "tracing_overhead_ratio": ("ratio", "lower", None),
}


def _per_op(tr: Tracer, key: str) -> dict:
    """op id -> summed duration of spans named `key`, or summed count `key`."""
    totals: dict = {}
    for s in tr.spans:
        if s["name"] == key:
            totals[s["op"]] = totals.get(s["op"], 0.0) + s["end"] - s["start"]
    for c in tr.counts:
        if c["name"] == key:
            totals[c["op"]] = totals.get(c["op"], 0) + c["value"]
    return totals


def _pick(totals: dict, ops: list) -> tuple[list, str] | None:
    """Values from the measured ops, else from set-up, else from the probe."""
    values = [totals[op] for op in ops if op in totals]
    if values:
        return values, "op"
    for source in ("setup", "probe"):
        if source in totals:
            return [totals[source]], source
    return None


def layer_metrics(tr: Tracer, ops: list) -> dict[str, tuple[float, str]]:
    """Median per-op value of every layer metric, with where it came from."""
    out: dict[str, tuple[float, str]] = {}
    for name, (_, _, key) in LAYER_METRICS.items():
        if key is None:
            continue
        if name.startswith("budget.used_ratio."):
            kept, budget = _per_op(tr, f"budget.retained.{key}"), _per_op(tr, f"budget.budget.{key}")
            totals = {op: kept[op] / budget[op] for op in kept}
        else:
            totals = _per_op(tr, key)
        picked = _pick(totals, ops)
        if picked is None:
            raise RuntimeError(f"no span or count measured {name}")
        values, source = picked
        out[name] = (float(statistics.median(values)), source)

    children: dict = {}
    for s in tr.spans:
        parent = s["parent"]
        if parent is not None and tr.spans[parent]["name"] == "replay":
            children[s["op"]] = children.get(s["op"], 0.0) + s["end"] - s["start"]
    cli, replayed = _per_op(tr, "cli.main"), _per_op(tr, "replay")
    out["cli.self_s"] = (float(statistics.median(cli[op] - children[op] for op in ops)), "op")
    ratio = statistics.median(replayed[op] for op in ops) / statistics.median(cli[op] for op in ops)
    out["tracing_overhead_ratio"] = (float(ratio), "op")
    return out
