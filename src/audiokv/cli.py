"""Command-line pipeline: fixtures, head scoring, smoothing, allocation,
single-policy simulation, and the four-way comparison report.

Exit codes: 0 success, 2 usage or input error, 1 unexpected internal error.
Flag values override config-file values, which override the defaults below.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from dataclasses import dataclass, fields, replace
from pathlib import Path

import numpy as np

from .budget import (
    AllocationMode,
    allocate,
    load_plan,
    resolve_base_tokens,
    save_plan,
)
from .errors import AudioKvError
from .eviction import (
    build_observation_window,
    save_result,
    select_adakv,
    select_audiokv,
    select_h2o,
    select_snapkv,
)
from .fixtures import PROFILES, generate_fixture
from .heads import TopKConfig, load_scores, save_scores, score_heads
from .metrics import KvGeometry, PolicySpec, run_comparison, write_reports
from .spectral import SssConfig, smooth_rows
from .trace import (
    align_generated_to_words,
    filter_words,
    load_alignment,
    load_trace,
    write_alignment,
    write_trace,
)


@dataclass(frozen=True)
class RunConfig:
    trace_path: str = ""
    alignment_path: str = ""
    output_path: str = ""
    tau: float = 0.95
    top_k: int = 24
    window: int = 32
    base_fraction: float = 0.5
    cutoff_ratio: float = 0.7
    mix_alpha: float = 0.5
    retention_ratios: tuple[float, ...] = (0.4, 0.6, 0.8)
    seed: int = 0

    def sss(self) -> SssConfig:
        return SssConfig(cutoff_ratio=self.cutoff_ratio, mix_alpha=self.mix_alpha)


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    cfg = RunConfig()
    if getattr(args, "config", None):
        file_values = json.loads(Path(args.config).read_text())
        known = {f.name for f in fields(RunConfig)}
        unknown = set(file_values) - known
        if unknown:
            raise AudioKvError(f"unknown config keys: {sorted(unknown)}")
        if "retention_ratios" in file_values:
            file_values["retention_ratios"] = tuple(file_values["retention_ratios"])
        cfg = replace(cfg, **file_values)
    overrides = {}
    for field in fields(RunConfig):
        value = getattr(args, field.name, None)
        if value is not None:
            overrides[field.name] = value
    return replace(cfg, **overrides)


def _parse_ratios(raw: str) -> tuple[float, ...]:
    ratios = tuple(float(r) for r in raw.split(",") if r.strip())
    if not ratios or not all(0.0 < r <= 1.0 for r in ratios):
        raise argparse.ArgumentTypeError("ratios must be a comma list of values in (0, 1]")
    return ratios


def cmd_gen_fixture(args: argparse.Namespace) -> int:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    fixture = generate_fixture(args.profile, args.seed)
    write_trace(fixture.trace, out / "trace.akvt")
    write_alignment(fixture.words, out / "alignment.json")
    meta = {
        "profile": fixture.profile,
        "seed": fixture.seed,
        "planted_heads": [list(lh) for lh in fixture.planted_heads],
    }
    (out / "meta.json").write_text(json.dumps(meta, indent=1))
    print(f"wrote fixture '{args.profile}' (seed {args.seed}) to {out}")
    return 0


def _score_from_files(cfg: RunConfig):
    trace = load_trace(cfg.trace_path)
    words = filter_words(load_alignment(cfg.alignment_path), cfg.tau)
    mapping = align_generated_to_words(list(trace.steps), words)
    scores = score_heads(trace, words, mapping, TopKConfig(cfg.top_k))
    return trace, scores


def cmd_score_heads(args: argparse.Namespace) -> int:
    cfg = _config_from_args(args)
    _, scores = _score_from_files(cfg)
    save_scores(scores, cfg.output_path)
    for layer in range(scores.shape[0]):
        row = scores.scores[layer]
        top = int(np.argmax(row))
        print(
            f"layer {layer}: mean {row.mean():.4f} max {row.max():.4f} "
            f"(head {top}), {scores.num_samples} aligned steps"
        )
    print(f"wrote head scores to {cfg.output_path}")
    return 0


def cmd_smooth(args: argparse.Namespace) -> int:
    cfg = _config_from_args(args)
    try:
        table = np.loadtxt(args.input, delimiter=",", ndmin=2, dtype=np.float64)
    except ValueError as exc:
        raise AudioKvError(f"cannot parse {args.input}: {exc}") from exc
    if not np.all(np.isfinite(table)):
        raise AudioKvError(f"{args.input}: values must be finite")
    smoothed = smooth_rows(table.T, cfg.sss()).T
    np.savetxt(args.output, smoothed, delimiter=",", fmt="%.17g")
    print(f"smoothed {table.shape[1]} column(s) of {table.shape[0]} values -> {args.output}")
    return 0


def cmd_allocate(args: argparse.Namespace) -> int:
    cfg = _config_from_args(args)
    scores = load_scores(args.scores)
    layers, heads = scores.shape
    n = layers * heads
    if args.budget is not None:
        budget = args.budget
    elif args.ratio is not None and args.context_length is not None:
        budget = n * int(args.ratio * args.context_length)
    else:
        raise AudioKvError("provide --budget, or --ratio with --context-length")
    mode = AllocationMode(args.mode.replace("-", "_"))
    base = resolve_base_tokens(budget, n, cfg.base_fraction) if mode is AllocationMode.COMBINED else 0
    plan = allocate(scores, budget, cfg.window, base, mode)
    save_plan(plan, cfg.output_path)
    print(
        f"{mode.value}: budget {budget} over {n} heads "
        f"(window {cfg.window}, base {base}); capacities "
        f"{int(plan.capacities.min())}..{int(plan.capacities.max())}"
    )
    return 0


def cmd_simulate(args: argparse.Namespace) -> int:
    cfg = _config_from_args(args)
    trace = load_trace(cfg.trace_path)
    obs_steps = min(cfg.window, trace.num_steps)
    obs_trace = trace.prefix(obs_steps)
    window = build_observation_window(obs_trace, obs_steps)
    context = window.context_length
    n = trace.num_layers * trace.num_heads
    capacity = int(args.ratio * context)

    if args.policy in ("audiokv", "audiokv-nosss"):
        if args.plan:
            plan = load_plan(args.plan)
        else:
            scores = load_scores(args.scores)
            budget = capacity * n
            base = resolve_base_tokens(budget, n, cfg.base_fraction)
            plan = allocate(scores, budget, cfg.window, base, AllocationMode.COMBINED)
        sss_cfg = cfg.sss() if args.policy == "audiokv" else None
        result = select_audiokv(window, plan, sss_cfg, recent=cfg.window)
    elif args.policy == "snapkv":
        result = select_snapkv(window, capacity, args.pool_width, recent=cfg.window)
    elif args.policy == "h2o":
        result = select_h2o(obs_trace, capacity, recent=cfg.window)
    elif args.policy == "adakv":
        result = select_adakv(window, capacity * trace.num_heads, recent=cfg.window)
    elif args.policy == "pyramid":
        scores = load_scores(args.scores)
        plan = allocate(scores, capacity * n, cfg.window, 0, AllocationMode.PYRAMID)
        result = select_audiokv(window, plan, None, recent=cfg.window)
    else:
        raise AudioKvError(f"unknown policy {args.policy}")

    result = dataclasses.replace(result, policy_name=args.policy)
    save_result(result, cfg.output_path)
    kept = result.total_retained()
    print(
        f"{args.policy}: retained {kept} of {n * context} entries "
        f"({kept / (n * context):.3f}) -> {cfg.output_path}"
    )
    return 0


def cmd_compare(args: argparse.Namespace) -> int:
    cfg = _config_from_args(args)
    if not cfg.retention_ratios:
        raise AudioKvError("at least one retention ratio is required")
    trace, scores = _score_from_files(cfg)
    obs_steps = min(cfg.window, trace.num_steps - 1)
    if obs_steps < 1:
        raise AudioKvError("trace too short for a comparison split")
    context = trace.steps[obs_steps - 1].context_length
    n = trace.num_layers * trace.num_heads

    policies, plans = [], []
    sss_cfg = cfg.sss()
    for ratio in cfg.retention_ratios:
        budget = n * int(ratio * context)
        base = resolve_base_tokens(budget, n, cfg.base_fraction)
        uniform = allocate(scores, budget, cfg.window, 0, AllocationMode.UNIFORM)
        combined = allocate(scores, budget, cfg.window, base, AllocationMode.COMBINED)
        for name, plan, smoother in (
            ("snapkv", uniform, None),
            ("snapkv+sss", uniform, sss_cfg),
            ("audiokv-nosss", combined, None),
            ("audiokv", combined, sss_cfg),
        ):
            policies.append(PolicySpec(name=name, selector="audiokv", sss=smoother))
            plans.append(plan)

    reports = run_comparison(
        trace,
        policies,
        plans,
        KvGeometry(),
        observation_width=cfg.window,
        recent=cfg.window,
    )
    write_reports(reports, cfg.output_path, args.json)
    print(f"wrote {len(reports)} report rows to {cfg.output_path}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="audiokv",
        description="Trace-driven KV-cache eviction with audio-critical head "
        "scoring and spectral score smoothing.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, trace=False, alignment=False, output=False):
        p.add_argument("--config", help="JSON config file with RunConfig fields")
        p.add_argument("--tau", type=float, default=None)
        p.add_argument("--top-k", dest="top_k", type=int, default=None)
        p.add_argument("--window", type=int, default=None)
        p.add_argument("--base-fraction", dest="base_fraction", type=float, default=None)
        p.add_argument("--cutoff-ratio", dest="cutoff_ratio", type=float, default=None)
        p.add_argument("--mix-alpha", dest="mix_alpha", type=float, default=None)
        p.add_argument("--seed", type=int, default=None)
        if trace:
            p.add_argument("--trace", dest="trace_path", required=True)
        if alignment:
            p.add_argument("--alignment", dest="alignment_path", required=True)
        if output:
            p.add_argument("--out", dest="output_path", required=True)

    p = sub.add_parser("gen-fixture", help="write a deterministic synthetic trace")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--profile", choices=PROFILES, required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_gen_fixture)

    p = sub.add_parser("score-heads", help="score audio-critical heads from a trace")
    add_common(p, trace=True, alignment=True, output=True)
    p.set_defaults(func=cmd_score_heads)

    p = sub.add_parser("smooth", help="smooth CSV signals (one per column)")
    p.add_argument("--input", required=True)
    p.add_argument("--output", required=True)
    add_common(p)
    p.set_defaults(func=cmd_smooth)

    p = sub.add_parser("allocate", help="turn head scores into a budget plan")
    p.add_argument("--scores", required=True)
    p.add_argument("--budget", type=int, default=None)
    p.add_argument("--ratio", type=float, default=None)
    p.add_argument("--context-length", dest="context_length", type=int, default=None)
    p.add_argument(
        "--mode",
        default="combined",
        choices=["combined", "proportional-floor", "uniform", "pyramid"],
    )
    add_common(p, output=True)
    p.set_defaults(func=cmd_allocate)

    p = sub.add_parser("simulate", help="run one eviction policy on a trace")
    p.add_argument(
        "--policy",
        required=True,
        choices=["audiokv", "audiokv-nosss", "snapkv", "h2o", "adakv", "pyramid"],
    )
    p.add_argument("--ratio", type=float, default=0.4)
    p.add_argument("--scores", default=None)
    p.add_argument("--plan", default=None)
    p.add_argument("--pool-width", dest="pool_width", type=int, default=7)
    add_common(p, trace=True, output=True)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("compare", help="four-way ablation grid across ratios")
    p.add_argument(
        "--ratios",
        dest="retention_ratios",
        type=_parse_ratios,
        default=None,
        help="comma-separated retention ratios in (0, 1]",
    )
    p.add_argument("--json", default=None, help="optional JSON mirror of the CSV")
    add_common(p, trace=True, alignment=True, output=True)
    p.set_defaults(func=cmd_compare)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (AudioKvError, FileNotFoundError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # pragma: no cover - defensive
        print(f"internal error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
