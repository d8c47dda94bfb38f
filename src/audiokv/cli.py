"""Command-line pipeline: fixtures, head scoring, smoothing, allocation,
single-policy simulation, and the four-way comparison report.

Exit codes: 0 success, 2 usage or input error, 1 unexpected internal error.
Flag values override config-file values, which override the defaults below.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass, fields, replace
from pathlib import Path

import numpy as np

from .budget import (
    AllocationMode,
    BudgetPlan,
    allocate,
    load_plan,
    resolve_base_tokens,
    save_plan,
)
from .errors import AudioKvError, read_json
from .eviction import POLICIES, ObservationWindow, save_result, select
from .fixtures import PROFILES, generate_fixture
from .heads import HeadScoreMatrix, TopKConfig, load_scores, save_scores, score_heads
from .metrics import COMPARE_GRID, KvGeometry, PolicySpec, run_comparison, write_reports
from .spectral import SssConfig, smooth_rows
from .trace import (
    align_generated_to_words,
    filter_words,
    load_alignment,
    load_trace,
    map_trace,
    validate_trace,
    write_alignment,
    write_trace,
)


@dataclass(frozen=True)
class RunConfig:
    tau: float = 0.95
    top_k: int = 24
    window: int = 32
    base_fraction: float = 0.5
    cutoff_ratio: float = 0.7
    mix_alpha: float = 0.5
    retention_ratios: tuple[float, ...] = (0.4, 0.6, 0.8)

    def sss(self) -> SssConfig:
        return SssConfig(cutoff_ratio=self.cutoff_ratio, mix_alpha=self.mix_alpha)


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    values = {}
    if getattr(args, "config", None):
        values = read_json(args.config)
        if not isinstance(values, dict):
            raise AudioKvError(f"{args.config}: a config must be a JSON object of RunConfig fields")
        unknown = set(values) - {f.name for f in fields(RunConfig)}
        if unknown:
            raise AudioKvError(f"unknown config keys: {sorted(unknown)}")
    for field in fields(RunConfig):
        value = getattr(args, field.name, None)
        if value is not None:
            values[field.name] = value
    return _check_config(replace(RunConfig(), **values))


# A trace stores its step count and context lengths as u32, so no trace
# needs a larger top-k or window; a larger value would only overflow later.
_MAX_COUNT = 2**32 - 1

# The numeric RunConfig fields: integer or not, and the range their consumers
# (`filter_words`, `TopKConfig`, `build_observation_window`,
# `resolve_base_tokens`, `SssConfig`) accept.
_NUMBERS = {
    "tau": (False, "in [0, 1]", lambda v: 0.0 <= v <= 1.0),
    "top_k": (True, f"in [1, {_MAX_COUNT}]", lambda v: 1 <= v <= _MAX_COUNT),
    "window": (True, f"in [1, {_MAX_COUNT}]", lambda v: 1 <= v <= _MAX_COUNT),
    "base_fraction": (False, "in [0, 1]", lambda v: 0.0 <= v <= 1.0),
    "cutoff_ratio": (False, "in (0, 1]", lambda v: 0.0 < v <= 1.0),
    "mix_alpha": (False, "in [0, 1]", lambda v: 0.0 <= v <= 1.0),
}


def _is_number(value: object, integer: bool = False) -> bool:
    kinds = int if integer else (int, float)
    return isinstance(value, kinds) and not isinstance(value, bool)


def _check_config(cfg: RunConfig) -> RunConfig:
    """`cfg` if every field has the type and range its consumer needs.

    Flag and `--config` values both come through here, so either way a bad
    value is an AudioKvError (exit 2) before any file is read or written.
    """
    for name, (integer, rule, holds) in _NUMBERS.items():
        value = getattr(cfg, name)
        if not _is_number(value, integer) or not holds(value):
            kind = "an integer" if integer else "a number"
            raise AudioKvError(f"{name} must be {kind} {rule}, got {value!r}")
    ratios = cfg.retention_ratios
    if not isinstance(ratios, (list, tuple)) or not ratios or not all(map(_is_number, ratios)):
        raise AudioKvError(f"retention_ratios must be a non-empty list of numbers, got {ratios!r}")
    try:
        return replace(cfg, retention_ratios=tuple(map(_ratio, ratios)))
    except (argparse.ArgumentTypeError, OverflowError) as exc:
        raise AudioKvError(f"retention_ratios: {exc}") from exc


def _ratio(raw: str) -> float:
    """Retention ratio flag value: a fraction of the cache in (0, 1]."""
    ratio = float(raw)
    if not 0.0 < ratio <= 1.0:
        raise argparse.ArgumentTypeError(f"ratio must be in (0, 1], got {raw}")
    return ratio


def _context_length(raw: str) -> int:
    """`allocate --context-length`: a token count >= 1."""
    value = int(raw)
    if value < 1:
        raise argparse.ArgumentTypeError(f"context length must be an integer >= 1, got {raw}")
    return value


def _pool_width(raw: str) -> int:
    """`simulate --pool-width`: an odd integer >= 1, as `select_snapkv` needs."""
    width = int(raw)
    if width < 1 or width % 2 == 0:
        raise argparse.ArgumentTypeError(f"pool width must be an odd integer >= 1, got {raw}")
    return width


def _parse_ratios(raw: str) -> tuple[float, ...]:
    ratios = tuple(_ratio(r) for r in raw.split(",") if r.strip())
    if not ratios:
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


def _score_from_files(args: argparse.Namespace, cfg: RunConfig):
    trace = load_trace(args.trace)
    words = filter_words(load_alignment(args.alignment), cfg.tau)
    mapping = align_generated_to_words(list(trace.steps), words)
    scores = score_heads(trace, words, mapping, TopKConfig(cfg.top_k))
    return trace, scores


def cmd_score_heads(args: argparse.Namespace) -> int:
    cfg = _config_from_args(args)
    _, scores = _score_from_files(args, cfg)
    save_scores(scores, args.out)
    for layer in range(scores.shape[0]):
        row = scores.scores[layer]
        top = int(np.argmax(row))
        print(
            f"layer {layer}: mean {row.mean():.4f} max {row.max():.4f} "
            f"(head {top}), {scores.num_samples} aligned steps"
        )
    print(f"wrote head scores to {args.out}")
    return 0


def cmd_smooth(args: argparse.Namespace) -> int:
    cfg = _config_from_args(args)
    try:
        table = np.loadtxt(args.input, delimiter=",", ndmin=2, dtype=np.float64)
    except ValueError as exc:
        raise AudioKvError(f"cannot parse {args.input}: {exc}") from exc
    if table.size == 0:
        raise AudioKvError(f"{args.input}: no values to smooth")
    if not np.all(np.isfinite(table)):
        raise AudioKvError(f"{args.input}: values must be finite")
    smoothed = smooth_rows(table.T, cfg.sss()).T
    np.savetxt(args.output, smoothed, delimiter=",", fmt="%.17g")
    print(f"smoothed {table.shape[1]} column(s) of {table.shape[0]} values -> {args.output}")
    return 0


def _plan(scores: HeadScoreMatrix, budget: int, mode: AllocationMode, cfg: RunConfig) -> BudgetPlan:
    """Allocate `budget` in `mode`; only `combined` spends a uniform base."""
    combined = mode is AllocationMode.COMBINED
    base = resolve_base_tokens(budget, scores.scores.size, cfg.base_fraction) if combined else 0
    return allocate(scores, budget, cfg.window, base, mode)


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
    mode = AllocationMode(args.mode)
    plan = _plan(scores, budget, mode, cfg)
    save_plan(plan, args.out)
    print(
        f"{mode.value}: budget {budget} over {n} heads "
        f"(window {cfg.window}, base {plan.base}); capacities "
        f"{int(plan.capacities.min())}..{int(plan.capacities.max())}"
    )
    return 0


def cmd_simulate(args: argparse.Namespace) -> int:
    """Select one policy's retained entries from the trace's observation window.

    The window is the first `min(window, steps)` steps. One pass over the
    mapped trace validates every step, those after the window too, and sums
    the window's steps as it goes; an error names the first bad step.
    """
    cfg = _config_from_args(args)
    policy = POLICIES[args.policy]
    trace = map_trace(args.trace)
    obs_steps = min(cfg.window, trace.num_steps)
    (summed,) = validate_trace(trace, [(0, obs_steps)])
    window = ObservationWindow.mean_of(summed, obs_steps)
    obs_trace = trace.prefix(obs_steps)
    context = window.context_length
    n = trace.num_layers * trace.num_heads

    if args.plan:
        plan = load_plan(args.plan)
    elif args.scores or policy.mode is not AllocationMode.COMBINED:
        if args.scores:
            scores = load_scores(args.scores)
        else:  # uniform and pyramid plans read only the number of heads
            scores = HeadScoreMatrix(np.zeros(window.shape), num_samples=0)
        plan = _plan(scores, int(args.ratio * context) * n, policy.mode, cfg)
    else:
        raise AudioKvError(f"policy {args.policy} needs head scores: pass --scores or --plan")
    sss_cfg = cfg.sss() if policy.smooth else None
    result = select(
        args.policy, policy.selector, window, obs_trace, plan, sss_cfg, cfg.window, args.pool_width
    )
    save_result(result, args.out)
    kept = result.total_retained()
    print(
        f"{args.policy}: retained {kept} of {n * context} entries "
        f"({kept / (n * context):.3f}) -> {args.out}"
    )
    return 0


def cmd_compare(args: argparse.Namespace) -> int:
    cfg = _config_from_args(args)
    trace, scores = _score_from_files(args, cfg)
    obs_steps = min(cfg.window, trace.num_steps - 1)
    if obs_steps < 1:
        raise AudioKvError("trace too short for a comparison split")
    context = trace.steps[obs_steps - 1].context_length
    n = trace.num_layers * trace.num_heads

    policies, plans = [], []
    for ratio in cfg.retention_ratios:
        budget = n * int(ratio * context)
        modes = {POLICIES[name].mode for name in COMPARE_GRID}
        plan_of = {mode: _plan(scores, budget, mode, cfg) for mode in modes}
        for name in COMPARE_GRID:
            policy = POLICIES[name]
            policies.append(PolicySpec(name, policy.selector, cfg.sss() if policy.smooth else None))
            plans.append(plan_of[policy.mode])

    reports = run_comparison(
        trace,
        policies,
        plans,
        KvGeometry(),
        observation_width=cfg.window,
        recent=cfg.window,
    )
    write_reports(reports, args.out, args.json)
    print(f"wrote {len(reports)} report rows to {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="audiokv",
        description="Trace-driven KV-cache eviction with audio-critical head "
        "scoring and spectral score smoothing.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_settings(p, *names):
        """`--config` plus a flag for each RunConfig field the command reads."""
        p.add_argument("--config", help="JSON config file with RunConfig fields")
        for name in names:
            kind = int if _NUMBERS[name][0] else float
            p.add_argument("--" + name.replace("_", "-"), dest=name, type=kind, default=None)

    p = sub.add_parser("gen-fixture", help="write a deterministic synthetic trace")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--profile", choices=PROFILES, required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_gen_fixture)

    p = sub.add_parser("score-heads", help="score audio-critical heads from a trace")
    p.add_argument("--trace", required=True)
    p.add_argument("--alignment", required=True)
    p.add_argument("--out", required=True)
    add_settings(p, "tau", "top_k")
    p.set_defaults(func=cmd_score_heads)

    p = sub.add_parser("smooth", help="smooth CSV signals (one per column)")
    p.add_argument("--input", required=True)
    p.add_argument("--output", required=True)
    add_settings(p, "cutoff_ratio", "mix_alpha")
    p.set_defaults(func=cmd_smooth)

    p = sub.add_parser("allocate", help="turn head scores into a budget plan")
    p.add_argument("--scores", required=True)
    p.add_argument("--budget", type=int, default=None)
    p.add_argument("--ratio", type=_ratio, default=None)
    p.add_argument("--context-length", dest="context_length", type=_context_length, default=None)
    p.add_argument("--mode", default="combined", choices=[m.value for m in AllocationMode])
    p.add_argument("--out", required=True)
    add_settings(p, "window", "base_fraction")
    p.set_defaults(func=cmd_allocate)

    p = sub.add_parser("simulate", help="run one eviction policy on a trace")
    p.add_argument(
        "--policy",
        required=True,
        choices=list(POLICIES),
    )
    p.add_argument("--ratio", type=_ratio, default=0.4)
    p.add_argument("--scores", default=None)
    p.add_argument("--plan", default=None)
    p.add_argument("--pool-width", dest="pool_width", type=_pool_width, default=7)
    p.add_argument("--trace", required=True)
    p.add_argument("--out", required=True)
    add_settings(p, "window", "base_fraction", "cutoff_ratio", "mix_alpha")
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
    p.add_argument("--trace", required=True)
    p.add_argument("--alignment", required=True)
    p.add_argument("--out", required=True)
    add_settings(p, *_NUMBERS)
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
    except (AudioKvError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # pragma: no cover - defensive
        print(f"internal error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
