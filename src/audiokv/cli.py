"""Command-line pipeline: fixtures, head scoring, smoothing, allocation,
single-policy simulation, and the four-way comparison report.

Exit codes: 0 success, 2 usage or input error, 1 unexpected internal error.
Flag values override config-file values, which override the defaults below.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from dataclasses import dataclass, fields, replace
from pathlib import Path

import numpy as np

from .budget import AllocationMode, budget_at_ratio, load_plan, make_plan, save_plan
from .errors import AudioKvError, read_json
from .eviction import (
    DEFAULT_POOL_WIDTH,
    DEFAULT_RECENT,
    POLICIES,
    ObservationWindow,
    save_result,
    select,
)
from .fixtures import PROFILES, generate_fixture
from .heads import DEFAULT_TOP_K, HeadScoreMatrix, TopKConfig, load_scores, save_scores, score_heads
from .metrics import KvGeometry, compare_grid, score_rows, validated_split, write_reports
from .spectral import SssConfig, smooth_rows
from .trace import (
    AttentionTrace,
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
    top_k: int = DEFAULT_TOP_K
    window: int = DEFAULT_RECENT
    base_fraction: float = 0.5
    cutoff_ratio: float = SssConfig.cutoff_ratio
    mix_alpha: float = SssConfig.mix_alpha
    retention_ratios: tuple[float, ...] = (0.4, 0.6, 0.8)

    def sss(self) -> SssConfig:
        return SssConfig(cutoff_ratio=self.cutoff_ratio, mix_alpha=self.mix_alpha)


# `simulate --ratio`'s default, read only when no `--plan` fixes the budget.
_SIMULATE_RATIO = 0.4


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    """`--config`'s settings, checked as the file is read, under the setting flags."""
    values = {}
    if getattr(args, "config", None):
        values = read_json(args.config)
        if not isinstance(values, dict):
            raise AudioKvError(f"{args.config}: a config must be a JSON object of RunConfig fields")
        unknown = set(values) - {f.name for f in fields(RunConfig)}
        if unknown:
            raise AudioKvError(f"unknown config keys: {sorted(unknown)}")
        _check(values)
    for field in fields(RunConfig):
        value = getattr(args, field.name, None)
        if value is not None:
            values[field.name] = value
    cfg = replace(RunConfig(), **values)
    return replace(cfg, retention_ratios=tuple(cfg.retention_ratios))


# A trace stores its step count and context lengths as u32, so no count a
# command reads needs to be larger; a larger one would only overflow later.
_MAX_COUNT = 2**32 - 1
_COUNT = f"in [1, {_MAX_COUNT}]"

# Every number a command reads, by flag dest or config field: its name in
# messages, whether it is an integer, the rule stated and the rule's test.
# Each is the range its consumer accepts; a `retention_ratios` entry is a
# `ratio`. `cmd_allocate` also bounds the budget by what the heads can hold.
_NUMBERS = {
    "tau": ("tau", False, "a number in [0, 1]", lambda v: 0 <= v <= 1),
    "top_k": ("top_k", True, f"an integer {_COUNT}", lambda v: 1 <= v <= _MAX_COUNT),
    "window": ("window", True, f"an integer {_COUNT}", lambda v: 1 <= v <= _MAX_COUNT),
    "base_fraction": ("base_fraction", False, "a number in [0, 1]", lambda v: 0 <= v <= 1),
    "cutoff_ratio": ("cutoff_ratio", False, "a number in (0, 1]", lambda v: 0 < v <= 1),
    "mix_alpha": ("mix_alpha", False, "a number in [0, 1]", lambda v: 0 <= v <= 1),
    "ratio": ("ratio", False, "in (0, 1]", lambda v: 0 < v <= 1),
    "context_length": (
        "context length", True, f"an integer >= 1 and <= {_MAX_COUNT}",
        lambda v: 1 <= v <= _MAX_COUNT,
    ),
    "pool_width": (
        "pool width", True, f"an odd integer >= 1 and <= {_MAX_COUNT}",
        lambda v: 1 <= v <= _MAX_COUNT and v % 2 == 1,
    ),
    "budget": ("budget", True, "an integer >= 1", lambda v: v >= 1),
    "seed": ("seed", True, "an integer >= 0", lambda v: v >= 0),
}


def _check(values: dict) -> None:
    """Raise an AudioKvError for the first flag `_numeral` or config JSON value
    that `_NUMBERS` rules out; a bool is not a number, nor a float an integer."""
    for name, value in values.items():
        if name == "retention_ratios":
            if not isinstance(value, (list, tuple)) or not value:
                raise AudioKvError(f"retention_ratios must be a non-empty list, got {value!r}")
            name, entries = "ratio", value
        elif name in _NUMBERS:
            entries = [value]
        else:
            continue
        label, integer, rule, holds = _NUMBERS[name]
        kinds = int if integer else (int, float)
        for entry in entries:
            if isinstance(entry, bool) or not isinstance(entry, kinds) or not holds(entry):
                raise AudioKvError(f"{label} must be {rule}, got {entry!r}")


def _numeral(text: str) -> int | float | str:
    """A flag's text as the int or float it spells, or the text itself, which `_check` rejects."""
    for kind in (int, float):
        try:
            return kind(text)
        except ValueError:
            pass
    return text


def _numerals(text: str) -> list:
    """`compare --ratios`: the `_numeral` of each comma-separated entry."""
    return [_numeral(entry) for entry in text.split(",") if entry.strip()]


def _refuse_unread(subject: str, reads: dict[str, bool], args: argparse.Namespace) -> None:
    """Raise an AudioKvError naming each setting flag given that `reads` says
    `subject` does not read; a config may still set it."""
    unread = [name for name, read in reads.items() if not read and getattr(args, name) is not None]
    if unread:
        flags = ", ".join("--" + name.replace("_", "-") for name in unread)
        raise AudioKvError(f"{subject} does not read {flags}: drop it")


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


def _score_from_files(args: argparse.Namespace, cfg: RunConfig, trace: AttentionTrace):
    """`score_heads` of the validated `trace` against `--alignment`."""
    words = filter_words(load_alignment(args.alignment), cfg.tau)
    mapping = align_generated_to_words(list(trace.steps), words)
    return score_heads(trace, words, mapping, TopKConfig(cfg.top_k))


def cmd_score_heads(args: argparse.Namespace) -> int:
    cfg = _config_from_args(args)
    scores = _score_from_files(args, cfg, load_trace(args.trace))
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


def cmd_allocate(args: argparse.Namespace) -> int:
    """Write one plan. Only `combined` spends a uniform base, so an explicit
    `--base-fraction` in another mode is an error; a config may still set it."""
    mode = AllocationMode(args.mode)
    _refuse_unread(f"mode {mode.value}", {"base_fraction": mode is AllocationMode.COMBINED}, args)
    cfg = _config_from_args(args)
    scores = load_scores(args.scores)
    layers, heads = scores.shape
    n = layers * heads
    sized = (args.ratio, args.context_length)
    if args.budget is not None and sized == (None, None):
        budget = args.budget
    elif args.budget is None and None not in sized:
        budget = budget_at_ratio(args.ratio, args.context_length, n)
    else:
        raise AudioKvError("provide --budget, or --ratio with --context-length, not both")
    if budget > n * _MAX_COUNT:
        raise AudioKvError(f"budget must be at most {n * _MAX_COUNT} for {n} heads, got {budget}")
    plan = make_plan(scores, budget, mode, cfg.window, cfg.base_fraction)
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
    the window's steps as it goes; an error names the first bad step. Every
    policy selects from that window alone, so the trace is read once. A
    `--plan` fixes the budget and the window, so it takes no `--scores` or
    `--ratio`; its window must be the run's, and its budget at most the
    entries the trace's cache holds at the window's context.

    A setting flag the policy's `POLICIES` row does not read is an error:
    `--pool-width` off the snapkv selector, `--base-fraction` but for a
    combined plan made here, `--cutoff-ratio` and `--mix-alpha` on a row
    that does not smooth. A config may still set them. These checks run
    before any file is read.
    """
    policy = POLICIES[args.policy]
    if args.plan and (args.scores or args.ratio is not None):
        raise AudioKvError(f"--plan {args.plan} fixes the budget: drop --scores and --ratio")
    if not (args.plan or args.scores) and policy.mode is AllocationMode.COMBINED:
        raise AudioKvError(f"policy {args.policy} needs head scores: pass --scores or --plan")
    reads = {
        "pool_width": policy.selector == "snapkv",
        "base_fraction": policy.mode is AllocationMode.COMBINED and not args.plan,
        "cutoff_ratio": policy.smooth,
        "mix_alpha": policy.smooth,
    }
    _refuse_unread(f"policy {args.policy}{' with --plan' if args.plan else ''}", reads, args)
    cfg = _config_from_args(args)
    trace = map_trace(args.trace)
    obs_steps = min(cfg.window, trace.num_steps)
    (summed,) = validate_trace(trace, [(0, obs_steps)])
    window = ObservationWindow.mean_of(summed, obs_steps)
    context = window.context_length
    n = trace.num_layers * trace.num_heads

    if args.plan:
        plan = load_plan(args.plan)
        if plan.window != cfg.window:
            raise AudioKvError(f"{args.plan}: plan window {plan.window} != run window {cfg.window}")
        # A plan shaped for other heads fails `select`'s dimension check instead.
        if plan.shape == window.shape and plan.global_budget > n * context:
            raise AudioKvError(
                f"{args.plan}: plan budget {plan.global_budget} > the {n * context} entries "
                f"the trace's cache holds ({n} heads x context {context})"
            )
    else:
        if args.scores:
            scores = load_scores(args.scores)
        else:  # uniform and pyramid plans read only the number of heads
            scores = HeadScoreMatrix(np.zeros(window.shape), num_samples=0)
        budget = budget_at_ratio(_SIMULATE_RATIO if args.ratio is None else args.ratio, context, n)
        plan = make_plan(scores, budget, policy.mode, cfg.window, cfg.base_fraction)
    sss_cfg = cfg.sss() if policy.smooth else None
    pool_width = DEFAULT_POOL_WIDTH if args.pool_width is None else args.pool_width
    result = select(args.policy, policy.selector, window, plan, sss_cfg, cfg.window, pool_width)
    save_result(result, args.out)
    kept = result.total_retained()
    print(
        f"{args.policy}: retained {kept} of {n * context} entries "
        f"({kept / (n * context):.3f}) -> {args.out}"
    )
    return 0


def cmd_compare(args: argparse.Namespace) -> int:
    """Report the `compare_grid` rows at the eviction boundary of `window`.

    One pass over the mapped trace validates every step and sums the
    observation window and the held-out future (`validated_split`); head
    scoring then reads only the word-aligned steps. An error names the first
    bad step, and no report is written. A trace too short to split fails in
    `compare_grid`, after the alignment and head scoring, as the last input
    error.
    """
    cfg = _config_from_args(args)
    trace = map_trace(args.trace)
    split = validated_split(trace, cfg.window)
    scores = _score_from_files(args, cfg, trace)
    policies, plans = compare_grid(
        trace, scores, cfg.retention_ratios, cfg.window, cfg.base_fraction, cfg.sss()
    )
    reports = score_rows(*split, policies, plans, KvGeometry(), cfg.window)
    write_reports(reports, args.out, args.json)
    print(f"wrote {len(reports)} report rows to {args.out}")
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The `audiokv` parser, built once per process: parsing leaves it as it
    was, and each of its flags costs a terminal-size query to build."""
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
            p.add_argument("--" + name.replace("_", "-"), dest=name, type=_numeral, default=None)

    p = sub.add_parser("gen-fixture", help="write a deterministic synthetic trace")
    p.add_argument("--seed", type=_numeral, default=0)
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
    p.add_argument("--budget", type=_numeral, default=None)
    p.add_argument("--ratio", type=_numeral, default=None)
    p.add_argument("--context-length", dest="context_length", type=_numeral, default=None)
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
    p.add_argument("--ratio", type=_numeral, default=None)
    p.add_argument("--scores", default=None)
    p.add_argument("--plan", default=None)
    p.add_argument("--pool-width", dest="pool_width", type=_numeral, default=None)
    p.add_argument("--trace", required=True)
    p.add_argument("--out", required=True)
    add_settings(p, "window", "base_fraction", "cutoff_ratio", "mix_alpha")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("compare", help="four-way ablation grid across ratios")
    p.add_argument(
        "--ratios",
        dest="retention_ratios",
        type=_numerals,
        default=None,
        help="comma-separated retention ratios in (0, 1]",
    )
    p.add_argument("--json", default=None, help="optional JSON mirror of the CSV")
    p.add_argument("--trace", required=True)
    p.add_argument("--alignment", required=True)
    p.add_argument("--out", required=True)
    add_settings(p, "tau", "top_k", "window", "base_fraction", "cutoff_ratio", "mix_alpha")
    p.set_defaults(func=cmd_compare)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        _check({name: value for name, value in vars(args).items() if value is not None})
        return args.func(args)
    except (AudioKvError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # pragma: no cover - defensive
        print(f"internal error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
