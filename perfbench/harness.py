"""Workloads, ops, output checks and metrics of the replay benchmark.

One process runs one workload as a closed loop with one client: each op is a
call of `audiokv.cli.main([...])` that starts after the previous one ends.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import gc
import hashlib
import io
import json
import math
import os
import platform
import random
import resource
import shutil
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import gen
import replay
from audiokv import cli
from audiokv.eviction import load_result
from audiokv.fixtures import generate_fixture
from audiokv.heads import save_scores
from audiokv.trace import write_alignment, write_trace

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent

# Why each workload exists is recorded in BENCHMARK.json.
# `tail` is the percentile reported as op_tail_s: the highest of p75, p90,
# p95 and p99 that keeps at least 10 ops beyond it in a 40 s run, even when
# the machine runs a third slower than usual (about 350, 60 and 90 ops).
WORKLOADS = {
    "fixture-compare": {"kind": "compare", "tail": 95},
    "prod-compare": {"kind": "compare", "tail": 75},
    "prod-simulate": {"kind": "simulate", "tail": 75},
}
# Production-context traces keep the production context (750 audio tokens,
# ~1.5k tokens at the eviction boundary, 64 steps) but 8x8 heads instead of
# 32x32, so that one op takes well under a second and a run holds enough ops
# for a tail percentile.
PROD_LAYERS, PROD_HEADS = 8, 8
FIXTURE_INPUTS = 4
SETUP_REPEATS = 3
RATIOS = (0.4, 0.6, 0.8)
GRID = ("snapkv", "snapkv+sss", "audiokv-nosss", "audiokv")
POLICIES = ("audiokv", "audiokv-nosss", "snapkv", "h2o", "adakv", "pyramid")
BYTES_PER_ENTRY = 256  # KvGeometry defaults: key + value, 64 dims, 2 bytes
THREADS_ENV = "AUDIOKV_THREADS"


class OpFailed(Exception):
    """An op exited nonzero or produced output that failed a check."""


@dataclass(frozen=True)
class Input:
    name: str
    dir: Path
    cells: int  # layers * heads * context at the eviction boundary

    @property
    def trace(self) -> Path:
        return self.dir / "trace.akvt"

    @property
    def alignment(self) -> Path:
        return self.dir / "alignment.json"

    @property
    def scores(self) -> Path:
        return self.dir / "scores.json"

    def out(self, name: str) -> Path:
        return self.dir / name


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def quiet_main(argv: list[str]) -> None:
    """Run one CLI command in-process; raise OpFailed on a nonzero exit."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    if code != 0:
        raise OpFailed(f"audiokv {argv[0]} exited {code}: {err.getvalue().strip()}")


def op_commands(kind: str, inp: Input) -> list[list[str]]:
    if kind == "compare":
        return [
            [
                "compare", "--trace", str(inp.trace), "--alignment", str(inp.alignment),
                "--ratios", ",".join(map(str, RATIOS)),
                "--out", str(inp.out("report.csv")), "--json", str(inp.out("report.json")),
            ]
        ]
    return [
        [
            "simulate", "--trace", str(inp.trace), "--policy", policy,
            "--ratio", str(replay.SIMULATE_RATIO), "--scores", str(inp.scores),
            "--out", str(inp.out(f"{policy}.json")),
        ]
        for policy in POLICIES
    ]


def run_op(kind: str, inp: Input, tr: replay.Tracer | None = None) -> float:
    """Seconds spent inside the CLI for one op."""
    elapsed = 0.0
    for argv in op_commands(kind, inp):
        with tr.span("cli.main") if tr is not None else contextlib.nullcontext():
            start = time.perf_counter()
            quiet_main(argv)
            elapsed += time.perf_counter() - start
    return elapsed


def check_compare(inp: Input, prefix: str) -> dict[str, str]:
    csv_path, json_path = inp.out(prefix + "report.csv"), inp.out(prefix + "report.json")
    rows = list(csv.reader(io.StringIO(csv_path.read_text())))
    if rows[0] != ["policy", "ratio", "overlap", "mass", "entropy", "bytes"]:
        raise OpFailed(f"unexpected report header {rows[0]}")
    expected = [name for _ in RATIOS for name in GRID]
    if [row[0] for row in rows[1:]] != expected:
        raise OpFailed(f"report rows {[row[0] for row in rows[1:]]} != {expected}")
    for row in rows[1:]:
        ratio, overlap, mass, entropy = (float(v) for v in row[1:5])
        size = int(row[5])
        if not all(math.isfinite(v) for v in (ratio, overlap, mass, entropy)):
            raise OpFailed(f"non-finite value in {row}")
        if not all(0.0 <= v <= 1.0 for v in (ratio, overlap, mass)) or entropy < 0.0:
            raise OpFailed(f"value out of range in {row}")
        if size % BYTES_PER_ENTRY or abs(ratio * inp.cells - size / BYTES_PER_ENTRY) > 1e-3:
            raise OpFailed(f"bytes {size} inconsistent with ratio {ratio} of {inp.cells} entries")
    mirror = json.loads(json_path.read_text())
    if [(r["policy"], r["bytes"]) for r in mirror] != [(row[0], int(row[5])) for row in rows[1:]]:
        raise OpFailed("JSON mirror disagrees with the CSV report")
    return {"report_sha256": sha256(csv_path), "report_json_sha256": sha256(json_path)}


def check_simulate(inp: Input, prefix: str, full: bool) -> dict[str, str]:
    """Digest every result; with `full`, also load and validate each one."""
    digests = {}
    for policy in POLICIES:
        path = inp.out(f"{prefix}{policy}.json")
        if full:
            result = load_result(path)
            layers, heads = result.shape
            budget = int(replay.SIMULATE_RATIO * result.context_length) * layers * heads
            if result.policy_name != policy:
                raise OpFailed(f"{path.name}: policy {result.policy_name!r}")
            if not 0 < result.total_retained() <= budget:
                raise OpFailed(f"{path.name}: retained {result.total_retained()} of budget {budget}")
            for kept in (k for layer in result.retained for k in layer):
                if len(kept) and (kept[0] < 0 or kept[-1] >= result.context_length):
                    raise OpFailed(f"{path.name}: index out of range")
                if (kept[1:] <= kept[:-1]).any():
                    raise OpFailed(f"{path.name}: indices not strictly increasing")
        digests[f"result_sha256.{policy}"] = sha256(path)
    return digests


class Digests:
    """Reference digests per input; an op fails if its digest changes.

    The first outputs seen for an input are fully checked and become the
    reference; later outputs must hash the same.
    """

    def __init__(self) -> None:
        self.ref: dict[str, dict[str, str]] = {}

    def check(self, kind: str, inp: Input, prefix: str = "") -> None:
        if kind == "compare":
            got = check_compare(inp, prefix)
        else:
            got = check_simulate(inp, prefix, full=inp.name not in self.ref)
        ref = self.ref.setdefault(inp.name, got)
        changed = [k for k in got if got[k] != ref.get(k)]
        if changed:
            raise OpFailed(f"{inp.name}: digest changed for {changed}")


def write_input(directory: Path, trace, words, tr: replay.Tracer) -> Input:
    directory.mkdir(parents=True)
    obs_steps = min(cli.RunConfig().window, trace.num_steps - 1)
    inp = Input(
        name=directory.name,
        dir=directory,
        cells=trace.num_layers * trace.num_heads * trace.steps[obs_steps - 1].context_length,
    )
    with tr.span("bench.write"):
        write_trace(trace, inp.trace)
        write_alignment(words, inp.alignment)
    return inp


def setup(
    workload: str, seed: int, work: Path, tr: replay.Tracer, digests: Digests, traced: bool
) -> list[Input]:
    """Generate and write the inputs, run the offline step, warm up once per input.

    A traced set-up also replays `score-heads` layer by layer.
    """
    kind = WORKLOADS[workload]["kind"]
    shutil.rmtree(work, ignore_errors=True)
    inputs = []
    if workload == "fixture-compare":
        for fseed in random.Random(seed).sample(range(1 << 31), FIXTURE_INPUTS):
            with tr.span("fixtures.generate"):
                fixture = generate_fixture("spike-plateau", fseed)
            inputs.append(write_input(work / f"spike-plateau-{fseed}", fixture.trace, fixture.words, tr))
    else:
        with tr.span("bench.generate"):
            trace, words = gen.generate(seed, PROD_LAYERS, PROD_HEADS)
        inputs.append(write_input(work / f"production-{seed}", trace, words, tr))
    for inp in inputs:
        if kind == "simulate":
            # Heads are scored offline, as the paper does.
            quiet_main(["score-heads", "--trace", str(inp.trace), "--alignment", str(inp.alignment),
                        "--out", str(inp.scores)])
            if traced:
                replayed = inp.out("replay-scores.json")
                replay.replay_score_heads(tr, inp.trace, inp.alignment, replayed)
                if replayed.read_bytes() != inp.scores.read_bytes():
                    raise OpFailed("replayed score-heads differs from the command's output")
        run_op(kind, inp)
        digests.check(kind, inp)
    return inputs


def traced_op(kind: str, inp: Input, tr: replay.Tracer, digests: Digests, cli_first: bool) -> None:
    """One op through the CLI and the same work replayed layer by layer.

    The order alternates between ops, because whichever side runs first pays
    for fresh memory pages that the second side then reuses.
    """

    def command() -> None:
        run_op(kind, inp, tr)
        digests.check(kind, inp)

    def replayed() -> None:
        if kind == "compare":
            with tr.span("replay"):
                trace, _, policies, plans, cfg = replay.replay_compare(
                    tr, inp.trace, inp.alignment, RATIOS,
                    inp.out("replay-report.csv"), inp.out("replay-report.json"),
                )
            serial = replay.replay_pairs_serial(tr, trace, policies, plans, cfg)
            digests.check(kind, inp, "replay-")
            if hashlib.sha256(serial.encode()).hexdigest() != digests.ref[inp.name]["report_sha256"]:
                raise OpFailed("serial pair replay differs from the command's report")
        else:
            with tr.span("replay"):
                windows = {
                    p: replay.replay_simulate(tr, inp.trace, p, inp.scores, inp.out(f"replay-{p}.json"))
                    for p in POLICIES
                }
            cfg = cli.RunConfig()
            replay.smooth_prefix(tr, windows["audiokv"], cfg.sss(), cfg.window)
            digests.check(kind, inp, "replay-")

    with tr.span("op"):
        for step in (command, replayed) if cli_first else (replayed, command):
            step()


def probe(workload: str, seed: int, inp: Input, tr: replay.Tracer, digests: Digests) -> None:
    """Run each layer the workload's op never reaches once, on the same input."""
    with tr.span("fixtures.generate"):
        generate_fixture("spike-plateau", seed)
    trace, scores, policies, plans, cfg = replay.replay_compare(
        tr, inp.trace, inp.alignment, RATIOS, inp.out("probe-report.csv"), inp.out("probe-report.json")
    )
    replay.replay_pairs_serial(tr, trace, policies, plans, cfg)
    save_scores(scores, inp.out("probe-scores.json"))
    for policy in POLICIES:
        replay.replay_simulate(
            tr, inp.trace, policy, inp.out("probe-scores.json"), inp.out(f"probe-{policy}.json")
        )
    digests.check(WORKLOADS[workload]["kind"], inp, "probe-")


def git_commit() -> str | None:
    """HEAD's commit when run from a git checkout, else None."""
    git = ROOT / ".git"
    head = git / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    if (git / name).is_file():
        return (git / name).read_text().strip()
    packed = git / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "audiokv").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def manifest(args, inputs: list[Input], threads_env: str | None, digests: Digests) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_commit": git_commit(),
        "source_sha256": source_digest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "cpu_count": os.cpu_count(),
        THREADS_ENV: "unset" if threads_env is None else f"unset (was {threads_env!r})",
        "inputs": [
            {"name": i.name, "trace_sha256": sha256(i.trace), "trace_bytes": i.trace.stat().st_size}
            for i in inputs
        ],
        "digests": digests.ref,
    }


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def closed_loop(seconds: float, inputs: list[Input], op) -> tuple[list, int, int]:
    """Call `op(index, input)` back to back, cycling the inputs, until `seconds` pass.

    Returns the results of the ops that succeeded, the ops attempted and the
    ops failed.
    """
    results, attempted, failed = [], 0, 0
    start = time.perf_counter()
    while time.perf_counter() - start < seconds:
        index = attempted
        attempted += 1
        gc.collect()  # keep the previous op's garbage out of this op's time
        try:
            results.append(op(index, inputs[index % len(inputs)]))
        except Exception as exc:  # every failure counts against the run
            failed += 1
            print(f"op {index} failed: {exc!r}", file=sys.stderr)
    return results, attempted, failed


def run_end_to_end(args, work: Path):
    """Set up several times, then time ops until --seconds is used up."""
    kind = WORKLOADS[args.workload]["kind"]
    digests = Digests()
    setups = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        inputs = setup(args.workload, args.seed, work, replay.Tracer(), digests, traced=False)
        setups.append(time.perf_counter() - start)

    def op(index: int, inp: Input) -> float:
        elapsed = run_op(kind, inp)
        digests.check(kind, inp)
        return elapsed

    times, attempted, failed = closed_loop(args.seconds, inputs, op)
    if len(times) < 2:
        raise RuntimeError(f"{len(times)} of {attempted} ops succeeded; need at least 2")

    pct = WORKLOADS[args.workload]["tail"]
    tail = statistics.quantiles(times, n=100, method="inclusive")[pct - 1]
    beyond = sum(t > tail for t in times)
    metrics = {
        "op_p50_s": metric(statistics.median(times), "s"),
        "op_tail_s": metric(tail, "s"),
        "ops_per_s": metric(len(times) / sum(times), "1/s"),
        "peak_rss_mb": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "setup_s": metric(statistics.median(setups), "s"),
    }
    notes = {
        "op_tail_s": f"p{pct} of {len(times)} ops, {beyond} beyond it",
        "ops_per_s": f"{inputs[0].cells} entries per trace at the eviction boundary",
        "setup_s": f"median of {SETUP_REPEATS} set-ups",
    }
    if beyond < 10:
        print(f"warning: only {beyond} ops beyond p{pct}", file=sys.stderr)
    for name, m in metrics.items():
        print(f"{name:<14} {m['value']:<10.6g} {m['unit']:<4} {notes.get(name, '')}")
    print(f"{'op_fail_ratio':<14} {failed / attempted:<10.6g} 1    {failed} of {attempted} ops failed")
    return inputs, digests, metrics, attempted, failed


def run_traced(args, work: Path):
    """Replay the same ops layer by layer; report per-layer metrics."""
    kind = WORKLOADS[args.workload]["kind"]
    digests = Digests()
    tr = replay.Tracer()
    tr.op = "setup"
    inputs = setup(args.workload, args.seed, work, tr, digests, traced=True)

    def op(index: int, inp: Input) -> int:
        tr.op = index
        traced_op(kind, inp, tr, digests, cli_first=index % 2 == 0)
        return index

    ops, attempted, failed = closed_loop(args.seconds, inputs, op)
    if not ops:
        raise RuntimeError(f"none of {attempted} traced ops succeeded")

    tr.op = "probe"
    probe(args.workload, args.seed, inputs[0], tr, digests)
    values = replay.layer_metrics(tr, ops)
    metrics = {}
    for name, (unit, _, _) in replay.LAYER_METRICS.items():
        value, source = values[name]
        metrics[name] = metric(value, unit)
        print(f"{name:<34} {value:<12.6g} {unit:<6} from {source}")
    print(f"{len(ops)} traced ops; spans in perfbench/results/{args.workload}/spans.json")
    return inputs, digests, metrics, attempted, failed, tr


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description="Replay benchmark for audiokv.")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    threads_env = os.environ.pop(THREADS_ENV, None)
    work = BENCH / "work" / args.workload
    results = BENCH / "results" / args.workload
    try:
        tr = None
        if args.trace:
            inputs, digests, metrics, attempted, failed, tr = run_traced(args, work)
        else:
            inputs, digests, metrics, attempted, failed = run_end_to_end(args, work)
        results.mkdir(parents=True, exist_ok=True)
        record = manifest(args, inputs, threads_env, digests)
        (results / "manifest.json").write_text(json.dumps(record, indent=1))
        if tr is not None:
            (results / "spans.json").write_text(json.dumps({"spans": tr.spans, "counts": tr.counts}))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    print("digests " + json.dumps(digests.ref, sort_keys=True))
    correct = failed == 0 and all(math.isfinite(m["value"]) for m in metrics.values())
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0
