"""Byte-identity sweep: run every command on two source trees and print what differs.

    python tests/identity_sweep.py PARENT_TREE CHANGE_TREE [--seeds N] [--cases N]

Each tree is a checkout of this repository. Its `src/audiokv` runs in a
subprocess of its own (this script with `--worker`), the two in parallel,
over these inputs: spike-plateau seeds 0..N-1 (default 60), specialized-heads
and uniform seeds 0-1, and `perfbench/gen.py` traces (the tree's own
`gen.py`, imported without writing bytecode): 8x8 heads at seeds 1-3, and
7x6 heads at seed 1, whose 7 layers `score_rows` scores in blocks of 5 and
2, the last block ragged. Per input it
runs the commands of `commands()` from a directory of their own, so paths in
messages are relative, and records each command's exit code, stdout, stderr
and written files. It then calls `budget.allocate` on `--cases` random cases
(default 60000) and records each one's capacities or error.

Every record whose exit code, stdout, stderr, written file, capacities or
error differs is printed, then one count line. The exit status is 0 when
nothing differs and 1 otherwise. pytest does not collect this file.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
from collections import Counter
from pathlib import Path

POLICIES = ("audiokv", "audiokv-nosss", "snapkv", "snapkv+sss", "h2o", "adakv", "pyramid")
MODES = ("combined", "uniform", "pyramid")
# Each allocate plan's name and sizing flags; `w7` is made with window 7.
PLANS = {
    "ratio": ["--ratio", "0.6", "--context-length", "549"],
    "5003": ["--budget", "5003"],
    "w7": ["--budget", "100003", "--window", "7", "--base-fraction", "0.3"],
}
# Each further `compare` run's name and flags: the grid edges a batched
# selection must get right. Window 200 is longer than every input's trace.
COMPARE_GRIDS = {
    "w1": ["--window", "1"],
    "w200": ["--window", "200", "--ratios", "0.6,0.8", "--base-fraction", "0"],
    "r1": ["--ratios", "1.0"],
    "r-dup": ["--ratios", "0.4,0.4"],
    "r7": ["--ratios", "0.2,0.3,0.4,0.5,0.6,0.8,0.95"],
    "alpha0": ["--mix-alpha", "0"],
    "base0": ["--base-fraction", "0"],
    "base1": ["--base-fraction", "1"],
}
SETTINGS = (("--pool-width", "3"), ("--base-fraction", "0.3"), ("--cutoff-ratio", "0.2"),
            ("--mix-alpha", "0.1"))


def inputs(seeds: int) -> list[str]:
    return [
        *(f"spike-plateau-{seed}" for seed in range(seeds)),
        *(f"{profile}-{seed}" for profile in ("specialized-heads", "uniform") for seed in (0, 1)),
        *(f"gen-8x8-{seed}" for seed in (1, 2, 3)),
        "gen-7x6-1",
    ]


def commands() -> list[tuple[list[str], list[str]]]:
    """(argv, files it writes) for every command run on one input, in run order."""
    trace = ["--trace", "trace.akvt"]
    both = [*trace, "--alignment", "alignment.json"]
    runs = [(["score-heads", *both, "--out", "scores.json"], ["scores.json"])]
    for k in (1, 3, 24, 200):
        runs.append((["score-heads", *both, "--top-k", str(k), "--out", f"scores-k{k}.json"],
                     [f"scores-k{k}.json"]))
    runs.append((["compare", *both, "--out", "report.csv", "--json", "report.json"],
                  ["report.csv", "report.json"]))
    runs.append((["compare", *both, "--ratios", "0.1,0.5,0.95", "--top-k", "5", "--out",
                  "report-k5.csv"], ["report-k5.csv"]))
    for name, flags in COMPARE_GRIDS.items():
        out = f"report-{name}.csv"
        runs.append((["compare", *both, *flags, "--out", out], [out]))
    for plan, sizing in PLANS.items():
        for mode in MODES:
            out = f"plan-{mode}-{plan}.json"
            runs.append((["allocate", "--scores", "scores.json", "--mode", mode, *sizing,
                          "--out", out], [out]))
    for policy in POLICIES:
        simulate = ["simulate", *trace, "--policy", policy]

        def run(name: str, *flags: str) -> None:
            out = f"sim-{policy}-{name}.json"
            runs.append(([*simulate, *flags, "--out", out], [out]))

        for ratio in ("0.4", "0.8"):
            run(f"r{ratio}", "--ratio", ratio, "--scores", "scores.json")
        # A window whose width is not a power of two: the `w7` plans exceed
        # every input's cache, so their runs exit before selecting.
        run("w24", "--window", "24", "--ratio", "0.4", "--scores", "scores.json")
        run("default")
        for flag, value in SETTINGS:
            run(f"scores{flag}", "--scores", "scores.json", flag, value)
            run(f"plan{flag}", "--plan", "plan-uniform-ratio.json", flag, value)
        for plan in PLANS:
            for mode in MODES:
                run(f"plan-{mode}-{plan}", "--plan", f"plan-{mode}-{plan}.json")
        for mode in MODES:
            run(f"plan-{mode}-w7-w7", "--plan", f"plan-{mode}-w7.json", "--window", "7")
        run("plan-scores", "--plan", "plan-uniform-5003.json", "--scores", "scores.json")
        run("plan-ratio", "--plan", "plan-uniform-5003.json", "--ratio", "0.9")
    runs.append((["simulate", *trace, "--policy", "snapkv", "--pool-width", "1", "--out",
                  "sim-snapkv-pool1.json"], ["sim-snapkv-pool1.json"]))
    return runs


def sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run_command(main, argv: list[str], written: list[str]) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    files = {name: sha(Path(name).read_bytes()) if Path(name).exists() else None
             for name in written}
    return {"exit": code, "stdout": out.getvalue(), "stderr": err.getvalue(), "files": files}


def write_input(tree: Path, name: str, main) -> dict:
    """Write `name`'s trace and alignment to the working directory; the record of doing so."""
    profile, seed = name.rsplit("-", 1)
    if not profile.startswith("gen-"):
        return run_command(main, ["gen-fixture", "--profile", profile, "--seed", seed,
                                  "--out", "."], ["trace.akvt", "alignment.json", "meta.json"])
    sys.path.insert(0, str(tree / "perfbench"))
    import gen

    from audiokv.trace import write_alignment, write_trace

    layers, heads = (int(side) for side in profile.removeprefix("gen-").split("x"))
    trace, words = gen.generate(int(seed), layers, heads)
    write_trace(trace, Path("trace.akvt"))
    write_alignment(words, Path("alignment.json"))
    files = {f: sha(Path(f).read_bytes()) for f in ("trace.akvt", "alignment.json")}
    return {"exit": 0, "stdout": "", "stderr": "", "files": files}


def allocate_cases(count: int):
    """`count` random `allocate` arguments: tied, distinct and all-zero scores,
    windows, bases and budgets from too small up to layers·heads·(2³²−1)."""
    import numpy as np

    from audiokv.budget import AllocationMode

    rng = np.random.default_rng(19)
    modes = list(AllocationMode)
    for _ in range(count):
        layers, heads = (int(v) for v in rng.integers(1, 9, 2))
        n = layers * heads
        kind = int(rng.integers(3))
        if kind == 0:
            scores = rng.integers(0, 4, (layers, heads)) / 4
        elif kind == 1:
            scores = rng.random((layers, heads))
        else:
            scores = np.zeros((layers, heads))
        window, base = int(rng.integers(0, 40)), int(rng.integers(0, 20))
        top = (100 * n, 10**6, n * (2**32 - 1))[int(rng.integers(3))]
        budget = int(rng.integers(0, top + 1))
        yield scores, budget, window, base, modes[int(rng.integers(3))]


def worker(tree: Path, seeds: int, cases: int, out_path: Path) -> None:
    from audiokv.budget import allocate
    from audiokv.cli import main
    from audiokv.heads import HeadScoreMatrix

    records = {}
    with tempfile.TemporaryDirectory() as scratch:
        for name in inputs(seeds):
            work = Path(scratch) / name
            work.mkdir()
            os.chdir(work)
            records[f"{name} input"] = write_input(tree, name, main)
            for argv, written in commands():
                records[f"{name} {' '.join(argv)}"] = run_command(main, argv, written)
        os.chdir(tree)
    for index, (scores, budget, window, base, mode) in enumerate(allocate_cases(cases)):
        try:
            plan = allocate(HeadScoreMatrix(scores, 1), budget, window, base, mode)
            outcome = sha(plan.capacities.astype("<i8").tobytes())
        except Exception as exc:  # the error itself is the record
            outcome = f"{type(exc).__name__}: {exc}"
        case = f"{mode.value} {scores.shape} budget {budget} window {window} base {base}"
        records[f"allocate case {index}: {case}"] = {"outcome": outcome}
    out_path.write_text(json.dumps(records))


def compare(parent: dict, change: dict) -> int:
    """Print every record that differs, then how many inputs each command
    differs on, by exit codes, and the count of records."""
    differ, tally = 0, Counter()
    for key in [*parent, *(key for key in change if key not in parent)]:
        a, b = parent.get(key), change.get(key)
        if a == b:
            continue
        differ += 1
        if a is None or b is None:
            print(f"{key}: only in the {'change' if a is None else 'parent'}")
            continue
        parts = [f"{part} {a[part]!r} -> {b[part]!r}" for part in ("exit", "outcome")
                 if part in a and a[part] != b[part]]
        parts += [part for part in ("stdout", "stderr") if part in a and a[part] != b[part]]
        files = a.get("files", {})
        parts += [f"file {f}" for f in files if files[f] != b["files"].get(f)]
        print(f"{key}: {'; '.join(parts)}")
        if "stderr" in parts and b["stderr"]:
            print(f"    change stderr: {b['stderr'].strip()}")
        command = "allocate cases" if key.startswith("allocate case") else key.split(" ", 1)[1]
        tally[f"{command}: exit {a.get('exit')} -> {b.get('exit')}"] += 1
    if tally:
        print("differing records by command:")
    for line, count in tally.items():
        print(f"{count:6d}  {line}")
    print(f"{len(parent)} records, {len(parent) - differ} equal, {differ} differ")
    return 1 if differ else 0


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("trees", nargs="+", type=Path, metavar="TREE")
    parser.add_argument("--seeds", type=int, default=60, help="spike-plateau seeds 0..N-1")
    parser.add_argument("--cases", type=int, default=60000, help="random allocate cases")
    parser.add_argument("--worker", type=Path, metavar="OUT", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.worker:
        worker(args.trees[0].resolve(), args.seeds, args.cases, args.worker)
        return 0
    if len(args.trees) != 2:
        parser.error("give two trees: PARENT_TREE CHANGE_TREE")
    with tempfile.TemporaryDirectory() as scratch:
        runs = []
        for index, tree in enumerate(args.trees):
            tree = tree.resolve()
            out = Path(scratch) / f"{index}.json"
            env = {**os.environ, "PYTHONPATH": str(tree / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
            cmd = [sys.executable, __file__, str(tree), "--seeds", str(args.seeds),
                   "--cases", str(args.cases), "--worker", str(out)]
            runs.append((subprocess.Popen(cmd, env=env), out))
        if any(proc.wait() for proc, _ in runs):
            print("a worker failed", file=sys.stderr)
            return 2
        parent, change = (json.loads(out.read_text()) for _, out in runs)
    return compare(parent, change)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
