"""Every command's bytes on a small corpus of inputs, pinned by one digest each.

A refactor that claims to keep every output byte runs this unedited. Per
input it runs `score-heads`, `allocate` in every mode, `simulate` for every
policy at ratio 0.4 with the scores, and `compare --json`, and hashes each
command's exit code, stdout and written files, in command order. Paths are
relative to the working directory, so stdout does not name the test's
temporary directory.
"""

import hashlib
import sys
from pathlib import Path

import pytest

from audiokv.budget import AllocationMode
from audiokv.cli import main
from audiokv.eviction import POLICIES
from audiokv.fixtures import generate_fixture
from audiokv.trace import write_alignment, write_trace

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import gen  # noqa: E402

CORPUS_SHA256 = {
    "spike-plateau-0": "e9d50aabf0d59a87f5bbfaf5f251b38e82447ff86dfecbc0a96a0f94454e1515",
    "spike-plateau-1": "f40ad21ce19f501bbeec437e64dd4e7ff382e0a52672cd9eb14e3f77204ceda9",
    "spike-plateau-2": "df5112d8a13633029ec4261060859b7243f49d7dafeb403624e6086301ff3a98",
    "specialized-heads-0": "5f3b7550e069bc0da426415354a2510ac5a7599aa6de28973e5710fe8a335b14",
    "uniform-0": "1e3d5ae19212dc4e8b4a1afd4dc83900e407919cdefabe3a2448addab6bff72b",
    "gen-8x8-1": "7779bf10cbb5af4dad1173aeb22b8dcc033d27b68934116a631b6e75c00de988",
}


def write_input(name: str) -> None:
    if name.startswith("gen-"):
        trace, words = gen.generate(1, 8, 8)
    else:
        profile, seed = name.rsplit("-", 1)
        fixture = generate_fixture(profile, int(seed))
        trace, words = fixture.trace, fixture.words
    write_trace(trace, Path("trace.akvt"))
    write_alignment(words, Path("alignment.json"))


def commands() -> list[tuple[list[str], list[str]]]:
    """(argv, files it writes) for every command, in run order."""
    inputs = ["--trace", "trace.akvt"]
    runs = [(["score-heads", *inputs, "--alignment", "alignment.json", "--out", "scores.json"],
             ["scores.json"])]
    for mode in AllocationMode:
        out = f"plan-{mode.value}.json"
        runs.append((["allocate", "--scores", "scores.json", "--ratio", "0.4",
                      "--context-length", "549", "--mode", mode.value, "--out", out], [out]))
    for policy in POLICIES:
        out = f"{policy}.json"
        runs.append((["simulate", *inputs, "--policy", policy, "--ratio", "0.4",
                      "--scores", "scores.json", "--out", out], [out]))
    runs.append((["compare", *inputs, "--alignment", "alignment.json", "--out", "report.csv",
                  "--json", "report.json"], ["report.csv", "report.json"]))
    return runs


@pytest.mark.parametrize("name", list(CORPUS_SHA256))
def test_corpus_bytes_are_pinned(name, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    write_input(name)
    digest = hashlib.sha256()
    for argv, written in commands():
        code = main(argv)
        digest.update(f"{' '.join(argv)} exit {code}\n".encode())
        digest.update(capsys.readouterr().out.encode())
        for path in written:
            digest.update(Path(path).read_bytes() if Path(path).exists() else b"(not written)")
    assert digest.hexdigest() == CORPUS_SHA256[name]


# Per corpus input: `simulate --plan` of each of its three `allocate` plans
# under every policy, hashed as above.
PLAN_CORPUS_SHA256 = {
    "spike-plateau-0": "7d56e4991b8cc24d4ac9c30ca69e130ec30568d2b3fbbbd8aab14d29944fed93",
    "spike-plateau-1": "848952776e925153c3c00ef65f27733911adc8690f4d0e7e0727d1a371aaeb16",
    "spike-plateau-2": "e63682dc03a9d890a6f2bc5400ae462cee03b868c10750ea6b702d6a32f62b81",
    "specialized-heads-0": "7cc0a0c1343d20b9c39d4dfa037ede20c011929d5786c02ce44ed24719a23ace",
    "uniform-0": "6702d9e59ea9089ff10f70b4458ccf83301ddfdc1ab3054a5a52756e9481207f",
    "gen-8x8-1": "f1b84c332faa6b400df9399381d97af04dd6492e8d3f73f69e56b535d1962345",
}


def plan_commands() -> list[tuple[list[str], list[str]]]:
    """(argv, files it writes) for every policy run on every `allocate` plan of `commands()`."""
    runs = []
    for mode in AllocationMode:
        for policy in POLICIES:
            out = f"{policy}-on-{mode.value}.json"
            runs.append((["simulate", "--trace", "trace.akvt", "--policy", policy,
                          "--plan", f"plan-{mode.value}.json", "--out", out], [out]))
    return runs


@pytest.mark.parametrize("name", list(PLAN_CORPUS_SHA256))
def test_corpus_plan_runs_are_pinned(name, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    write_input(name)
    for argv, _ in commands()[: 1 + len(AllocationMode)]:
        assert main(argv) == 0
    capsys.readouterr()
    digest = hashlib.sha256()
    for argv, written in plan_commands():
        code = main(argv)
        digest.update(f"{' '.join(argv)} exit {code}\n".encode())
        digest.update(capsys.readouterr().out.encode())
        for path in written:
            digest.update(Path(path).read_bytes() if Path(path).exists() else b"(not written)")
    assert digest.hexdigest() == PLAN_CORPUS_SHA256[name]


# Per corpus input: one `compare` over the grid edges the batched selection
# must get right, hashed as above. A one-step window and recent block, a
# duplicated ratio, seven ratios with 1.0 among them, no SSS residual mix
# and no uniform base.
GRID_CORPUS_SHA256 = {
    "spike-plateau-0": "b0d587ca518da2824a7db4747c82f1b844e8b77daded18721647b36229e72c38",
    "spike-plateau-1": "e446cd58f0b477562f03270947e1e0a1bb3d2758da536981569efb6ab98364a3",
    "spike-plateau-2": "e7014a1def2de000cc8c83b7d8f6d02f50cd5802f42163101cf820190a717845",
    "specialized-heads-0": "33fa38be05c6708df2266c8baab9aaacb56662a1246ac16fafd4fde781d5f9d4",
    "uniform-0": "7b1a1e54cd9796aa78c941ddab414131acebfc707d05e924816e5faaa4dbe654",
    "gen-8x8-1": "3327a60cca77c1ccbe406b1a836b54e7b23a2a746d0c36dc74920151073d8c4f",
}

GRID_COMPARE = (
    ["compare", "--trace", "trace.akvt", "--alignment", "alignment.json", "--window", "1",
     "--ratios", "0.1,0.25,0.4,0.4,0.55,0.7,1.0", "--mix-alpha", "0", "--base-fraction", "0",
     "--out", "grid.csv", "--json", "grid.json"],
    ["grid.csv", "grid.json"],
)


@pytest.mark.parametrize("name", list(GRID_CORPUS_SHA256))
def test_corpus_compare_grid_is_pinned(name, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    write_input(name)
    argv, written = GRID_COMPARE
    code = main(argv)
    digest = hashlib.sha256(f"{' '.join(argv)} exit {code}\n".encode())
    digest.update(capsys.readouterr().out.encode())
    for path in written:
        digest.update(Path(path).read_bytes() if Path(path).exists() else b"(not written)")
    assert digest.hexdigest() == GRID_CORPUS_SHA256[name]
