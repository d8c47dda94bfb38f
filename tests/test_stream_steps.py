"""`stream_steps`: releasing a mapped trace's pages behind a pass changes no
value, and keeps what a command holds resident far below the trace's size."""

import dataclasses
import json
import mmap
import os
import struct
import subprocess
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from audiokv import eviction, heads, metrics
from audiokv import trace as trace_module
from audiokv.cli import RunConfig, main
from audiokv.eviction import POLICIES, build_observation_window
from audiokv.fixtures import generate_fixture
from audiokv.heads import score_heads
from audiokv.metrics import (
    KvGeometry,
    aggregate_future_attention,
    compare_grid,
    eviction_boundary,
    reports_to_csv,
    run_comparison,
    score_rows,
    validated_split,
)
from audiokv.trace import (
    TraceFile,
    align_generated_to_words,
    filter_words,
    map_trace,
    stream_steps,
    validate_trace,
    write_alignment,
    write_trace,
)

needs_release = pytest.mark.skipif(
    not (hasattr(mmap, "MADV_DONTNEED") and hasattr(mmap.mmap, "madvise")),
    reason="mmap cannot drop pages here",
)


class RecordedMapping:
    """A trace mapping whose releases are recorded as (start, length), then made."""

    def __init__(self, data):
        self.data, self.calls = data, []

    def madvise(self, option, start, length):
        self.calls.append((start, length))
        self.data.madvise(option, start, length)


def recorded(trace):
    """`trace` with its mapping's releases recorded."""
    spy = RecordedMapping(trace.source.data)
    return dataclasses.replace(trace, source=TraceFile(spy, trace.source.ends)), spy.calls


def mapped_fixture(tmp_path, profile="spike-plateau", seed=3):
    fixture = generate_fixture(profile, seed)
    write_trace(fixture.trace, tmp_path / "trace.akvt")
    write_alignment(fixture.words, tmp_path / "alignment.json")
    return fixture, map_trace(tmp_path / "trace.akvt")


@needs_release
def test_a_pass_releases_every_page_it_passed_in_chunks(tmp_path, monkeypatch):
    monkeypatch.setattr(trace_module, "RELEASE_CHUNK", 3 * mmap.PAGESIZE)
    _, trace = mapped_fixture(tmp_path)
    spied, calls = recorded(trace)
    validate_trace(spied)
    ends = trace.source.ends
    assert len(calls) > 10 and calls[0][0] == 0
    # Chunks are whole pages of at least RELEASE_CHUNK bytes, each starting
    # where the last ended; the last release reaches the end of the last step.
    for (start, length), (after, _) in zip(calls, calls[1:]):
        assert start % mmap.PAGESIZE == 0 and length % mmap.PAGESIZE == 0
        assert length >= 3 * mmap.PAGESIZE and after == start + length
    assert sum(calls[-1]) == ends[-1] == len(trace.source.data)

    calls.clear()
    assert [step.step_index for step in stream_steps(spied, 5, 9)] == [5, 6, 7, 8]
    page = ends[4] // mmap.PAGESIZE * mmap.PAGESIZE
    assert calls[0][0] == page and sum(calls[-1]) == ends[8]


def test_a_trace_in_memory_streams_its_steps_and_releases_nothing():
    trace = generate_fixture("spike-plateau", 3).trace
    assert trace.source is None
    assert [step.step_index for step in stream_steps(trace, 2)] == list(range(2, trace.num_steps))
    assert list(stream_steps(trace, 0, 0)) == []


def test_simulate_streams_each_step_once_for_every_policy(tmp_path, monkeypatch):
    # Every policy selects from the window that the validating pass sums, so
    # no selector reads a step again.
    _, trace = mapped_fixture(tmp_path)
    files = {name: str(tmp_path / name) for name in ("trace.akvt", "alignment.json", "s.json")}
    assert main(["score-heads", "--trace", files["trace.akvt"], "--alignment",
                 files["alignment.json"], "--out", files["s.json"]]) == 0
    streamed = Counter()
    stream_steps = trace_module.stream_steps

    def counted(*args, **kwargs):
        for step in stream_steps(*args, **kwargs):
            streamed[step.step_index] += 1
            yield step

    for module in (trace_module, eviction, metrics, heads):
        monkeypatch.setattr(module, "stream_steps", counted)
    for policy in POLICIES:
        streamed.clear()
        argv = ["simulate", "--trace", files["trace.akvt"], "--policy", policy, "--scores",
                files["s.json"], "--out", str(tmp_path / "r.json")]
        assert main(argv) == 0
        assert streamed == Counter(range(trace.num_steps)), policy


@pytest.mark.parametrize("profile, seed", [("spike-plateau", 3), ("specialized-heads", 0)])
def test_a_mapped_trace_reads_the_bits_of_the_same_trace_in_memory(
    tmp_path, monkeypatch, profile, seed
):
    # One page per chunk: every step is released as soon as a pass is past
    # it, so the head scores and each later sum read released pages again.
    monkeypatch.setattr(trace_module, "RELEASE_CHUNK", mmap.PAGESIZE)
    fixture, mapped = mapped_fixture(tmp_path, profile, seed)
    memory = fixture.trace
    cfg = RunConfig()
    obs_steps, _ = eviction_boundary(memory, cfg.window)

    splits = [validated_split(trace, cfg.window) for trace in (mapped, memory)]
    for trace, (window, future) in zip((mapped, memory), splits):
        assert window.width == obs_steps
        rebuilt = (
            build_observation_window(trace.prefix(obs_steps), obs_steps),
            aggregate_future_attention(
                trace, obs_steps - 1, trace.num_steps - obs_steps, window.context_length
            ),
        )
        for summed, again in zip((window, future), rebuilt):
            assert summed.aggregated.tobytes() == again.aggregated.tobytes()
    for ours, theirs in zip(splits[0], splits[1]):
        assert ours.aggregated.tobytes() == theirs.aggregated.tobytes()

    words = filter_words(fixture.words, cfg.tau)
    mapping = align_generated_to_words(list(memory.steps), words)
    scores = [score_heads(trace, words, mapping) for trace in (mapped, memory)]
    assert scores[0].num_samples == scores[1].num_samples > 0
    assert scores[0].scores.tobytes() == scores[1].scores.tobytes()

    policies, plans = compare_grid(
        memory, scores[1], cfg.retention_ratios, cfg.window, cfg.base_fraction, cfg.sss()
    )
    reports = [
        reports_to_csv(run_comparison(trace, policies, plans, observation_width=cfg.window,
                                      recent=cfg.window))
        for trace in (mapped, memory)
    ]
    reports.append(
        reports_to_csv(score_rows(*splits[0], policies, plans, KvGeometry(), cfg.window))
    )
    out = tmp_path / "report.csv"
    argv = ["compare", "--trace", str(tmp_path / "trace.akvt"), "--alignment",
            str(tmp_path / "alignment.json"), "--out", str(out)]
    assert main(argv) == 0
    assert reports == [out.read_text()] * 3

    for step, kept in zip(mapped.steps, memory.steps):
        assert step.attention.tobytes() == kept.attention.astype("<f4").tobytes()


# A long trace: 4x16 heads and 448 steps of contexts 1024 to 1471, 136.4 MiB.
LAYERS, HEADS, STEPS, FIRST_CONTEXT = 4, 16, 448, 1024
AUDIO_START, AUDIO_TOKENS, DURATION = 16, 750, 30.0
# Steps generating the words: eight of them, spread past the observation window.
WORD_STEPS = range(40, 440, 50)

# Prints the peak resident set, in bytes, after running `audiokv argv[1:]`
# (nothing when argv is empty), or exits with the command's nonzero code.
PEAK_AFTER_COMMAND = """
import resource, sys
from audiokv.cli import main
if len(sys.argv) > 1 and main(sys.argv[1:]):
    sys.exit("command failed")
peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
print(peak if sys.platform == "darwin" else peak * 1024)
"""


def write_long_trace(directory: Path) -> Path:
    """Write the long trace one step at a time, with its token texts and
    alignment, never holding more than one step in memory."""
    path = directory / "trace.akvt"
    rng = np.random.default_rng(0)
    header = struct.pack(
        "<4sIIIIIId", b"AKVT", 1, LAYERS, HEADS, STEPS, AUDIO_START, AUDIO_TOKENS, DURATION
    )
    with open(path, "wb") as fh:
        fh.write(header)
        for step in range(STEPS):
            context = FIRST_CONTEXT + step
            rows = rng.random((LAYERS, HEADS, context), dtype=np.float32) + np.float32(0.1)
            rows /= rows.sum(axis=-1, keepdims=True)
            fh.write(struct.pack("<I", context))
            fh.write(rows.astype("<f4").tobytes())
    texts = [""] * STEPS
    words = []
    for number, step in enumerate(WORD_STEPS):
        texts[step] = f" w{number}"
        words.append({"word": f"w{number}", "start": 3.0 * number, "end": 3.0 * number + 2.0,
                      "score": 1.0})
    (directory / "trace.akvt.tokens.json").write_text(json.dumps(texts))
    (directory / "alignment.json").write_text(json.dumps(words))
    return path


def peak_after(*argv: str) -> int:
    run = subprocess.run(
        [sys.executable, "-c", PEAK_AFTER_COMMAND, *argv],
        capture_output=True,
        env={**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")},
        timeout=300,
    )
    assert run.returncode == 0, run.stderr.decode()
    return int(run.stdout.split()[-1])


@needs_release
def test_simulate_and_compare_keep_a_long_trace_mostly_unresident(tmp_path):
    trace = write_long_trace(tmp_path)
    try:
        size = trace.stat().st_size
        assert size >= 128 * 2**20
        baseline = peak_after()
        trace_flags = ["--trace", str(trace)]
        simulate = peak_after("simulate", *trace_flags, "--policy", "snapkv",
                              "--out", str(tmp_path / "snapkv.json"))
        compare = peak_after("compare", *trace_flags, "--alignment",
                             str(tmp_path / "alignment.json"), "--out", str(tmp_path / "r.csv"))
        # Each command reads every step, so without releases its peak would
        # grow by the whole trace; with them it grows by about 12 MB here.
        bound = size // 6
        assert simulate - baseline < bound, (simulate - baseline, size)
        assert compare - baseline < bound, (compare - baseline, size)
    finally:
        trace.unlink()


# Prints how many bytes the resident set grew by while `map_trace(argv[1])`
# ran, the trace still alive, then the trace's step count.
RESIDENT_AFTER_MAP = """
import os, sys
from audiokv.trace import map_trace
def resident():
    with open("/proc/self/statm") as fh:
        return int(fh.read().split()[1]) * os.sysconf("SC_PAGE_SIZE")
before = resident()
trace = map_trace(sys.argv[1])
print(resident() - before, trace.num_steps)
"""


@pytest.mark.skipif(not Path("/proc/self/statm").exists(), reason="no /proc/self/statm here")
def test_map_trace_leaves_no_step_resident(tmp_path):
    # 256 steps of 1x16 heads at contexts from 1024: each step spans 64 KiB or
    # more, so each context length sits on pages of its own. Reading them
    # through the mapping would fault in about 64 KiB per step.
    path = tmp_path / "trace.akvt"
    steps, heads = 256, 16
    with open(path, "wb") as fh:
        fh.write(struct.pack("<4sIIIIIId", b"AKVT", 1, 1, heads, steps, 0, 16, 1.0))
        for step in range(steps):
            context = 1024 + step
            fh.write(struct.pack("<I", context))
            fh.write(np.full((heads, context), 1 / context, dtype="<f4").tobytes())
    run = subprocess.run(
        [sys.executable, "-c", RESIDENT_AFTER_MAP, str(path)],
        capture_output=True,
        env={**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")},
        timeout=300,
    )
    assert run.returncode == 0, run.stderr.decode()
    grown, mapped = (int(word) for word in run.stdout.split())
    assert mapped == steps
    assert grown < 2**20, grown
