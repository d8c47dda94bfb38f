import dataclasses
import json
import os
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import align_oracle
import validate_oracle
from audiokv.errors import DegenerateSpanError, FormatError, IntegrityError
from audiokv.eviction import summed_attention
from audiokv.trace import (
    AttentionTrace,
    AudioSpan,
    DecodingStep,
    WordAlignment,
    align_generated_to_words,
    filter_words,
    load_alignment,
    load_trace,
    validate_trace,
    word_to_audio_span,
    write_alignment,
    write_trace,
)


def make_trace(layers=1, heads=1, contexts=(4, 5), a0=0, n_audio=4, duration=1.0, texts=None):
    steps = []
    for t, context in enumerate(contexts):
        rows = np.random.default_rng(100 + t).random((layers, heads, context))
        rows /= rows.sum(axis=-1, keepdims=True)
        text = texts[t] if texts else ""
        steps.append(
            DecodingStep(step_index=t, generated_token_text=text, attention=rows.astype(np.float32))
        )
    return AttentionTrace(
        num_layers=layers,
        num_heads=heads,
        steps=tuple(steps),
        audio_start=a0,
        num_audio_tokens=n_audio,
        total_duration_s=duration,
    )


# Loads argv[1] with RLIMIT_DATA (private writable memory, which a read-only
# file mapping does not count toward) set argv[2] bytes above what the process
# already holds.
LOAD_UNDER_DATA_LIMIT = """
import resource, sys
from audiokv.trace import load_trace

with open("/proc/self/status") as fh:
    held = next(int(line.split()[1]) * 1024 for line in fh if line.startswith("VmData:"))
_, hard = resource.getrlimit(resource.RLIMIT_DATA)
resource.setrlimit(resource.RLIMIT_DATA, (held + int(sys.argv[2]), hard))
print(load_trace(sys.argv[1]).num_steps)
"""


class TestTraceIo:
    def test_minimal_trace_roundtrip(self, tmp_path):
        trace = make_trace()
        path = tmp_path / "t.akvt"
        write_trace(trace, path)
        loaded = load_trace(path)
        assert loaded.num_steps == 2
        assert loaded.audio_span == (0, 4)

    def test_roundtrip_is_bit_exact(self, tmp_path):
        trace = make_trace(layers=2, heads=4, contexts=tuple(range(12, 22)), a0=2, n_audio=6)
        path = tmp_path / "t.akvt"
        write_trace(trace, path)
        loaded = load_trace(path)
        assert loaded.audio_span == (2, 6)
        assert loaded.total_duration_s == trace.total_duration_s
        for a, b in zip(trace.steps, loaded.steps):
            assert np.array_equal(a.attention, b.attention)
        second = tmp_path / "t2.akvt"
        write_trace(loaded, second)
        assert path.read_bytes() == second.read_bytes()

    def test_token_texts_survive_via_sidecar(self, tmp_path):
        trace = make_trace(texts=["hel", "lo"])
        path = tmp_path / "t.akvt"
        write_trace(trace, path)
        assert (tmp_path / "t.akvt.tokens.json").exists()
        loaded = load_trace(path)
        assert [s.generated_token_text for s in loaded.steps] == ["hel", "lo"]

    @pytest.mark.parametrize("duration", [float("nan"), float("inf"), -1.0])
    def test_bad_duration_raises_format_error(self, tmp_path, duration):
        path = tmp_path / "t.akvt"
        write_trace(make_trace(duration=duration), path)
        with pytest.raises(FormatError, match="duration must be finite"):
            load_trace(path)

    def test_bad_row_sum_raises_integrity_error(self, tmp_path):
        path = tmp_path / "bad.akvt"
        header = struct.pack("<4sIIIIIId", b"AKVT", 1, 1, 1, 1, 0, 2, 1.0)
        row = np.array([0.4, 0.5], dtype="<f4")  # sums to 0.9
        path.write_bytes(header + struct.pack("<I", 2) + row.tobytes())
        with pytest.raises(IntegrityError):
            load_trace(path)

    def test_nan_attention_raises_integrity_error(self, tmp_path):
        path = tmp_path / "nan.akvt"
        header = struct.pack("<4sIIIIIId", b"AKVT", 1, 1, 1, 1, 0, 2, 1.0)
        row = np.array([1.0, np.nan], dtype="<f4")
        path.write_bytes(header + struct.pack("<I", 2) + row.tobytes())
        with pytest.raises(IntegrityError, match="row sums"):
            load_trace(path)

    def test_bad_magic_raises_format_error(self, tmp_path):
        path = tmp_path / "bad.akvt"
        path.write_bytes(b"XXXX" + b"\x00" * 40)
        with pytest.raises(FormatError):
            load_trace(path)

    def test_bad_version_raises_format_error(self, tmp_path):
        path = tmp_path / "bad.akvt"
        path.write_bytes(struct.pack("<4sIIIIIId", b"AKVT", 9, 1, 1, 0, 0, 0, 1.0))
        with pytest.raises(FormatError):
            load_trace(path)

    def test_non_monotone_context_raises(self, tmp_path):
        path = tmp_path / "bad.akvt"
        header = struct.pack("<4sIIIIIId", b"AKVT", 1, 1, 1, 2, 0, 2, 1.0)
        row2 = np.array([0.5, 0.5], dtype="<f4")
        body = struct.pack("<I", 2) + row2.tobytes() + struct.pack("<I", 2) + row2.tobytes()
        path.write_bytes(header + body)
        with pytest.raises(IntegrityError):
            load_trace(path)

    def test_audio_span_exceeding_context_raises(self, tmp_path):
        trace = make_trace(contexts=(4, 5), n_audio=9)
        path = tmp_path / "bad.akvt"
        write_trace(trace, path)
        with pytest.raises(FormatError):
            load_trace(path)

    def test_rewrite_keeps_a_loaded_trace_readable(self, tmp_path):
        # The loaded arrays map the old file; writing a shorter trace in place
        # would change them, and reading past its end would raise SIGBUS.
        path = tmp_path / "t.akvt"
        old = make_trace(layers=2, heads=4, contexts=tuple(range(500, 520)))
        write_trace(old, path)
        loaded = load_trace(path)
        assert not loaded.steps[0].attention.flags.writeable
        new = make_trace(contexts=(4,))
        write_trace(new, path)
        for a, b in zip(old.steps, loaded.steps):
            assert np.array_equal(a.attention, b.attention)
        assert np.array_equal(load_trace(path).steps[0].attention, new.steps[0].attention)
        assert [p.name for p in tmp_path.iterdir()] == ["t.akvt"]

    def test_device_or_pipe_raises_format_error(self):
        with pytest.raises(FormatError, match="must be a regular file"):
            load_trace(os.devnull)

    @pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="reads VmData")
    def test_load_makes_no_copy_of_the_file(self, tmp_path):
        # A ~32 MB trace loads in a process allowed only 24 MB more private
        # data than it holds: the file is mapped, never read into memory.
        path = tmp_path / "big.akvt"
        contexts = range(2048, 2112)
        steps = tuple(
            DecodingStep(t, "", np.full((8, 8, context), 1.0 / context, dtype=np.float32))
            for t, context in enumerate(contexts)
        )
        write_trace(AttentionTrace(8, 8, steps, 0, 750, 30.0), path)
        assert path.stat().st_size > 32 * 2**20
        run = subprocess.run(
            [sys.executable, "-c", LOAD_UNDER_DATA_LIMIT, str(path), str(24 * 2**20)],
            capture_output=True,
            env={**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")},
            timeout=120,
        )
        assert run.returncode == 0, run.stderr.decode()
        assert run.stdout.split() == [b"64"]

    def test_alignment_roundtrip_uses_whisperx_field_names(self, tmp_path):
        words = [WordAlignment("Hello", 0.0, 0.4, 0.99), WordAlignment("world", 0.5, 0.9, 0.97)]
        path = tmp_path / "align.json"
        write_alignment(words, path)
        raw = json.loads(path.read_text())
        assert set(raw[0]) == {"word", "start", "end", "score"}
        assert load_alignment(path) == words


class TestFilterWords:
    def test_threshold_is_inclusive(self):
        words = [
            WordAlignment("a", 0, 1, 0.99),
            WordAlignment("b", 1, 2, 0.80),
            WordAlignment("c", 2, 3, 0.95),
        ]
        kept = filter_words(words, 0.95)
        assert [w.text for w in kept] == ["a", "c"]

    def test_zero_tau_keeps_everything(self):
        words = [WordAlignment(str(i), i, i + 1, 0.1 * i) for i in range(5)]
        assert filter_words(words, 0.0) == words

    def test_tau_one_drops_all_when_below(self):
        words = [WordAlignment("a", 0, 1, 0.999)]
        assert filter_words(words, 1.0) == []

    @given(
        st.lists(st.floats(min_value=0, max_value=1), max_size=20),
        st.floats(min_value=0, max_value=1),
    )
    def test_idempotent_and_order_preserving(self, confidences, tau):
        words = [WordAlignment(f"w{i}", i, i + 1, c) for i, c in enumerate(confidences)]
        once = filter_words(words, tau)
        assert filter_words(once, tau) == once
        texts = [w.text for w in words]
        assert [texts.index(w.text) for w in once] == sorted(
            texts.index(w.text) for w in once
        )


class TestWordToAudioSpan:
    def test_floor_formula(self):
        trace = make_trace(contexts=(110, 111), a0=10, n_audio=100, duration=10.0)
        span = word_to_audio_span(WordAlignment("x", 2.5, 3.0, 1.0), trace)
        assert (span.start_index, span.end_index) == (35, 40)

    def test_zero_time_word(self):
        trace = make_trace(contexts=(110, 111), a0=10, n_audio=100, duration=10.0)
        span = word_to_audio_span(WordAlignment("x", 0.0, 0.0, 1.0), trace)
        assert (span.start_index, span.end_index) == (10, 10)

    def test_word_ending_at_duration_clamps_to_last_audio_token(self):
        trace = make_trace(contexts=(110, 111), a0=10, n_audio=100, duration=10.0)
        span = word_to_audio_span(WordAlignment("x", 9.5, 10.0, 1.0), trace)
        assert span.end_index == 109

    def test_degenerate_duration_raises(self):
        trace = make_trace(duration=0.0)
        with pytest.raises(DegenerateSpanError):
            word_to_audio_span(WordAlignment("x", 0, 0, 1.0), trace)

    def test_no_audio_tokens_raises(self):
        trace = make_trace(n_audio=0)
        with pytest.raises(DegenerateSpanError):
            word_to_audio_span(WordAlignment("x", 0, 0, 1.0), trace)

    @settings(max_examples=50)
    @given(st.floats(min_value=0, max_value=10), st.floats(min_value=0, max_value=10))
    def test_monotone_in_start_time(self, t_a, t_b):
        trace = make_trace(contexts=(110, 111), a0=10, n_audio=100, duration=10.0)
        lo, hi = sorted((t_a, t_b))
        span_lo = word_to_audio_span(WordAlignment("x", lo, 10.0, 1.0), trace)
        span_hi = word_to_audio_span(WordAlignment("x", hi, 10.0, 1.0), trace)
        assert span_lo.start_index <= span_hi.start_index


def steps_from_texts(texts):
    return [
        DecodingStep(
            step_index=i,
            generated_token_text=t,
            attention=np.full((1, 1, 4 + i), 1.0 / (4 + i), dtype=np.float32),
        )
        for i, t in enumerate(texts)
    ]


def words_from_texts(texts):
    return [WordAlignment(t, i, i + 1, 0.99) for i, t in enumerate(texts)]


class TestAlignGeneratedToWords:
    def test_subword_tokens_cover_their_word(self):
        mapping = align_generated_to_words(
            steps_from_texts(["hel", "lo", " world"]), words_from_texts(["hello", "world"])
        )
        assert dict(mapping.entries) == {0: frozenset({0, 1}), 1: frozenset({2})}

    def test_empty_word_list_gives_empty_map(self):
        mapping = align_generated_to_words(steps_from_texts(["hi"]), [])
        assert len(mapping) == 0

    def test_out_of_order_word_is_skipped_without_backtracking(self):
        mapping = align_generated_to_words(
            steps_from_texts(["b ", "a ", "c"]), words_from_texts(["a", "b", "c"])
        )
        # "a" matches step 1, then "b" (behind the cursor) is skipped.
        assert dict(mapping.entries) == {0: frozenset({1}), 2: frozenset({2})}

    def test_case_and_punctuation_are_ignored(self):
        mapping = align_generated_to_words(
            steps_from_texts(["Hello,", " WORLD!"]), words_from_texts(["hello", "world"])
        )
        assert dict(mapping.entries) == {0: frozenset({0}), 1: frozenset({1})}

    def test_step_indices_disjoint_across_words(self):
        texts = ["one", " two", " thr", "ee", " four"]
        mapping = align_generated_to_words(
            steps_from_texts(texts), words_from_texts(["one", "two", "three", "four"])
        )
        seen = set()
        for _, steps in mapping.entries:
            assert not (seen & steps)
            seen |= steps

    def test_boundary_spanning_token_goes_to_earlier_word(self):
        # " worldgood" starts inside "world", so the step belongs to it.
        mapping = align_generated_to_words(
            steps_from_texts(["hello", " worldgood", "bye"]),
            words_from_texts(["hello", "worldgoodbye"]),
        )
        assert dict(mapping.entries) == {0: frozenset({0}), 1: frozenset({1, 2})}


# Step texts and words drawn from a small alphabet, so that generated words
# repeat, straddle step boundaries and match alignment words often. It holds
# whitespace the normalizer keeps (including non-ASCII spaces), punctuation
# it drops, letters whose case folding changes their length, and non-ASCII
# letters.
ALIGN_ALPHABET = "ab \t\n\u00a0\u3000.,!'-AB\u00dfé\u0130ﬁ7"


@settings(max_examples=400, deadline=None)
@given(
    texts=st.lists(st.text(ALIGN_ALPHABET, max_size=6), max_size=12),
    words=st.lists(st.text(ALIGN_ALPHABET, max_size=5), max_size=10),
)
def test_alignment_matches_the_character_loop_oracle(texts, words):
    steps, aligned = steps_from_texts(texts), words_from_texts(words)
    assert align_generated_to_words(steps, aligned) == align_oracle.align_generated_to_words(
        steps, aligned
    )


def _rows(rng, layers, heads, context):
    rows = rng.random((layers, heads, context)) + 0.01
    return (rows / rows.sum(axis=-1, keepdims=True)).astype(np.float32)


@st.composite
def valid_traces(draw):
    """Small traces that pass validation, with widening contexts."""
    layers, heads = draw(st.integers(1, 2)), draw(st.integers(1, 3))
    first = draw(st.integers(1, 12))
    growth = draw(st.lists(st.integers(1, 3), max_size=7))
    contexts = np.cumsum([first, *growth]).tolist()
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    steps = tuple(
        DecodingStep(t, "", _rows(rng, layers, heads, context)) for t, context in enumerate(contexts)
    )
    a0 = draw(st.integers(0, first))
    n_audio = draw(st.integers(0, first - a0))
    return AttentionTrace(layers, heads, steps, a0, n_audio, 1.0)


DEFECTS = ["row-sum", "nan", "negative", "shape", "context", "step-index", "audio-span"]


def inject(draw, trace, defect):
    """`trace` with one `defect` at a drawn step."""
    steps = list(trace.steps)
    position = draw(st.integers(0, len(steps) - 1))
    step = steps[position]
    attention = step.attention.copy()
    layer = draw(st.integers(0, trace.num_layers - 1))
    head = draw(st.integers(0, trace.num_heads - 1))
    if step.context_length == 0 and defect in ("row-sum", "nan", "negative"):
        return trace  # an earlier defect emptied this step, which already fails
    index = draw(st.integers(0, max(step.context_length - 1, 0)))
    if defect == "audio-span":
        if draw(st.booleans()):
            return dataclasses.replace(trace, num_audio_tokens=steps[0].context_length + 1)
        return dataclasses.replace(trace, audio_start=-1)
    if defect == "row-sum":
        attention[layer, head] *= draw(st.sampled_from([0.5, 0.999, 1.001, 3.0]))
    elif defect == "nan":
        attention[layer, head, index] = np.nan
    elif defect == "negative":
        # The row keeps its sum where it can, so the sign check is what fails.
        other = (index + 1) % step.context_length
        attention[layer, head, other] += attention[layer, head, index] + 1e-5
        attention[layer, head, index] = -1e-5
    elif defect == "shape":
        rng = np.random.default_rng(position)
        attention = _rows(rng, trace.num_layers, trace.num_heads + 1, step.context_length)
    elif defect == "context":
        # At step 0 only an empty step is no wider than the last.
        previous = steps[position - 1].context_length if position else 0
        width = draw(st.integers(0, previous))
        attention = _rows(np.random.default_rng(position), trace.num_layers, trace.num_heads, width)
    elif defect == "step-index":
        previous = steps[position - 1].step_index if position else -1
        step = dataclasses.replace(step, step_index=previous - draw(st.integers(0, 2)))
    steps[position] = dataclasses.replace(step, attention=attention)
    return dataclasses.replace(trace, steps=tuple(steps))


def outcome(validate):
    try:
        validate()
    except (FormatError, IntegrityError) as exc:
        return type(exc), str(exc)
    return None


@settings(max_examples=300, deadline=None)
@given(data=st.data(), trace=valid_traces())
def test_validation_reports_the_oracles_error(data, trace):
    # One to three defects: the one-pass check must raise the error the
    # step-by-step oracle raises first, whether or not it also sums spans.
    for defect in data.draw(st.lists(st.sampled_from(DEFECTS), min_size=1, max_size=3)):
        trace = inject(data.draw, trace, defect)
    expected = outcome(lambda: validate_oracle.validate_trace(trace))
    assume(expected is not None)  # two row-sum defects on one row can cancel
    assert outcome(lambda: validate_trace(trace)) == expected
    start = data.draw(st.integers(0, trace.num_steps - 1))
    stop = data.draw(st.integers(start + 1, trace.num_steps))
    context = data.draw(st.none() | st.integers(1, 48))
    assert outcome(lambda: validate_trace(trace, [(start, stop)], context)) == expected


@settings(max_examples=200, deadline=None)
@given(data=st.data(), trace=valid_traces())
def test_span_sums_match_the_oracle_bit_for_bit(data, trace):
    spans = data.draw(
        st.lists(
            st.integers(0, trace.num_steps - 1).flatmap(
                lambda start: st.tuples(st.just(start), st.integers(start + 1, trace.num_steps))
            ),
            max_size=3,
        )
    )
    # The context may cut the later, wider steps or pad every step.
    context = data.draw(st.none() | st.integers(1, 48))
    sums = validate_trace(trace, spans, context)
    assert len(sums) == len(spans)
    for (start, stop), summed in zip(spans, sums):
        width = trace.steps[stop - 1].context_length if context is None else context
        expected = validate_oracle.summed_attention(trace.steps[start:stop], width)
        assert summed.tobytes() == expected.tobytes()


@settings(max_examples=200, deadline=None)
@given(
    widths=st.lists(st.integers(1, 30), min_size=1, max_size=8),
    context=st.integers(1, 30),
    seed=st.integers(0, 2**32 - 1),
)
def test_summed_attention_matches_the_oracle_as_widths_shrink_and_grow(widths, context, seed):
    rng = np.random.default_rng(seed)
    steps = [DecodingStep(t, "", _rows(rng, 2, 3, width)) for t, width in enumerate(widths)]
    expected = validate_oracle.summed_attention(steps, context)
    assert summed_attention(steps, context).tobytes() == expected.tobytes()


def test_a_step_of_the_wrong_rank_raises_format_error():
    # A [layers, heads] step has the right leading sides but no context axis.
    trace = make_trace(layers=1, heads=2, contexts=(4,))
    flat = dataclasses.replace(trace.steps[0], attention=np.full((1, 2), 1.0, dtype=np.float32))
    with pytest.raises(FormatError, match=r"step 0 attention shaped \(1, 2\)"):
        validate_trace(dataclasses.replace(trace, steps=(flat,)))


def test_a_span_outside_the_trace_is_rejected():
    with pytest.raises(ValueError, match="not inside 2 steps"):
        validate_trace(make_trace(), [(1, 3)])
