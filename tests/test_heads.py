import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from audiokv.fixtures import generate_fixture
from audiokv.heads import (
    HeadScoreMatrix,
    TopKConfig,
    load_scores,
    save_scores,
    score_heads,
)
from audiokv.trace import (
    AttentionTrace,
    AudioSpan,
    DecodingStep,
    WordAlignment,
    WordStepMap,
    align_generated_to_words,
    filter_words,
    word_to_audio_span,
)

from heads_oracle import step_hit_ratio, topk_indices


class TestTopkIndices:
    def test_picks_largest(self):
        assert topk_indices(np.array([0.1, 0.5, 0.4]), 2) == {1, 2}

    def test_saturates_when_k_exceeds_length(self):
        assert topk_indices(np.array([0.3, 0.7]), 5) == {0, 1}

    def test_ties_break_toward_lower_index(self):
        assert topk_indices(np.array([0.25, 0.25, 0.25, 0.25]), 2) == {0, 1}

    def test_invariant_under_positive_rescaling(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            row = rng.random(30)
            assert topk_indices(row, 7) == topk_indices(row * 3.7, 7)


class TestStepHitRatio:
    def test_partial_intersection(self):
        assert step_hit_ratio(frozenset({35, 36, 90}), AudioSpan(30, 40), 3) == pytest.approx(2 / 3)

    def test_full_containment(self):
        assert step_hit_ratio(frozenset({5, 6}), AudioSpan(0, 10), 2) == 1.0

    def test_disjoint(self):
        assert step_hit_ratio(frozenset({50, 60}), AudioSpan(0, 10), 2) == 0.0


def trace_with_rows(rows_per_step, a0=0, n_audio=4, duration=1.0, texts=None):
    steps = []
    for t, rows in enumerate(rows_per_step):
        arr = np.asarray(rows, dtype=np.float64)
        arr = arr / arr.sum(axis=-1, keepdims=True)
        steps.append(
            DecodingStep(
                step_index=t,
                generated_token_text=(texts[t] if texts else f" w{t}"),
                attention=arr.astype(np.float32),
            )
        )
    return AttentionTrace(
        num_layers=steps[0].attention.shape[0],
        num_heads=steps[0].attention.shape[1],
        steps=tuple(steps),
        audio_start=a0,
        num_audio_tokens=n_audio,
        total_duration_s=duration,
    )


class TestScoreHeads:
    def test_default_top_k(self):
        assert TopKConfig().k == 24

    def test_mean_of_per_step_hit_ratios(self):
        # one head, k=2; word 0 spans the whole audio prefix [0, 3]
        # step 0 row puts top-2 inside the span (ratio 1.0)
        # step 1 row puts one of top-2 inside (ratio 0.5)
        rows = [
            [[[0.4, 0.4, 0.1, 0.05, 0.05]]],
            [[[0.4, 0.05, 0.05, 0.05, 0.0, 0.45]]],
        ]
        trace = trace_with_rows(rows, a0=0, n_audio=4, duration=1.0)
        words = [WordAlignment("w", 0.0, 1.0, 0.99)]
        mapping = WordStepMap(entries=((0, frozenset({0, 1})),))
        matrix = score_heads(trace, words, mapping, TopKConfig(k=2))
        assert matrix.num_samples == 2
        assert matrix.scores[0, 0] == pytest.approx(0.75)

    def test_empty_map_gives_zero_matrix(self):
        trace = trace_with_rows([[[[0.5, 0.5]]]])
        matrix = score_heads(trace, [], WordStepMap(entries=()), TopKConfig(k=1))
        assert matrix.num_samples == 0
        assert np.all(matrix.scores == 0.0)

    def test_matches_scalar_composition(self):
        rng = np.random.default_rng(3)
        rows = [rng.random((2, 3, 8 + t)) for t in range(4)]
        trace = trace_with_rows(rows, a0=1, n_audio=5, duration=2.0)
        words = [WordAlignment("a", 0.0, 1.0, 0.99), WordAlignment("b", 1.0, 2.0, 0.99)]
        mapping = WordStepMap(entries=((0, frozenset({0, 1})), (1, frozenset({2, 3}))))
        matrix = score_heads(trace, words, mapping, TopKConfig(k=3))

        for layer in range(2):
            for head in range(3):
                total = 0.0
                for wi, step_ids in mapping.entries:
                    span = word_to_audio_span(words[wi], trace)
                    for t in sorted(step_ids):
                        row = trace.steps[t].attention[layer, head]
                        total += step_hit_ratio(topk_indices(row, 3), span, 3)
                assert matrix.scores[layer, head] == pytest.approx(total / 4)

    def test_rescaling_a_row_does_not_change_scores(self):
        rng = np.random.default_rng(4)
        rows = [rng.random((1, 2, 10))]
        trace = trace_with_rows(rows, a0=0, n_audio=6)
        words = [WordAlignment("w", 0.0, 1.0, 0.99)]
        mapping = WordStepMap(entries=((0, frozenset({0})),))
        base = score_heads(trace, words, mapping, TopKConfig(k=4))
        # rescale head 1's row by a positive constant before normalization
        scaled_rows = [rows[0].copy()]
        scaled_rows[0][0, 1] *= 9.0
        scaled = trace_with_rows(scaled_rows, a0=0, n_audio=6)
        again = score_heads(scaled, words, mapping, TopKConfig(k=4))
        assert np.allclose(base.scores, again.scores)


@st.composite
def tie_heavy_scoring(draw):
    """A trace whose rows take 1-4 distinct values, words, a step map and k."""
    layers, heads = draw(st.integers(1, 2)), draw(st.integers(1, 3))
    first = draw(st.integers(1, 12))
    growth = draw(st.sets(st.integers(0, 8), min_size=1, max_size=4))
    contexts = [first + grow for grow in sorted(growth)]
    a0 = draw(st.integers(0, first - 1))
    n_audio = draw(st.integers(1, first - a0))
    levels = st.sampled_from([0.0, 0.125, 0.25, 0.5, 1.0])
    values = st.sampled_from(draw(st.lists(levels, min_size=1, max_size=4, unique=True)))
    steps = []
    for t, context in enumerate(contexts):
        rows = draw(arrays(np.float32, (layers, heads, context), elements=values))
        if draw(st.booleans()):  # an all-equal row
            rows[draw(st.integers(0, layers - 1)), draw(st.integers(0, heads - 1))] = rows.flat[0]
        steps.append(DecodingStep(step_index=t, generated_token_text="", attention=rows))
    trace = AttentionTrace(
        num_layers=layers,
        num_heads=heads,
        steps=tuple(steps),
        audio_start=a0,
        num_audio_tokens=n_audio,
        total_duration_s=1.0,
    )
    # Times on a grid that includes 0 and the full duration, so spans touch
    # the first and the last audio token.
    times = st.sampled_from([0.0, 0.2, 0.5, 0.7, 1.0])
    words = [WordAlignment("w", *sorted(draw(st.tuples(times, times))), 0.99) for _ in range(3)]
    owners = st.sampled_from([None, 0, 1, 2])
    owner = draw(st.lists(owners, min_size=len(steps), max_size=len(steps)))
    entries = tuple(
        (w, frozenset(t for t, o in enumerate(owner) if o == w))
        for w in range(3)
        if w in owner
    )
    k = draw(st.integers(1, contexts[-1] + 3))
    return trace, words, WordStepMap(entries=entries), k


@settings(max_examples=200, deadline=None)
@given(tie_heavy_scoring())
def test_score_heads_equals_per_row_oracle(case):
    trace, words, mapping, k = case
    matrix = score_heads(trace, words, mapping, TopKConfig(k=k))
    totals = np.zeros((trace.num_layers, trace.num_heads))
    for word_index, step_ids in mapping.entries:
        span = word_to_audio_span(words[word_index], trace)
        for t in sorted(step_ids):
            for layer, head in np.ndindex(trace.num_layers, trace.num_heads):
                row = trace.steps[t].attention[layer, head]
                totals[layer, head] += step_hit_ratio(topk_indices(row, k), span, k)
    samples = len(mapping.aligned_steps())
    assert matrix.num_samples == samples
    assert np.array_equal(matrix.scores, totals / samples if samples else totals)


class TestScoreIo:
    def test_roundtrip(self, tmp_path):
        matrix = HeadScoreMatrix(scores=np.array([[0.5, 0.25], [0.0, 1.0]]), num_samples=9)
        path = tmp_path / "scores.json"
        save_scores(matrix, path)
        loaded = load_scores(path)
        assert loaded.num_samples == 9
        assert np.array_equal(loaded.scores, matrix.scores)


class TestSpecializedFixtureRecovery:
    def test_planted_heads_dominate_and_histogram_is_bimodal(self):
        fixture = generate_fixture("specialized-heads", 11)
        words = filter_words(fixture.words, 0.95)
        mapping = align_generated_to_words(list(fixture.trace.steps), words)
        matrix = score_heads(fixture.trace, words, mapping, TopKConfig(24))
        flat = matrix.scores.reshape(-1)
        planted_flat = {l * fixture.trace.num_heads + h for l, h in fixture.planted_heads}
        top_decile = set(np.argsort(-flat)[: len(planted_flat)].tolist())
        assert top_decile == planted_flat
        planted_scores = flat[sorted(planted_flat)]
        background = np.delete(flat, sorted(planted_flat))
        assert planted_scores.min() - background.max() >= 0.5
