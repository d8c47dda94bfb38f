import hashlib
import json

import numpy as np
import pytest

from audiokv.fixtures import PROFILES, generate_fixture
from audiokv.heads import TopKConfig, score_heads
from audiokv.trace import align_generated_to_words, filter_words, validate_trace


class TestDeterminism:
    @pytest.mark.parametrize("profile", PROFILES)
    def test_same_seed_same_trace(self, profile):
        a = generate_fixture(profile, 42)
        b = generate_fixture(profile, 42)
        assert a.words == b.words
        for sa, sb in zip(a.trace.steps, b.trace.steps):
            assert np.array_equal(sa.attention, sb.attention)
            assert sa.generated_token_text == sb.generated_token_text

    def test_different_seeds_differ(self):
        a = generate_fixture("spike-plateau", 1)
        b = generate_fixture("spike-plateau", 2)
        assert not np.array_equal(a.trace.steps[0].attention, b.trace.steps[0].attention)

    def test_unknown_profile_rejected(self):
        with pytest.raises(ValueError):
            generate_fixture("nope", 0)


def fixture_digest(fixture):
    """sha256 of every step's attention bytes and token text, the trace
    geometry, the words and the planted heads."""
    trace = fixture.trace
    h = hashlib.sha256()
    h.update(
        repr(
            (fixture.profile, fixture.seed, trace.num_layers, trace.num_heads,
             trace.audio_start, trace.num_audio_tokens, trace.total_duration_s)
        ).encode()
    )
    for step in trace.steps:
        attention = step.attention
        h.update(
            repr((step.step_index, step.generated_token_text, attention.dtype.str,
                  attention.shape)).encode()
        )
        h.update(attention.tobytes())
    words = [[w.text, w.t_start, w.t_end, w.confidence] for w in fixture.words]
    h.update(json.dumps(words).encode())
    h.update(json.dumps(fixture.planted_heads).encode())
    return h.hexdigest()


# Any change to a step's float32 attention (a changed draw order, say), to a
# token text or to the words moves these; every test and demo that reads a
# fixture depends on them staying put.
PINNED_DIGESTS = {
    ("specialized-heads", 0): "6b47ddb4f65ba6508b5b0c44823cbd738fe16d7638cdd273d76270cd2d8c83c4",
    ("specialized-heads", 7): "5baa263cd9e9054cfd9800a9e9d1ae35d9015d9f13170be76ac04e0ae4ff36ef",
    ("spike-plateau", 0): "1174342625eee1922178b8f49503ea5ffe591c3d49a4d6bf4f861e70ccb1a56d",
    ("spike-plateau", 7): "25d334d7ca52936c3b138478e4a59edb3d4c0ded25ce297ee42380060a572a04",
    ("uniform", 0): "a1654d012043c1395c14d1c31eb66fd046b997f67f76ee9a6f5284cd67587cb9",
    ("uniform", 7): "fcb311ba052543766541a1158bac919daec89f747661a6e695f5b10e1d7b2efd",
}


@pytest.mark.parametrize("profile, seed", sorted(PINNED_DIGESTS))
def test_fixture_bytes_are_pinned(profile, seed):
    assert fixture_digest(generate_fixture(profile, seed)) == PINNED_DIGESTS[profile, seed]


class TestTraceValidity:
    @pytest.mark.parametrize("profile", PROFILES)
    def test_generated_traces_satisfy_all_invariants(self, profile):
        fixture = generate_fixture(profile, 7)
        validate_trace(fixture.trace)

    def test_generated_text_aligns_to_every_confident_word(self):
        fixture = generate_fixture("spike-plateau", 3)
        words = filter_words(fixture.words, 0.95)
        mapping = align_generated_to_words(list(fixture.trace.steps), words)
        assert len(mapping) == len(words)
        # every word's steps are contiguous and cover split sub-tokens
        for _, step_ids in mapping.entries:
            ids = sorted(step_ids)
            assert ids == list(range(ids[0], ids[-1] + 1))

    def test_confidence_filter_is_exercised(self):
        fixture = generate_fixture("specialized-heads", 5)
        kept = filter_words(fixture.words, 0.95)
        assert 0 < len(kept) < len(fixture.words)


class TestProfileContracts:
    def scores_for(self, fixture, k=24):
        words = filter_words(fixture.words, 0.95)
        mapping = align_generated_to_words(list(fixture.trace.steps), words)
        return score_heads(fixture.trace, words, mapping, TopKConfig(k))

    def test_uniform_profile_scores_within_band(self):
        for seed in (0, 9):
            fixture = generate_fixture("uniform", seed)
            matrix = self.scores_for(fixture)
            assert matrix.scores.max() - matrix.scores.min() < 0.05
            assert fixture.planted_heads == ()

    def test_specialized_profile_plants_ten_percent(self):
        fixture = generate_fixture("specialized-heads", 0)
        total = fixture.trace.num_layers * fixture.trace.num_heads
        assert len(fixture.planted_heads) / total == pytest.approx(0.10)

    def test_spike_plateau_planted_heads_outscore_locals(self):
        for seed in (0, 4):
            fixture = generate_fixture("spike-plateau", seed)
            matrix = self.scores_for(fixture)
            planted = [matrix.scores[l, h] for l, h in fixture.planted_heads]
            locals_ = [
                matrix.scores[l, h]
                for l in range(matrix.shape[0])
                for h in range(matrix.shape[1])
                if (l, h) not in fixture.planted_heads
            ]
            assert min(planted) > max(locals_)
