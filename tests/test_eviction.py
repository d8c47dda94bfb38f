import json
from pathlib import Path

import numpy as np
import pytest

from audiokv.budget import AllocationMode, BudgetPlan
from audiokv.errors import CapacityBelowRecentError, DimensionMismatchError, FormatError
from audiokv.eviction import (
    POLICIES,
    ObservationWindow,
    Policy,
    build_observation_window,
    select,
    select_adakv,
    select_audiokv,
    select_h2o,
    select_snapkv,
)
from audiokv.fixtures import generate_fixture
from audiokv.spectral import SssConfig
from audiokv.trace import AttentionTrace, DecodingStep


def trace_from_rows(rows_per_step, a0=0, n_audio=2):
    steps = []
    for t, rows in enumerate(rows_per_step):
        arr = np.asarray(rows, dtype=np.float64)
        arr = arr / arr.sum(axis=-1, keepdims=True)
        steps.append(
            DecodingStep(step_index=t, generated_token_text="", attention=arr.astype(np.float32))
        )
    return AttentionTrace(
        num_layers=steps[0].attention.shape[0],
        num_heads=steps[0].attention.shape[1],
        steps=tuple(steps),
        audio_start=a0,
        num_audio_tokens=n_audio,
        total_duration_s=1.0,
    )


def window_from_scores(scores):
    arr = np.asarray(scores, dtype=np.float64)
    if arr.ndim == 1:
        arr = arr[None, None, :]
    return ObservationWindow(width=1, aggregated=arr)


def uniform_plan(layers, heads, capacity, window=0):
    return BudgetPlan(
        capacities=np.full((layers, heads), capacity, dtype=np.int64),
        window=window,
        base=0,
        global_budget=capacity * layers * heads,
        mode="uniform",
    )


class TestObservationWindow:
    def test_width_one_is_final_step_verbatim(self):
        rows = [[[[1.0, 0.0]]], [[[0.2, 0.3, 0.5]]]]
        trace = trace_from_rows(rows)
        window = build_observation_window(trace, 1)
        assert np.allclose(window.aggregated[0, 0], [0.2, 0.3, 0.5])

    def test_mean_with_zero_padding(self):
        rows = [[[[1.0, 0.0]]], [[[0.0, 0.5, 0.5]]]]
        trace = trace_from_rows(rows)
        window = build_observation_window(trace, 2)
        assert np.allclose(window.aggregated[0, 0], [0.5, 0.25, 0.25])

    def test_constant_rows_mean_equals_any_row(self):
        row = np.array([0.25, 0.25, 0.25, 0.25])
        rows = [[[row]], [[np.append(row * 0.8, 0.2)]]]
        trace = trace_from_rows([[[row.tolist()]]] * 1)
        window = build_observation_window(trace, 1)
        assert np.allclose(window.aggregated[0, 0], row)

    def test_width_clamped_to_available_steps(self):
        rows = [[[[1.0, 0.0]]], [[[0.0, 0.5, 0.5]]]]
        trace = trace_from_rows(rows)
        window = build_observation_window(trace, 99)
        assert window.width == 2


class TestSelectAudiokv:
    def test_full_capacity_retains_everything(self):
        window = window_from_scores([0.1, 0.2, 0.3, 0.4])
        plan = uniform_plan(1, 1, 4)
        result = select_audiokv(window, plan, None, recent=1)
        assert result.retained[0][0].tolist() == [0, 1, 2, 3]

    def test_recent_window_always_kept(self):
        window = window_from_scores([0.9, 0.8, 0.0, 0.0])
        plan = uniform_plan(1, 1, 3)
        result = select_audiokv(window, plan, None, recent=2)
        assert set(result.retained[0][0].tolist()) >= {2, 3}

    def test_capacity_below_recent_raises(self):
        window = window_from_scores([0.5, 0.5])
        plan = uniform_plan(1, 1, 1)
        with pytest.raises(CapacityBelowRecentError):
            select_audiokv(window, plan, None, recent=2)

    def test_tie_break_toward_lower_index(self):
        window = window_from_scores([0.25, 0.25, 0.25, 0.25, 0.0])
        plan = uniform_plan(1, 1, 3)
        result = select_audiokv(window, plan, None, recent=1)
        assert result.retained[0][0].tolist() == [0, 1, 4]

    def test_smoothing_favors_plateau_over_spike_cluster(self):
        # narrow tall cluster at 10..14 vs broad moderate plateau at 40..80
        scores = np.full(100, 0.01)
        scores[10:15] = 0.4
        scores[40:81] = 0.3
        scores[40:81] += 0.002 * np.cos(np.arange(41))  # mild deterministic ripple
        window = window_from_scores(scores)
        plan = uniform_plan(1, 1, 20)
        raw = select_audiokv(window, plan, None, recent=12)
        smoothed = select_audiokv(
            window, plan, SssConfig(cutoff_ratio=0.7, mix_alpha=0.5), recent=12
        )

        def plateau_count(result):
            kept = result.retained[0][0]
            return int(np.sum((kept >= 40) & (kept <= 80)))

        # frozen from running both branches: raw keeps the spike cluster,
        # smoothing reallocates those slots onto the plateau
        assert plateau_count(raw) == 3
        assert plateau_count(smoothed) == 8
        assert plateau_count(smoothed) >= 8
        assert plateau_count(raw) <= 3


class TestSelectSnapkv:
    def test_pool_width_one_is_pure_topk(self):
        window = window_from_scores([0.05, 0.6, 0.05, 0.1, 0.2])
        result = select_snapkv(window, capacity_per_head=2, pool_width=1, recent=1)
        assert result.retained[0][0].tolist() == [1, 4]

    def test_impulse_pooling_promotes_neighbors(self):
        scores = np.zeros(20)
        scores[9] = 1.0
        window = window_from_scores(scores)
        result = select_snapkv(window, capacity_per_head=4, pool_width=3, recent=1)
        assert result.retained[0][0].tolist() == [8, 9, 10, 19]

    def test_full_capacity(self):
        window = window_from_scores([0.2, 0.3, 0.5])
        result = select_snapkv(window, capacity_per_head=3, pool_width=1, recent=1)
        assert result.retained[0][0].tolist() == [0, 1, 2]

    def test_context_shorter_than_pool_width_stays_in_range(self):
        # Every position's window covers the whole row, so all pooled scores tie.
        window = window_from_scores([0.1, 0.5, 0.2])
        result = select_snapkv(window, capacity_per_head=2, pool_width=7, recent=1)
        assert result.retained[0][0].tolist() == [0, 2]

    def test_even_pool_width_rejected(self):
        window = window_from_scores([0.5, 0.5])
        with pytest.raises(ValueError):
            select_snapkv(window, 2, pool_width=4, recent=1)


class TestSelectH2o:
    def test_single_step_equals_topk_plus_recent(self):
        rows = [[[[0.1, 0.6, 0.1, 0.2]]]]
        trace = trace_from_rows(rows)
        result = select_h2o(trace, capacity_per_head=2, recent=1)
        assert result.retained[0][0].tolist() == [1, 3]

    def test_persistent_heavy_hitter_always_retained(self):
        rows = []
        for t in range(5):
            row = np.full(6 + t, 0.1 / (5 + t))
            row[2] = 0.9
            rows.append([[row.tolist()]])
        trace = trace_from_rows(rows)
        for capacity in (2, 3, 5):
            result = select_h2o(trace, capacity_per_head=capacity, recent=1)
            assert 2 in result.retained[0][0].tolist()

    def test_full_capacity(self):
        rows = [[[[0.25, 0.25, 0.25, 0.25]]]]
        trace = trace_from_rows(rows)
        result = select_h2o(trace, capacity_per_head=4, recent=1)
        assert result.retained[0][0].tolist() == [0, 1, 2, 3]


class TestSelectAdakv:
    def test_identical_heads_share_evenly(self):
        base = np.array([0.5, 0.3, 0.15, 0.05, 0.0, 0.0])
        window = ObservationWindow(width=1, aggregated=np.stack([base, base])[None])
        result = select_adakv(window, layer_budget=8, recent=1)
        counts = [len(result.retained[0][h]) for h in range(2)]
        assert counts == [4, 4]

    def test_dominant_head_takes_the_pool(self):
        weak = np.array([0.1, 0.1, 0.1, 0.1, 0.1])
        strong = weak * 10
        window = ObservationWindow(width=1, aggregated=np.stack([strong, weak])[None])
        result = select_adakv(window, layer_budget=6, recent=1)
        assert len(result.retained[0][0]) == 5  # 4 pooled + recent
        assert len(result.retained[0][1]) == 1  # recent only

    def test_full_layer_budget_retains_all(self):
        base = np.array([0.4, 0.3, 0.2, 0.1])
        window = ObservationWindow(width=1, aggregated=np.stack([base, base])[None])
        result = select_adakv(window, layer_budget=8, recent=1)
        for h in range(2):
            assert result.retained[0][h].tolist() == [0, 1, 2, 3]

    def test_budget_below_recent_raises(self):
        base = np.array([0.5, 0.5])
        window = ObservationWindow(width=1, aggregated=np.stack([base, base])[None])
        with pytest.raises(CapacityBelowRecentError):
            select_adakv(window, layer_budget=3, recent=2)


    def test_one_budget_per_layer_equals_each_layer_alone(self):
        rng = np.random.default_rng(8)
        window = ObservationWindow(width=1, aggregated=rng.random((3, 2, 9)))
        budgets = np.array([6, 11, 18])
        result = select_adakv(window, budgets, recent=2)
        for layer, budget in enumerate(budgets):
            alone = ObservationWindow(width=1, aggregated=window.aggregated[layer : layer + 1])
            assert np.array_equal(result.mask[layer], select_adakv(alone, int(budget), 2).mask[0])


def test_readme_policy_table_is_the_policy_table():
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    lines = readme[readme.index("| name | plan mode | selector | SSS |") :].splitlines()
    table = {}
    for line in lines[2:]:
        if not line.startswith("|"):
            break
        name, mode, selector, sss = (cell.strip().strip("`") for cell in line.strip("|").split("|"))
        table[name] = Policy(AllocationMode(mode), selector, {"yes": True, "no": False}[sss])
    assert table == POLICIES


class TestSelect:
    def setup_method(self):
        fixture = generate_fixture("spike-plateau", 0)
        self.trace = fixture.trace.prefix(32)
        self.window = build_observation_window(self.trace, 32)
        layers, heads = self.window.shape
        capacities = 40 + 10 * np.arange(layers * heads).reshape(layers, heads)
        self.plan = BudgetPlan(capacities, 32, 0, int(capacities.sum()), "combined")

    def run(self, name, plan=None):
        policy = POLICIES[name]
        sss_cfg = SssConfig() if policy.smooth else None
        plan = self.plan if plan is None else plan
        return select(name, policy.selector, self.window, plan, sss_cfg, 32, 7)

    @pytest.mark.parametrize("name", list(POLICIES))
    def test_result_is_named_and_spends_the_plan(self, name):
        result = self.run(name)
        assert result.policy_name == name
        kept = result.mask.sum(axis=-1)
        if POLICIES[name].selector == "adakv":
            assert np.array_equal(kept.sum(axis=1), self.plan.capacities.sum(axis=1))
        else:
            assert np.array_equal(kept, self.plan.capacities)

    @pytest.mark.parametrize("name", list(POLICIES))
    def test_plan_of_other_shape_raises(self, name):
        plan = uniform_plan(1, 1, 64, window=32)
        with pytest.raises(DimensionMismatchError):
            self.run(name, plan)


class TestPolicyLaws:
    def policies_on(self, fixture_seed=0):
        fixture = generate_fixture("spike-plateau", fixture_seed)
        trace = fixture.trace.prefix(32)
        window = build_observation_window(trace, 32)
        layers, heads = window.shape
        capacity = int(0.3 * window.context_length)
        plan = uniform_plan(layers, heads, capacity, window=32)
        return {
            "audiokv": select_audiokv(window, plan, SssConfig(), recent=32),
            "audiokv-nosss": select_audiokv(window, plan, None, recent=32),
            "snapkv": select_snapkv(window, capacity, 7, recent=32),
            "h2o": select_h2o(trace, capacity, recent=32),
            "adakv": select_adakv(window, capacity * heads, recent=32),
        }, capacity, window.context_length

    def test_capacity_law(self):
        results, capacity, context = self.policies_on()
        for name, result in results.items():
            layers, heads = result.shape
            total = sum(len(result.retained[l][h]) for l in range(layers) for h in range(heads))
            if name == "adakv":
                assert total <= capacity * heads * layers
            else:
                for l in range(layers):
                    for h in range(heads):
                        assert len(result.retained[l][h]) == min(capacity, context)

    def test_recency_law(self):
        results, capacity, context = self.policies_on()
        recent = set(range(context - 32, context))
        for result in results.values():
            layers, heads = result.shape
            for l in range(layers):
                for h in range(heads):
                    assert recent <= set(result.retained[l][h].tolist())

    def test_determinism(self):
        first, _, _ = self.policies_on()
        second, _, _ = self.policies_on()
        for name in first:
            a, b = first[name], second[name]
            for l in range(a.shape[0]):
                for h in range(a.shape[1]):
                    assert np.array_equal(a.retained[l][h], b.retained[l][h])

    def test_indices_unique_sorted_and_in_range(self):
        results, _, context = self.policies_on()
        for result in results.values():
            for layer in result.retained:
                for kept in layer:
                    assert np.all(np.diff(kept) > 0)
                    assert kept[0] >= 0 and kept[-1] < context


class TestDegeneracy:
    def test_uniform_plan_without_smoothing_equals_snapkv_pool1(self):
        for seed in range(3):
            fixture = generate_fixture("spike-plateau", seed)
            trace = fixture.trace.prefix(32)
            window = build_observation_window(trace, 32)
            layers, heads = window.shape
            capacity = int(0.4 * window.context_length)
            plan = uniform_plan(layers, heads, capacity, window=32)
            audiokv = select_audiokv(window, plan, None, recent=32)
            snapkv = select_snapkv(window, capacity, pool_width=1, recent=32)
            for l in range(layers):
                for h in range(heads):
                    assert np.array_equal(audiokv.retained[l][h], snapkv.retained[l][h])


class TestResultIo:
    def test_roundtrip_of_retained_sets(self, tmp_path):
        from audiokv.eviction import load_result, save_result

        window = window_from_scores([0.1, 0.4, 0.2, 0.3])
        plan = uniform_plan(1, 1, 3)
        result = select_audiokv(window, plan, None, recent=1)
        path = tmp_path / "result.json"
        save_result(result, path)
        loaded = load_result(path)
        assert loaded.policy_name == result.policy_name
        assert loaded.context_length == result.context_length
        assert np.array_equal(loaded.retained[0][0], result.retained[0][0])

    def test_undecodable_file_raises_format_error(self, tmp_path):
        from audiokv.eviction import load_result

        path = tmp_path / "result.json"
        path.write_bytes(b"\xff\xfe{}")
        with pytest.raises(FormatError, match="UnicodeDecodeError"):
            load_result(path)

    @pytest.mark.parametrize(
        "payload",
        [
            {"policy": "p", "context_length": 4},
            {"policy": "p", "context_length": "four", "retained": [[[0, 1]]]},
            {"policy": "p", "context_length": 4, "retained": 7},
            {"policy": "p", "context_length": 4, "retained": [[["a"]]]},
            {"policy": "p", "context_length": 4, "retained": [[[-1, 2]]]},
            {"policy": "p", "context_length": 4, "retained": [[[0, 4]]]},
            {"policy": "p", "context_length": 4, "retained": [[[2, 1]]]},
            {"policy": "p", "context_length": 4, "retained": [[[1, 1]]]},
            {"policy": "p", "context_length": 4, "retained": [[[0], [1]], [[0]]]},
            {"policy": "p", "context_length": 4, "retained": [[[[0, 1], [2, 3]]]]},
            {"policy": "p", "context_length": 4, "retained": [[[0, 1.5]]]},
            {"policy": "p", "context_length": 4, "retained": []},
            {"policy": "p", "context_length": float("inf"), "retained": [[[0]]]},
            {"policy": "p", "context_length": 5.7, "retained": [[[0, 4]]]},
            {"policy": "p", "context_length": True, "retained": [[[0]]]},
        ],
        ids=[
            "missing-retained",
            "context-not-int",
            "retained-not-nested",
            "index-not-int",
            "index-negative",
            "index-at-context",
            "indices-unsorted",
            "indices-repeated",
            "ragged-layers",
            "head-not-flat",
            "index-not-integral",
            "no-layers",
            "context-infinite",
            "context-fractional",
            "context-bool",
        ],
    )
    def test_malformed_file_raises_format_error(self, tmp_path, payload):
        from audiokv.eviction import load_result

        path = tmp_path / "result.json"
        path.write_text(json.dumps(payload))
        with pytest.raises(FormatError):
            load_result(path)
