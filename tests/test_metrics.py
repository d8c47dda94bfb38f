import numpy as np
import pytest

from audiokv.budget import BudgetPlan
from audiokv.errors import CapacityBelowRecentError, DimensionMismatchError, HorizonError
from audiokv.eviction import (
    EvictionResult,
    ObservationWindow,
    build_observation_window,
    select,
    select_snapkv,
)
from audiokv.fixtures import generate_fixture
from audiokv.heads import TopKConfig, score_heads
from audiokv.metrics import (
    COMPARE_GRID,
    KvGeometry,
    PolicySpec,
    RetentionReport,
    aggregate_future_attention,
    compare_grid,
    coverage_entropy,
    eviction_boundary,
    memory_footprint,
    oracle_overlap,
    reports_to_csv,
    retained_mass,
    run_comparison,
    write_reports,
)
from audiokv.spectral import SssConfig
from audiokv.trace import AttentionTrace, DecodingStep, align_generated_to_words, filter_words


def result_of(retained, context, policy="test"):
    mask = np.zeros((len(retained), len(retained[0]), context), dtype=bool)
    for layer, row in enumerate(retained):
        for head, kept in enumerate(row):
            mask[layer, head, np.asarray(kept, dtype=np.int64)] = True
    return EvictionResult(policy_name=policy, mask=mask)


def trace_from_rows(rows_per_step):
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
        audio_start=0,
        num_audio_tokens=2,
        total_duration_s=1.0,
    )


class TestOracleOverlap:
    def test_exact_match_scores_one(self):
        rows = [
            [[[0.25, 0.25, 0.25, 0.25]]],
            [[[0.7, 0.1, 0.1, 0.05, 0.05]]],
        ]
        trace = trace_from_rows(rows)
        result = result_of([[[0]]], context=4)
        assert oracle_overlap(result, trace, horizon=1) == 1.0

    def test_disjoint_scores_zero(self):
        rows = [
            [[[0.25, 0.25, 0.25, 0.25]]],
            [[[0.0, 0.0, 0.0, 0.9, 0.1]]],
        ]
        trace = trace_from_rows(rows)
        result = result_of([[[0]]], context=4)
        assert oracle_overlap(result, trace, horizon=1) == 0.0

    def test_hand_computed_half_overlap(self):
        # future mass ranks indices [0, 3] on top; retaining {0, 1} overlaps half
        rows = [
            [[[0.25, 0.25, 0.25, 0.25]]],
            [[[0.4, 0.05, 0.05, 0.4, 0.1]]],
            [[[0.3, 0.0, 0.1, 0.5, 0.05, 0.05]]],
        ]
        trace = trace_from_rows(rows)
        result = result_of([[[0, 1]]], context=4)
        assert oracle_overlap(result, trace, horizon=2) == pytest.approx(0.5)

    def test_no_future_steps_raises(self):
        rows = [[[[0.5, 0.5]]]]
        trace = trace_from_rows(rows)
        result = result_of([[[0]]], context=2)
        with pytest.raises(HorizonError):
            oracle_overlap(result, trace, horizon=1)


class TestRetainedMass:
    def test_everything_retained_is_one(self):
        window = ObservationWindow(width=1, aggregated=np.array([[[0.2, 0.3, 0.5]]]))
        result = result_of([[[0, 1, 2]]], context=3)
        assert retained_mass(result, window) == 1.0

    def test_zero_scores_defined_as_one(self):
        window = ObservationWindow(width=1, aggregated=np.zeros((1, 1, 4)))
        result = result_of([[[1]]], context=4)
        assert retained_mass(result, window) == 1.0

    def test_window_narrower_than_the_result_raises(self):
        window = ObservationWindow(width=1, aggregated=np.full((1, 2, 4), 0.25))
        result = EvictionResult("p", np.ones((1, 2, 6), dtype=bool))
        with pytest.raises(DimensionMismatchError):
            retained_mass(result, window)

    def test_matches_direct_summation(self):
        rng = np.random.default_rng(0)
        agg = rng.random((2, 3, 10))
        window = ObservationWindow(width=1, aggregated=agg)
        retained = [
            [np.sort(rng.choice(10, size=4, replace=False)) for _ in range(3)]
            for _ in range(2)
        ]
        result = result_of(retained, context=10)
        expected = np.mean(
            [
                agg[l, h][retained[l][h]].sum() / agg[l, h].sum()
                for l in range(2)
                for h in range(3)
            ]
        )
        assert retained_mass(result, window) == pytest.approx(expected)


class TestCoverageEntropy:
    def test_uniform_over_buckets_is_log_bins(self):
        context = 100
        result = result_of([[list(range(0, 100, 10))]], context=context)
        assert coverage_entropy(result, bins=10) == pytest.approx(np.log(10))

    def test_single_bucket_is_zero(self):
        result = result_of([[[0, 1, 2, 3]]], context=100)
        assert coverage_entropy(result, bins=10) == 0.0

    def test_matches_hand_computed_histogram(self):
        # 6 indices in bucket 0, 2 in bucket 5 of [0, 100) with 10 buckets
        indices = [0, 1, 2, 3, 4, 5, 50, 51]
        result = result_of([[indices]], context=100)
        p = np.array([6 / 8, 2 / 8])
        assert coverage_entropy(result, bins=10) == pytest.approx(float(-(p * np.log(p)).sum()))


class TestMemoryFootprint:
    def test_empty_retention(self):
        result = result_of([[[]]], context=10)
        assert memory_footprint(result, KvGeometry(head_dim=64, bytes_per_element=2)) == 0

    def test_direct_product(self):
        result = result_of([[list(range(100))]], context=100)
        geom = KvGeometry(head_dim=64, bytes_per_element=2)
        assert memory_footprint(result, geom) == 100 * 2 * 64 * 2

    def test_linear_in_retained_count(self):
        geom = KvGeometry(head_dim=32, bytes_per_element=4)
        full = result_of([[list(range(100))]], context=100)
        partial = result_of([[list(range(40))]], context=100)
        assert memory_footprint(full, geom) == 2.5 * memory_footprint(partial, geom)


class TestRunComparison:
    def uniform_plan(self, layers, heads, capacity):
        return BudgetPlan(
            capacities=np.full((layers, heads), capacity, dtype=np.int64),
            window=8,
            base=0,
            global_budget=capacity * layers * heads,
            mode="uniform",
        )

    def test_empty_policy_list(self):
        fixture = generate_fixture("spike-plateau", 0)
        assert run_comparison(fixture.trace, [], [], KvGeometry()) == []

    def test_full_budget_reaches_perfect_scores(self):
        fixture = generate_fixture("spike-plateau", 0)
        trace = fixture.trace
        context = trace.steps[31].context_length
        plan = self.uniform_plan(trace.num_layers, trace.num_heads, context)
        reports = run_comparison(
            trace,
            [PolicySpec(name="full", selector="audiokv")],
            [plan],
            KvGeometry(),
            observation_width=32,
            recent=32,
        )
        assert len(reports) == 1
        assert reports[0].oracle_overlap == 1.0
        assert reports[0].mass_retained == 1.0
        assert reports[0].retention_ratio == 1.0

    def test_mismatched_lengths_rejected(self):
        fixture = generate_fixture("spike-plateau", 0)
        with pytest.raises(ValueError):
            run_comparison(fixture.trace, [PolicySpec(name="x")], [], KvGeometry())

    def test_plan_for_other_heads_raises_dimension_mismatch(self):
        fixture = generate_fixture("spike-plateau", 0)
        plan = self.uniform_plan(1, 1, 300)
        message = r"window heads \(2, 4\) != plan heads \(1, 1\)"
        with pytest.raises(DimensionMismatchError, match=message):
            run_comparison(fixture.trace, [PolicySpec(name="x")], [plan], KvGeometry())

    def test_plans_of_mixed_shapes_raise_dimension_mismatch(self):
        # Plans that cannot be stacked fail the dimension check, not numpy's stacking.
        fixture = generate_fixture("spike-plateau", 0)
        plans = [self.uniform_plan(2, 4, 300), self.uniform_plan(2, 3, 300)]
        policies = [PolicySpec(name="a"), PolicySpec(name="b", sss=SssConfig())]
        with pytest.raises(DimensionMismatchError, match=r"\(2, 4\) != plan heads \(2, 3\)"):
            run_comparison(fixture.trace, policies, plans, KvGeometry())

    def test_capacity_error_names_the_first_failing_row(self):
        # Row 1 fails first, in its own SSS group; row 2 shares row 0's SSS
        # and holds a lower capacity, which must not be the one named.
        fixture = generate_fixture("spike-plateau", 0)
        plans = [self.uniform_plan(2, 4, 300), self.uniform_plan(2, 4, 300),
                 self.uniform_plan(2, 4, 300)]
        plans[1].capacities[1, 2] = 20
        plans[2].capacities[0, 0] = 10
        policies = [PolicySpec(name="a", sss=SssConfig()), PolicySpec(name="b"),
                    PolicySpec(name="c", sss=SssConfig())]
        with pytest.raises(CapacityBelowRecentError, match=r"^capacity 20 < recent window 32$"):
            run_comparison(fixture.trace, policies, plans, observation_width=32, recent=32)

    def test_rows_on_other_selectors_match_their_own_select(self):
        # Rows off the audiokv selector run through `select` and join the
        # stack between the batched rows; each report is its row's alone.
        fixture = generate_fixture("spike-plateau", 3)
        trace = fixture.trace
        context = trace.steps[31].context_length
        plans = [self.uniform_plan(2, 4, int(r * context)) for r in (0.4, 0.6, 0.8, 0.5, 0.7)]
        policies = [PolicySpec("a", "snapkv"), PolicySpec("b", sss=SssConfig()),
                    PolicySpec("c", "h2o"), PolicySpec("d", "adakv"), PolicySpec("e")]
        reports = run_comparison(trace, policies, plans, observation_width=32, recent=32)
        obs_trace = trace.prefix(32)
        window = build_observation_window(obs_trace, 32)
        horizon = trace.num_steps - 32
        future = aggregate_future_attention(trace, 31, horizon, context)
        expected = []
        for policy, plan in zip(policies, plans):
            result = select(policy.name, policy.selector, window, plan, policy.sss, 32, 1)
            expected.append(RetentionReport(
                policy.name, float(result.mask.mean()), oracle_overlap(result, trace, horizon),
                coverage_entropy(result), retained_mass(result, future),
                memory_footprint(result, KvGeometry()),
            ))
        assert reports == expected

    def test_reports_deterministic_and_ordered(self):
        fixture = generate_fixture("spike-plateau", 1)
        trace = fixture.trace
        context = trace.steps[31].context_length
        plans = [
            self.uniform_plan(trace.num_layers, trace.num_heads, int(r * context))
            for r in (0.4, 0.8)
        ]
        policies = [PolicySpec(name="a"), PolicySpec(name="b")]
        first = run_comparison(trace, policies, plans, observation_width=32, recent=32)
        second = run_comparison(trace, policies, plans, observation_width=32, recent=32)
        assert [r.policy_name for r in first] == ["a", "b"]
        assert first == second

    def test_quality_monotone_in_ratio(self):
        fixture = generate_fixture("spike-plateau", 2)
        trace = fixture.trace
        context = trace.steps[31].context_length
        ratios = (0.4, 0.6, 0.8, 1.0)
        plans = [
            self.uniform_plan(trace.num_layers, trace.num_heads, int(r * context))
            for r in ratios
        ]
        policies = [PolicySpec(name=f"r{r}") for r in ratios]
        reports = run_comparison(trace, policies, plans, observation_width=32, recent=32)
        overlaps = [r.oracle_overlap for r in reports]
        masses = [r.mass_retained for r in reports]
        assert overlaps == sorted(overlaps)
        assert masses == sorted(masses)
        assert reports[-1].oracle_overlap == 1.0


def test_compare_grid_rows_run_the_audiokv_selector():
    # The snapkv row ranks the window's unpooled scores: it keeps what
    # select_snapkv keeps at pool width 1.
    fixture = generate_fixture("spike-plateau", 7)
    trace = fixture.trace
    words = filter_words(fixture.words, 0.95)
    mapping = align_generated_to_words(list(trace.steps), words)
    scores = score_heads(trace, words, mapping, TopKConfig(24))
    policies, plans = compare_grid(trace, scores, (0.4, 0.6, 0.8), 32, 0.5, SssConfig())
    assert [p.name for p in policies] == list(COMPARE_GRID) * 3
    assert {p.selector for p in policies} == {"audiokv"}
    obs_steps, _ = eviction_boundary(trace, 32)
    window = build_observation_window(trace.prefix(obs_steps), obs_steps)
    snapkv_rows = [(p, plan) for p, plan in zip(policies, plans) if p.name == "snapkv"]
    assert len(snapkv_rows) == 3
    for policy, plan in snapkv_rows:
        result = select(policy.name, policy.selector, window, plan, policy.sss, 32, 1)
        expected = select_snapkv(window, plan.capacities, 1, 32)
        assert np.array_equal(result.mask, expected.mask)


class TestReportOutput:
    def test_csv_columns_and_determinism(self, tmp_path):
        fixture = generate_fixture("spike-plateau", 4)
        trace = fixture.trace
        context = trace.steps[31].context_length
        plan = BudgetPlan(
            capacities=np.full((2, 4), int(0.5 * context), dtype=np.int64),
            window=32,
            base=0,
            global_budget=8 * int(0.5 * context),
            mode="uniform",
        )
        reports = run_comparison(
            trace, [PolicySpec(name="p")], [plan], observation_width=32, recent=32
        )
        csv_text = reports_to_csv(reports)
        header, row = csv_text.strip().split("\n")
        assert header == "policy,ratio,overlap,mass,entropy,bytes"
        assert row.startswith("p,")
        csv_path, json_path = tmp_path / "r.csv", tmp_path / "r.json"
        write_reports(reports, csv_path, json_path)
        assert csv_path.read_text() == csv_text
        assert json_path.exists()
