"""`score_rows` scores by layer blocks: the reports are the whole grid's bit for
bit, and its working set is a block's, not the [rows, layers, heads, context]
stack of every retained mask."""

import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import score_rows_oracle as oracle
from audiokv import metrics
from audiokv.budget import BudgetPlan, budget_at_ratio, make_plan
from audiokv.errors import CapacityBelowRecentError, DimensionMismatchError
from audiokv.eviction import POLICIES, ObservationWindow, build_observation_window
from audiokv.heads import HeadScoreMatrix
from audiokv.metrics import (
    COMPARE_GRID,
    KvGeometry,
    PolicySpec,
    aggregate_future_attention,
    score_rows,
)
from audiokv.spectral import SssConfig
from audiokv.trace import AttentionTrace, DecodingStep

SELECTORS = ("audiokv", "audiokv", "snapkv", "h2o", "adakv")
SSS = (None, SssConfig(), SssConfig(cutoff_ratio=0.3, mix_alpha=1.0))


def plan_of(capacities):
    return BudgetPlan(
        capacities=capacities, window=0, base=0, global_budget=int(capacities.sum()), mode="test"
    )


def trace_of(attention):
    layers, heads = attention[0].shape[:2]
    steps = tuple(DecodingStep(i, "", a) for i, a in enumerate(attention))
    return AttentionTrace(layers, heads, steps, 0, 1, 1.0)


def split(trace, width):
    """`score_rows`' window and future at `width`, as `run_comparison` builds them."""
    obs_steps = min(width, trace.num_steps - 1)
    window = build_observation_window(trace.prefix(obs_steps), obs_steps)
    future = aggregate_future_attention(
        trace, obs_steps - 1, trace.num_steps - obs_steps, window.context_length
    )
    return window, future


@st.composite
def grids(draw):
    """A trace of 1-9 layers, its window and future, and rows on every
    selector: ties are common, and a row may keep nothing beyond its recent
    block, or nothing at all."""
    layers, heads = draw(st.integers(1, 9)), draw(st.integers(1, 3))
    contexts = sorted(draw(st.sets(st.integers(2, 30), min_size=2, max_size=5)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    values = np.array([0.0, 0.25, 1.0]) if draw(st.booleans()) else None
    attention = []
    for context in contexts:
        shape = (layers, heads, context)
        rows = rng.choice(values, shape) if values is not None else rng.random(shape) ** 3
        rows[rows.sum(axis=-1) == 0] = 1.0
        attention.append((rows / rows.sum(axis=-1, keepdims=True)).astype(np.float32))
    trace = trace_of(attention)
    window, future = split(trace, draw(st.integers(1, len(contexts))))
    context = window.context_length
    recent = draw(st.sampled_from([0, 1, context // 2, context]))
    policies, plans = [], []
    for i in range(draw(st.integers(1, 7))):
        selector = draw(st.sampled_from(SELECTORS))
        sss = draw(st.sampled_from(SSS)) if selector == "audiokv" else None
        extra = st.sampled_from([0, 1, context, context + 2]) | st.integers(0, context)
        capacities = recent + np.array(
            [[draw(extra) for _ in range(heads)] for _ in range(layers)], dtype=np.int64
        )
        policies.append(PolicySpec(f"p{i}", selector, sss))
        plans.append(plan_of(capacities))
    per_block = draw(st.integers(1, layers))
    return (window, future, policies, plans, recent), per_block


def blocks_of(per_block, window):
    """`SCORE_BLOCK` at `per_block` layers of `window`'s float64 slice."""
    _, heads = window.shape
    return per_block * heads * window.context_length * window.aggregated.itemsize


@settings(max_examples=200, deadline=None)
@given(grid=grids())
def test_block_wise_reports_are_the_whole_grids_bit_for_bit(grid):
    (window, future, policies, plans, recent), per_block = grid
    args = (window, future, policies, plans, KvGeometry(), recent)
    expected = oracle.score_rows(*args)
    with mock.patch.object(metrics, "SCORE_BLOCK", blocks_of(per_block, window)):
        reports = score_rows(*args)
    assert [repr(r) for r in reports] == [repr(r) for r in expected]


def test_a_ragged_last_block_scores_like_the_rest():
    # 7 layers in blocks of 3: the last block holds one layer.
    rng = np.random.default_rng(5)
    contexts = (20, 24, 29, 33)
    attention = [rng.random((7, 2, c)).astype(np.float32) for c in contexts]
    trace = trace_of([a / a.sum(axis=-1, keepdims=True) for a in attention])
    window, future = split(trace, 2)
    policies = [PolicySpec("a"), PolicySpec("b", "snapkv"), PolicySpec("c", sss=SssConfig())]
    plans = [plan_of(np.full((7, 2), c, dtype=np.int64)) for c in (8, 12, 20)]
    args = (window, future, policies, plans, KvGeometry(), 4)
    with mock.patch.object(metrics, "SCORE_BLOCK", blocks_of(3, window)):
        assert score_rows(*args) == oracle.score_rows(*args)


class TestErrorOrder:
    """Rows are checked in input order before any block is scored, so the
    first bad row is named whatever its selector."""

    def rows(self):
        rng = np.random.default_rng(2)
        attention = [rng.random((3, 2, c)).astype(np.float32) for c in (30, 34, 40)]
        trace = trace_of([a / a.sum(axis=-1, keepdims=True) for a in attention])
        window, future = split(trace, 2)
        plans = [plan_of(np.full((3, 2), 20, dtype=np.int64)) for _ in range(4)]
        return window, future, plans

    @pytest.mark.parametrize("per_block", [1, 3])
    @pytest.mark.parametrize("selector", ["snapkv", "h2o", "adakv"])
    def test_a_bad_other_selector_row_before_a_bad_audiokv_row(self, per_block, selector):
        window, future, plans = self.rows()
        plans[1].capacities[2] = 5  # below the recent window of 8, in a later block
        plans[2].capacities[0, 0] = 3
        policies = [PolicySpec("a"), PolicySpec("b", selector), PolicySpec("c", sss=SssConfig()),
                    PolicySpec("d")]
        args = (window, future, policies, plans, KvGeometry(), 8)
        message = "layer budget" if selector == "adakv" else "^capacity 5 < recent window 8$"
        for call in (oracle.score_rows, score_rows):
            with mock.patch.object(metrics, "SCORE_BLOCK", blocks_of(per_block, window)):
                with pytest.raises(CapacityBelowRecentError, match=message):
                    call(*args)

    @pytest.mark.parametrize("selector", ["snapkv", "h2o", "adakv"])
    def test_a_bad_audiokv_row_before_a_bad_other_selector_row(self, selector):
        window, future, plans = self.rows()
        plans[1].capacities[1, 0] = 4
        plans[2] = plan_of(np.full((2, 2), 20, dtype=np.int64))  # shaped for other heads
        policies = [PolicySpec("a"), PolicySpec("b", sss=SssConfig()), PolicySpec("c", selector),
                    PolicySpec("d")]
        args = (window, future, policies, plans, KvGeometry(), 8)
        for call in (oracle.score_rows, score_rows):
            with pytest.raises(CapacityBelowRecentError, match="^capacity 4 < recent window 8$"):
                call(*args)
        plans[1].capacities[1, 0] = 20
        for call in (oracle.score_rows, score_rows):
            with pytest.raises(DimensionMismatchError, match=r"\(3, 2\) != plan heads \(2, 2\)"):
                call(*args)


def test_score_rows_holds_a_small_share_of_the_mask_stack():
    # 16 layers of 32 heads at a context of 1500: two layers' float64 slice
    # (750 KiB) is more than `SCORE_BLOCK`, so every block is one layer. The
    # grid is `compare`'s default 12 rows, and a third of the attention is
    # exactly 0, so the top-k ties spill in the selections and the oracle.
    layers, heads, context, recent = 16, 32, 1500, 32
    rng = np.random.default_rng(0)

    def attention():
        rows = rng.random((layers, heads, context))
        rows[rng.random(rows.shape) < 0.3] = 0.0
        return ObservationWindow(32, rows / rows.sum(axis=-1, keepdims=True))

    window, future = attention(), attention()
    assert 2 * heads * context * 8 > metrics.SCORE_BLOCK
    scores = HeadScoreMatrix(rng.random((layers, heads)), 1)
    policies, plans = [], []
    for ratio in (0.4, 0.6, 0.8):
        budget = budget_at_ratio(ratio, context, layers * heads)
        for name in COMPARE_GRID:
            policy = POLICIES[name]
            policies.append(PolicySpec(name, sss=SssConfig() if policy.smooth else None))
            plans.append(make_plan(scores, budget, policy.mode, recent, 0.5))
    args = (window, future, policies, plans, KvGeometry(), recent)
    score_rows(*args)  # imports and caches outside the measurement
    tracemalloc.start()
    try:
        score_rows(*args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    stack = len(plans) * layers * heads * context  # one bool per retained-mask entry
    assert peak < stack / 4, (peak, stack)
