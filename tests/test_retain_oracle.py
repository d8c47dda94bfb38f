"""The batched selection kernels agree exactly with their per-head oracles."""

import dataclasses

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import retain_oracle as oracle
from audiokv.budget import AllocationMode, BudgetPlan, allocate, resolve_base_tokens
from audiokv.eviction import (
    EvictionResult,
    ObservationWindow,
    _pool,
    _retain,
    build_observation_window,
    load_result,
    save_result,
    select,
    select_adakv,
    select_audiokv,
    select_h2o,
    select_snapkv,
)
from audiokv.heads import HeadScoreMatrix, topk_mask
from audiokv.metrics import (
    KvGeometry,
    PolicySpec,
    RetentionReport,
    aggregate_future_attention,
    coverage_entropy,
    memory_footprint,
    oracle_overlap,
    reports_to_csv,
    retained_mass,
    run_comparison,
)
from audiokv.spectral import SssConfig, smooth_rows
from audiokv.trace import AttentionTrace, DecodingStep

PROPERTY = settings(max_examples=150, deadline=None)

# A few distinct values make ties common; seeded uniform draws make them rare
# and exercise the rounding of every arithmetic step.
tied = st.sampled_from([0.0, 0.125, 0.5, 1.0])


@st.composite
def score_tensors(draw, min_context=1, max_context=60, shape=None):
    """All rows tie-heavy, all continuous, or a mix of the two: then the rows
    whose ties spill past a top-k are some of a tensor's rows, not all."""
    shape = shape or (
        draw(st.integers(1, 3)),
        draw(st.integers(1, 4)),
        draw(st.integers(min_context, max_context)),
    )
    kind = draw(st.sampled_from(["tied", "continuous", "mixed"]))
    if kind == "tied":
        return draw(arrays(np.float64, shape, elements=tied))
    continuous = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).random(shape) ** 3
    if kind == "continuous":
        return continuous
    heavy = draw(arrays(np.bool_, shape[:-1]))[..., None]
    return np.where(heavy, draw(arrays(np.float64, shape, elements=tied)), continuous)


@st.composite
def sss_configs(draw):
    return SssConfig(
        cutoff_ratio=draw(st.sampled_from([0.05, 0.3, 0.7, 0.999, 1.0])),
        mix_alpha=draw(st.sampled_from([0.0, 0.5, 1.0])),
        transition_bins=draw(st.sampled_from([None, 0, 1, 3, 8])),
    )


@st.composite
def capacities_for(draw, shape, context):
    recent = draw(st.integers(0, context + 3))
    caps = draw(arrays(np.int64, shape, elements=st.integers(recent, context + 3)))
    return recent, caps


def assert_same_retained(got, expected):
    assert len(got) == len(expected)
    for got_row, expected_row in zip(got, expected):
        assert len(got_row) == len(expected_row)
        for g, e in zip(got_row, expected_row):
            assert g.dtype == np.int64
            assert np.array_equal(g, e)


def plan_of(capacities):
    return BudgetPlan(
        capacities=capacities, window=0, base=0, global_budget=int(capacities.sum()), mode="test"
    )


@PROPERTY
@given(data=st.data(), scores=score_tensors(), sss_cfg=st.one_of(st.none(), sss_configs()))
def test_select_audiokv_matches_oracle(data, scores, sss_cfg):
    recent, caps = data.draw(capacities_for(scores.shape[:2], scores.shape[-1]))
    window = ObservationWindow(width=1, aggregated=scores)
    result = select_audiokv(window, plan_of(caps), sss_cfg, recent)
    expected = oracle.select_audiokv(window, plan_of(caps), sss_cfg, recent)
    assert_same_retained(result.retained, expected)


@PROPERTY
@given(data=st.data(), pool_width=st.sampled_from([1, 3, 5, 7, 11, 13, 15]))
def test_select_snapkv_matches_oracle(data, pool_width):
    scores = data.draw(score_tensors(min_context=pool_width))
    context = scores.shape[-1]
    recent = data.draw(st.integers(0, context + 3))
    capacity = data.draw(st.integers(recent, context + 3))
    window = ObservationWindow(width=1, aggregated=scores)
    result = select_snapkv(window, capacity, pool_width, recent)
    expected = oracle.select_snapkv(window, capacity, pool_width, recent)
    assert_same_retained(result.retained, expected)


@PROPERTY
@given(data=st.data(), scores=score_tensors())
def test_compare_snapkv_row_ranks_a_read_only_window(data, scores):
    # `simulate --pool-width 1` selects snapkv at pool width 1, where `_pool`
    # hands back the window's own array: no selection step may write to it.
    scores.setflags(write=False)
    recent, caps = data.draw(capacities_for(scores.shape[:2], scores.shape[-1]))
    window = ObservationWindow(width=1, aggregated=scores)
    assert _pool(scores, 1) is scores
    result = select("snapkv", "snapkv", window, plan_of(caps), None, recent, 1)
    assert_same_retained(result.retained, oracle.select_snapkv(window, caps, 1, recent))


@PROPERTY
@given(data=st.data(), scores=score_tensors(), all_equal=st.booleans())
def test_select_adakv_matches_oracle(data, scores, all_equal):
    if all_equal:
        scores[:] = 0.5
    heads, context = scores.shape[1:]
    # recent may reach past the context (nothing left to pool), and the pool
    # may fall short of, fill or overflow the layer's evictable entries.
    recent = data.draw(st.integers(0, context + 3))
    evictable = heads * (context - min(recent, context))
    pool = data.draw(
        st.one_of(
            st.integers(0, evictable),
            st.just(evictable),
            st.integers(evictable + 1, evictable + 2 * heads),
        )
    )
    window = ObservationWindow(width=1, aggregated=scores)
    layer_budget = heads * recent + pool
    result = select_adakv(window, layer_budget, recent)
    assert_same_retained(result.retained, oracle.select_adakv(window, layer_budget, recent))


def trace_of(attention):
    layers, heads = attention[0].shape[:2]
    steps = tuple(DecodingStep(i, "", a.astype(np.float32)) for i, a in enumerate(attention))
    return AttentionTrace(
        num_layers=layers,
        num_heads=heads,
        steps=steps,
        audio_start=0,
        num_audio_tokens=1,
        total_duration_s=1.0,
    )


@PROPERTY
@given(data=st.data(), scores=score_tensors(max_context=40))
def test_select_h2o_matches_oracle(data, scores):
    context = scores.shape[-1]
    contexts = sorted(data.draw(st.lists(st.integers(1, context), max_size=3))) + [context]
    trace = trace_of([scores[..., :c] for c in contexts])
    recent = data.draw(st.integers(0, context + 3))
    capacity = data.draw(st.integers(recent, context + 3))
    result = select_h2o(trace, capacity, recent)
    assert_same_retained(result.retained, oracle.select_h2o(trace, capacity, recent))


@PROPERTY
@given(data=st.data(), scores=score_tensors(max_context=40), width=st.sampled_from([1, 2, 4, 8]))
def test_select_h2o_on_the_window_is_select_h2o_on_its_steps(data, scores, width):
    # `select` ranks the window, the steps' sum divided by their number; at
    # a power-of-two width the division is exact, so the ranking is the sum's.
    layers, heads, context = scores.shape
    contexts = data.draw(st.lists(st.integers(1, context), min_size=width - 1, max_size=width - 1))
    steps = [data.draw(score_tensors(shape=(layers, heads, c))) for c in sorted(contexts)]
    trace = trace_of([*steps, scores])
    recent, caps = data.draw(capacities_for((layers, heads), context))
    window = build_observation_window(trace, width)
    result = select("h2o", "h2o", window, plan_of(caps), None, recent, 7)
    assert_same_retained(result.retained, select_h2o(trace, caps, recent).retained)


@PROPERTY
@given(
    scores=score_tensors(max_context=80),
    zero_rows=st.lists(st.booleans(), min_size=12, max_size=12),
    cfg=sss_configs(),
)
def test_smooth_rows_matches_oracle(scores, zero_rows, cfg):
    flat = scores.reshape(-1, scores.shape[-1])
    flat[np.array(zero_rows[: len(flat)])] = 0.0
    assert np.array_equal(smooth_rows(scores, cfg), oracle.smooth_rows(scores, cfg))


@st.composite
def retained_masks(draw, shape, bins):
    """Masks whose heads are each arbitrary, empty, or inside one entropy bin."""
    kept = draw(arrays(bool, shape))
    context = shape[-1]
    positions = np.arange(context)
    for head in kept.reshape(-1, context):
        kind = draw(st.sampled_from(["any", "empty", "one bin"]))
        if kind == "empty":
            head[:] = False
        elif kind == "one bin":
            # Positions strictly inside p's bin, off its edges, stay in it
            # however the edges round; p on an edge is kept alone.
            p = draw(st.integers(0, context - 1))
            b = p * bins // context
            inside = (positions * bins > b * context) & (positions * bins < (b + 1) * context)
            head &= inside & inside[p]
            head[p] = True
    return kept


@PROPERTY
@given(data=st.data(), bins=st.integers(2, 12))
def test_metrics_match_per_head_oracle(data, bins):
    # Contexts shorter than `bins` leave bins empty; empty and one-bin heads
    # score zero. Values are compared bit for bit.
    context = data.draw(st.one_of(st.integers(1, bins - 1), st.integers(bins, 60)))
    shape = (data.draw(st.integers(1, 3)), data.draw(st.integers(1, 4)), context)
    scores = data.draw(score_tensors(shape=shape))
    kept = data.draw(retained_masks(shape, bins))
    retained = tuple(tuple(np.flatnonzero(head).astype(np.int64) for head in row) for row in kept)
    result = EvictionResult(policy_name="p", mask=kept)
    expected = oracle.coverage_entropy(retained, context, bins)
    assert coverage_entropy(result, bins).hex() == expected.hex()
    future = data.draw(score_tensors(shape=shape)).astype(np.float32)
    trace = trace_of([scores, future])
    expected = oracle.oracle_overlap(retained, future.astype(np.float64))
    assert oracle_overlap(result, trace, 1).hex() == expected.hex()


@PROPERTY
@given(data=st.data(), scores=score_tensors(max_context=300), extra=st.integers(0, 3))
def test_retained_mass_matches_per_head_oracle(data, scores, extra):
    # Heads keep nothing, everything or a random share, so heads are grouped
    # by every count, some past numpy's 128-entry pairwise-sum block. The
    # window may reach `extra` positions past the result's context, and a
    # head whose row holds no mass counts as fully retained.
    layers, heads, width = scores.shape
    context = max(width - extra, 0)
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    kept = rng.random((layers, heads, context)) < data.draw(st.sampled_from([0.05, 0.5, 0.95]))
    for head in kept.reshape(layers * heads, context):
        kind = data.draw(st.sampled_from(["random", "empty", "full"]))
        if kind != "random":
            head[:] = kind == "full"
    scores[data.draw(arrays(bool, (layers, heads)))] = 0.0
    window = ObservationWindow(width=1, aggregated=scores)
    result = EvictionResult(policy_name="p", mask=kept)
    assert retained_mass(result, window).hex() == oracle.retained_mass(result, window).hex()


@PROPERTY
@given(data=st.data(), shape=st.tuples(st.integers(1, 3), st.integers(1, 4), st.integers(1, 40)))
def test_future_ranks_keep_topk_mask_ties(data, shape):
    # Rows drawn from 1-4 levels tie most entries at the kth value, where the
    # lower index must win as it does in `topk_mask`.
    levels = data.draw(st.lists(tied, min_size=1, max_size=4, unique=True))
    future = data.draw(arrays(np.float32, shape, elements=st.sampled_from(levels)))
    aggregated = future.astype(np.float64)
    kept = data.draw(arrays(bool, shape))
    sizes = kept.sum(axis=-1)
    hits = (kept & topk_mask(aggregated, sizes)).sum(axis=-1)
    expected = float(np.mean(np.where(sizes > 0, hits / np.maximum(sizes, 1), 1.0)))
    trace = trace_of([np.ones(shape), future])
    result = EvictionResult(policy_name="p", mask=kept)
    assert oracle_overlap(result, trace, 1).hex() == expected.hex()


@PROPERTY
@given(data=st.data(), width=st.sampled_from([1, 3, 5, 7, 9, 11, 13, 15, 17]))
def test_pooling_is_bit_identical_to_np_convolve(data, width):
    scores = data.draw(score_tensors(min_context=width, max_context=80))
    kernel = np.full(width, 1.0 / width)
    expected = np.apply_along_axis(np.convolve, -1, scores, kernel, mode="same")
    assert np.array_equal(_pool(scores, width), expected)


@PROPERTY
@given(data=st.data(), scores=score_tensors(min_context=0), ndim=st.integers(1, 3))
def test_topk_mask_matches_full_row_oracle(data, scores, ndim):
    # Tied draws put more entries at the kth value than the row has room
    # for, so only the first of them may be kept. One row takes a scalar k,
    # as the pyramid schedule's remainders do; 2-D rows are adakv's layers.
    scores = scores[(0,) * (3 - ndim)]
    ks = st.integers(0, scores.shape[-1] + 3)
    k = data.draw(ks if ndim == 1 else arrays(np.int64, scores.shape[:-1], elements=ks))
    expected = oracle.topk_mask(scores, k)
    assert np.array_equal(topk_mask(scores, k), expected)
    assert np.array_equal(topk_mask(scores, k, np.sort(scores, axis=-1)), expected)


@PROPERTY
@given(
    data=st.data(),
    scores=score_tensors(min_context=0),
    lead=st.lists(st.integers(1, 3), min_size=1, max_size=2).map(tuple),
)
def test_a_lead_axis_stacks_one_call_per_lead_index(data, scores, lead):
    # k = 0, k at or past the row length, empty rows and rows tied
    # throughout all occur; each lead index must rank as its own call does.
    layers, heads, context = scores.shape
    scores[data.draw(arrays(bool, (layers, heads)))] = data.draw(tied)
    ks = st.sampled_from([0, context, context + 2]) | st.integers(0, context + 3)
    k = data.draw(arrays(np.int64, (*lead, layers, heads), elements=ks))

    def stacked(call, ks):
        return np.stack([call(ks[index]) for index in np.ndindex(lead)]).reshape(
            *lead, *scores.shape
        )

    expected = stacked(lambda each: topk_mask(scores, each), k)
    assert np.array_equal(topk_mask(scores, k), expected)
    assert np.array_equal(topk_mask(scores, k, np.sort(scores, axis=-1)), expected)
    recent = data.draw(st.integers(0, context + 2))
    capacities = k + recent
    expected = stacked(lambda each: _retain(scores, each, recent), capacities)
    assert np.array_equal(_retain(scores, capacities, recent), expected)


# Two SSS configs that appear several times in one grid, so the shared
# smoothing and sort are reused, plus arbitrary ones.
SHARED_SSS = (
    SssConfig(cutoff_ratio=0.3, mix_alpha=0.5),
    SssConfig(cutoff_ratio=0.7, mix_alpha=1.0),
)


@st.composite
def comparison_grids(draw):
    layers, heads = draw(st.integers(1, 2)), draw(st.integers(1, 3))
    contexts = sorted(draw(st.sets(st.integers(2, 40), min_size=2, max_size=6)))
    trace = trace_of([draw(score_tensors(shape=(layers, heads, c))) for c in contexts])
    width = draw(st.integers(1, len(contexts) + 1))
    obs_context = contexts[min(width, len(contexts) - 1) - 1]
    recent = draw(st.integers(0, obs_context + 2))
    head_scores = draw(score_tensors(shape=(layers, heads, 1)))[..., 0]
    head_scores = HeadScoreMatrix(scores=head_scores, num_samples=1)
    policies, plans = [], []
    n = layers * heads
    for i in range(draw(st.integers(1, 8))):
        budget = n * draw(st.integers(2 * recent, 2 * recent + obs_context + 3))
        if draw(st.booleans()):
            plan = allocate(head_scores, budget, recent, 0, AllocationMode.UNIFORM)
        else:
            base = resolve_base_tokens(budget, n, 0.5)
            plan = allocate(head_scores, budget, recent, base, AllocationMode.COMBINED)
        sss = draw(st.one_of(st.none(), st.sampled_from(SHARED_SSS), sss_configs()))
        policies.append(PolicySpec(name=f"p{i}", selector="audiokv", sss=sss))
        plans.append(plan)
    return trace, policies, plans, width, recent


@settings(max_examples=100, deadline=None)
@given(grid=comparison_grids())
def test_run_comparison_matches_pairs_run_one_by_one(grid):
    trace, policies, plans, width, recent = grid
    geom = KvGeometry()
    reports = run_comparison(trace, policies, plans, geom, observation_width=width, recent=recent)

    obs_steps = min(width, trace.num_steps - 1)
    horizon = trace.num_steps - obs_steps
    window = build_observation_window(trace.prefix(obs_steps), obs_steps)
    context = window.context_length
    future = aggregate_future_attention(trace, obs_steps - 1, horizon, context)
    expected = []
    for policy, plan in zip(policies, plans):
        result = select_audiokv(window, plan, policy.sss, recent)
        result = dataclasses.replace(result, policy_name=policy.name)
        layers, heads = result.shape
        expected.append(
            RetentionReport(
                policy_name=policy.name,
                retention_ratio=result.total_retained() / (layers * heads * context),
                oracle_overlap=oracle_overlap(result, trace, horizon),
                coverage_entropy=coverage_entropy(result),
                mass_retained=retained_mass(result, future),
                memory_bytes=memory_footprint(result, geom),
            )
        )
    assert reports_to_csv(reports) == reports_to_csv(expected)
    assert reports == expected


@st.composite
def result_masks(draw):
    """Masks whose heads are each random, empty or full, at contexts where the
    indices' decimal width changes."""
    widths = st.sampled_from([0, 1, 9, 10, 11, 99, 100, 999, 1000, 1001])
    context = draw(widths | st.integers(0, 40))
    shape = (draw(st.integers(1, 3)), draw(st.integers(1, 4)), context)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kept = rng.random(shape) < draw(st.sampled_from([0.05, 0.5, 0.95]))
    for head in kept.reshape(shape[0] * shape[1], context):
        kind = draw(st.sampled_from(["random", "empty", "full"]))
        if kind != "random":
            head[:] = kind == "full"
    return kept


@PROPERTY
@given(
    kept=result_masks(),
    name=st.text(max_size=6),
    plan=st.none() | st.builds(
        BudgetPlan,
        capacities=st.just(np.zeros((1, 1), dtype=np.int64)),
        window=st.integers(0, 10**6),
        base=st.integers(0, 10**6),
        global_budget=st.integers(0, 10**9),
        mode=st.sampled_from([mode.value for mode in AllocationMode]),
    ),
)
def test_result_file_matches_json_dumps_oracle(tmp_path_factory, kept, name, plan):
    result = EvictionResult(name, kept, plan)
    path = tmp_path_factory.mktemp("result") / "r.json"
    save_result(result, path)
    assert path.read_bytes() == oracle.result_file_bytes(result)
    assert np.array_equal(load_result(path).mask, kept)
