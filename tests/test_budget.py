import hashlib

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from audiokv.budget import (
    AllocationMode,
    allocate,
    load_plan,
    pyramid_schedule,
    resolve_base_tokens,
    save_plan,
)
from audiokv.errors import BudgetTooSmallError
from audiokv.heads import HeadScoreMatrix


def scores_of(values):
    return HeadScoreMatrix(scores=np.asarray(values, dtype=np.float64), num_samples=1)


class TestAllocate:
    def test_combined_exact_proportional_split(self):
        plan = allocate(scores_of([[0.2, 0.3, 0.5]]), 100, 0, 0, AllocationMode.COMBINED)
        assert plan.capacities.tolist() == [[20, 30, 50]]

    def test_uniform_under_equal_scores_proportional_floor(self):
        plan = allocate(scores_of([[1.0, 1.0, 1.0, 1.0]]), 120, 0, 0, AllocationMode.COMBINED)
        assert plan.capacities.tolist() == [[30, 30, 30, 30]]

    def test_combined_includes_window_and_base(self):
        plan = allocate(scores_of([[1.0, 3.0]]), 100, 10, 5, AllocationMode.COMBINED)
        # score budget = 100 - 2*15 = 70 -> floors [17, 52] + leftover 1 to head 1
        assert plan.capacities.tolist() == [[32, 68]]
        assert plan.total == 100

    def test_zero_scores_fall_back_to_uniform(self):
        plan = allocate(scores_of([[0.0, 0.0]]), 50, 0, 0, AllocationMode.COMBINED)
        assert plan.capacities.tolist() == [[25, 25]]

    def test_budget_too_small_for_window(self):
        with pytest.raises(BudgetTooSmallError):
            allocate(scores_of([[1.0, 1.0]]), 10, 8, 0, AllocationMode.COMBINED)

    def test_leftover_goes_to_highest_scores(self):
        plan = allocate(scores_of([[0.5, 0.3, 0.2]]), 11, 0, 0, AllocationMode.COMBINED)
        # floors [5, 3, 2] leave 1 unit -> highest score gets it
        assert plan.capacities.tolist() == [[6, 3, 2]]

    @pytest.mark.parametrize("mode", [AllocationMode.UNIFORM, AllocationMode.PYRAMID])
    def test_score_agnostic_share_below_window_raises(self, mode):
        # 100 slots over 4 heads is 25 each, below the window of 32: raising
        # each head to the window would hand out 128 slots.
        with pytest.raises(BudgetTooSmallError):
            allocate(scores_of([[1.0, 1.0, 1.0, 1.0]]), 100, 32, 0, mode)

    def test_pyramid_budget_below_one_slot_per_layer_raises(self):
        with pytest.raises(BudgetTooSmallError):
            allocate(scores_of([[1.0], [1.0], [1.0]]), 2, 0, 0, AllocationMode.PYRAMID)

    def test_pyramid_mode_splits_heads_uniformly(self):
        plan = allocate(scores_of([[1.0, 1.0], [1.0, 1.0]]), 40, 0, 0, AllocationMode.PYRAMID)
        assert plan.capacities.sum() == 40
        layer_totals = plan.capacities.sum(axis=1)
        assert layer_totals[0] >= layer_totals[1]


class TestAllocationLaws:
    MODES = (AllocationMode.COMBINED,)

    def test_budget_conservation(self):
        rng = np.random.default_rng(1)
        for _ in range(300):
            layers, heads = int(rng.integers(1, 4)), int(rng.integers(1, 9))
            n = layers * heads
            budget = int(rng.integers(n, 40 * n))
            matrix = scores_of(rng.random((layers, heads)))
            combined = allocate(matrix, budget, 0, 0, AllocationMode.COMBINED)
            assert combined.total == budget

    def test_score_monotonicity(self):
        rng = np.random.default_rng(2)
        for mode in self.MODES:
            for _ in range(200):
                matrix = scores_of(rng.random((2, 4)))
                plan = allocate(matrix, int(rng.integers(8, 400)), 0, 0, mode)
                flat_s = matrix.scores.reshape(-1)
                flat_c = plan.capacities.reshape(-1)
                for i in range(8):
                    for j in range(8):
                        if flat_s[i] > flat_s[j]:
                            assert flat_c[i] >= flat_c[j]

    def test_scale_invariance(self):
        rng = np.random.default_rng(3)
        for mode in self.MODES:
            for _ in range(200):
                matrix = scores_of(rng.random((2, 3)))
                window = int(rng.integers(0, 3))
                budget = int(rng.integers(6 * (window + 1), 300))
                plan = allocate(matrix, budget, window, 0, mode)
                # powers of two keep the rescaling exact in floating point
                c = float(2.0 ** rng.integers(-3, 9))
                scaled = scores_of(matrix.scores * c)
                again = allocate(scaled, budget, window, 0, mode)
                assert np.array_equal(plan.capacities, again.capacities)

    def test_window_floor(self):
        rng = np.random.default_rng(4)
        for mode in self.MODES:
            for _ in range(100):
                matrix = scores_of(rng.random((2, 3)))
                window = int(rng.integers(1, 8))
                budget = int(rng.integers(6 * window * 3, 1000))
                plan = allocate(matrix, budget, window, 0, mode)
                assert np.all(plan.capacities >= window)


def looped_capacities(scores, budget, window, base, mode):
    """`allocate`'s arithmetic one head at a time: the reference for its array ops."""
    layers, heads = scores.shape
    n = layers * heads
    if mode is AllocationMode.PYRAMID:
        totals = pyramid_schedule(layers, budget // layers, 0.8)
        for layer in range(budget % layers):
            totals[layer] += 1
        caps = []
        for total in totals:
            caps += [total // heads + (h < total % heads) for h in range(heads)]
        return np.array(caps).reshape(layers, heads)
    s = np.maximum(scores.reshape(-1), 0.0)
    if s.sum() <= 0.0:
        s = np.ones(n)
    if mode is AllocationMode.COMBINED:
        spend = budget - n * (window + base)
        caps = [window + base + int(np.floor(spend * v / float(s.sum()))) for v in s]
        order = np.argsort(-s, kind="stable")
    else:
        caps, order = [budget // n] * n, range(n)
    for i in range(budget - sum(caps)):
        caps[order[i % n]] += 1
    return np.array(caps).reshape(layers, heads)


def argsort_schedule(num_layers, per_layer_budget, decay):
    """`pyramid_schedule` with its leftover slots handed out by a stable
    argsort of the negated remainders: the reference for `topk_mask`."""
    total = num_layers * per_layer_budget
    weights = np.array([decay**i for i in range(num_layers)], dtype=np.float64)
    raw = total * weights / weights.sum()
    floors = np.floor(raw).astype(np.int64)
    order = np.argsort(-(raw - floors), kind="stable")
    floors[order[: total - int(floors.sum())]] += 1
    return [int(v) for v in floors]


@st.composite
def allocation_cases(draw):
    layers, heads = draw(st.integers(1, 4)), draw(st.integers(1, 8))
    values = draw(st.lists(st.floats(0.0, 1.0), min_size=layers * heads, max_size=layers * heads))
    mode = draw(st.sampled_from(list(AllocationMode)))
    window = draw(st.integers(0, 32))
    base = draw(st.integers(0, 16)) if mode is AllocationMode.COMBINED else 0
    budget = draw(st.integers(0, 80 * layers * heads))
    return scores_of(np.reshape(values, (layers, heads))), budget, window, base, mode


@settings(max_examples=300, deadline=None)
@given(allocation_cases())
def test_allocate_spends_the_budget_above_the_window(case):
    matrix, budget, window, base, mode = case
    try:
        plan = allocate(matrix, budget, window, base, mode)
    except BudgetTooSmallError:
        return
    assert plan.total == budget
    assert plan.capacities.min() >= window
    assert np.array_equal(
        plan.capacities, looped_capacities(matrix.scores, budget, window, base, mode)
    )
    if mode is AllocationMode.COMBINED:
        s, c = matrix.scores.reshape(-1), plan.capacities.reshape(-1)
        assert np.all(c[:, None] >= c[None, :], where=s[:, None] > s[None, :])


def test_capacities_on_a_fixed_grid_are_pinned():
    # Every mode on every shape from 1x1 to 8x8, under even, uneven and
    # too-small budgets (pyramid budgets with `budget % layers != 0`
    # included), two windows and two bases, and three score matrices: scores
    # with ties, distinct scores and all-zero scores. The digest was taken
    # from `allocate` as it stood when it handed out uniform remainders in
    # the order of an argsort of zero scores.
    rng = np.random.default_rng(13)
    digest = hashlib.sha256()
    for layers in range(1, 9):
        for heads in range(1, 9):
            n = layers * heads
            score_sets = (
                rng.integers(0, 4, (layers, heads)) / 4,
                rng.random((layers, heads)),
                np.zeros((layers, heads)),
            )
            for values in score_sets:
                for budget in (0, n, 7 * n + 3, 40 * n + layers - 1, 997, 5003):
                    for window in (0, 5):
                        for base in (0, 2):
                            for mode in AllocationMode:
                                case = f"{mode.value} {layers} {heads} {budget} {window} {base}:"
                                digest.update(case.encode())
                                try:
                                    plan = allocate(scores_of(values), budget, window, base, mode)
                                except BudgetTooSmallError:
                                    digest.update(b"too small;")
                                else:
                                    digest.update(plan.capacities.astype("<i8").tobytes())
    assert digest.hexdigest() == (
        "178d04b42d5446431af1582d0a990a75ecbff7ba309ec0a36d7ee607172e006c"
    )


class TestPyramidSchedule:
    def test_no_decay_is_uniform(self):
        assert pyramid_schedule(4, 10, 1.0) == [10, 10, 10, 10]

    def test_two_layer_renormalized_split(self):
        assert pyramid_schedule(2, 10, 0.5) == [13, 7]

    def test_single_layer(self):
        assert pyramid_schedule(1, 17, 0.3) == [17]

    def test_total_always_exact(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            layers = int(rng.integers(1, 12))
            per_layer = int(rng.integers(1, 50))
            decay = float(rng.uniform(0.05, 1.0))
            totals = pyramid_schedule(layers, per_layer, decay)
            assert sum(totals) == layers * per_layer
            assert all(a >= b for a, b in zip(totals, totals[1:]))

    @settings(max_examples=300, deadline=None)
    @given(
        layers=st.integers(1, 40),
        per_layer=st.integers(1, 10**6) | st.integers(1, 60),
        decay=st.floats(0.0, 1.0, exclude_min=True) | st.sampled_from([1 / 3, 0.6, 0.8, 1.0]),
    )
    @example(layers=2, per_layer=1, decay=1 / 3)
    @example(layers=4, per_layer=5, decay=1 / 3)
    def test_matches_the_stable_argsort_oracle(self, layers, per_layer, decay):
        # A decay of 1/3 over 2 or 4 layers, or 0.6 over 2, can tie the
        # remainders that compete for the last leftover slot, as in both
        # examples; the earlier layer must win.
        assert pyramid_schedule(layers, per_layer, decay) == argsort_schedule(
            layers, per_layer, decay
        )


class TestPlanIo:
    def test_roundtrip(self, tmp_path):
        plan = allocate(scores_of([[0.1, 0.9]]), 64, 4, 2, AllocationMode.COMBINED)
        path = tmp_path / "plan.json"
        save_plan(plan, path)
        loaded = load_plan(path)
        assert np.array_equal(loaded.capacities, plan.capacities)
        assert (loaded.window, loaded.base, loaded.global_budget, loaded.mode) == (
            4,
            2,
            64,
            "combined",
        )

    def test_resolve_base_tokens(self):
        assert resolve_base_tokens(budget=800, num_heads_total=8, base_fraction=0.5) == 50
