"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line. Run with `pytest tests/test_acceptance.py -v -s`.

Statistical criteria run on the planted structure of the synthetic fixture
families (the subject of each mechanism); seeds, budgets, and tolerances are
pinned here rather than deferred to configuration.
"""

import functools
import time
from typing import NamedTuple

import numpy as np
import pytest

from audiokv.budget import AllocationMode, BudgetPlan, allocate, resolve_base_tokens
from audiokv.cli import main
from audiokv.eviction import (
    EvictionResult,
    ObservationWindow,
    build_observation_window,
    select_audiokv,
    select_snapkv,
)
from audiokv.fixtures import PROFILES, generate_fixture
from audiokv.heads import HeadScoreMatrix, TopKConfig, score_heads
from audiokv.metrics import (
    KvGeometry,
    coverage_entropy,
    memory_footprint,
    retained_mass,
    aggregate_future_attention,
)
from audiokv.spectral import SssConfig, energy_cutoff, smooth_rows
from audiokv.trace import align_generated_to_words, filter_words

from dft_oracle import direct_irfft, direct_rfft


def report(number, text):
    print(f"\nACCEPTANCE {number:2d} PASS: {text}")


def uniform_plan(layers, heads, capacity, window=32):
    return BudgetPlan(
        capacities=np.full((layers, heads), capacity, dtype=np.int64),
        window=window,
        base=0,
        global_budget=capacity * layers * heads,
        mode="uniform",
    )


def planted_subset(result: EvictionResult, planted) -> EvictionResult:
    layers, heads = np.array(planted).T
    return EvictionResult(result.policy_name, result.mask[layers, heads][:, None])


def scored_fixture(fixture, k=24, tau=0.95):
    words = filter_words(fixture.words, tau)
    mapping = align_generated_to_words(list(fixture.trace.steps), words)
    return score_heads(fixture.trace, words, mapping, TopKConfig(k))


class SpikePlateau(NamedTuple):
    """What acceptance 04 and 09 read of one spike-plateau fixture."""

    window: ObservationWindow  # the first 32 steps
    future: ObservationWindow  # the next 64 steps, cut to the window's context
    scores: HeadScoreMatrix
    planted_heads: tuple[tuple[int, int], ...]


@functools.cache
def spike_plateau(seed):
    """Spike-plateau fixture `seed` as 04 and 09 read it, generated once per
    module. The trace (~3.8 MB) is not kept, and the arrays are read-only, so
    neither test can change what the other reads."""
    fixture = generate_fixture("spike-plateau", seed)
    window = build_observation_window(fixture.trace.prefix(32), 32)
    future = aggregate_future_attention(fixture.trace, 31, 64, window.context_length)
    scores = scored_fixture(fixture)
    for array in (window.aggregated, future.aggregated, scores.scores):
        array.flags.writeable = False
    return SpikePlateau(window, future, scores, fixture.planted_heads)


def test_01_dft_oracle_equivalence():
    # np.fft.rfft / np.fft.irfft are the transforms `smooth_rows` calls.
    start = time.monotonic()
    rng = np.random.default_rng(101)
    for _ in range(500):
        length = int(rng.integers(1, 65))
        x = rng.normal(size=length)
        oracle_bins = direct_rfft(x)
        assert np.max(np.abs(np.fft.rfft(x) - oracle_bins)) < 1e-9
        back = np.fft.irfft(oracle_bins, n=length)
        assert np.max(np.abs(back - direct_irfft(oracle_bins, length))) < 1e-9
    for length in range(1, 257):
        x = rng.normal(size=length)
        assert np.max(np.abs(np.fft.irfft(np.fft.rfft(x), n=length) - x)) < 1e-9
    elapsed = time.monotonic() - start
    assert elapsed < 10.0
    report(1, f"rfft/irfft match the O(L^2) oracle and roundtrip within 1e-9 ({elapsed:.1f}s)")


def test_02_sss_identity_limits():
    rng = np.random.default_rng(102)
    for _ in range(100):
        x = rng.normal(size=int(rng.integers(1, 200)))
        no_mix = smooth_rows(x, SssConfig(cutoff_ratio=0.3, mix_alpha=0.0))
        assert np.max(np.abs(no_mix - x)) < 1e-9
        all_pass = smooth_rows(x, SssConfig(cutoff_ratio=1.0, mix_alpha=1.0, transition_bins=0))
        assert np.max(np.abs(all_pass - x)) < 1e-9
    report(2, "alpha=0 and (ratio=1, transition=0) reproduce inputs within 1e-9")


def test_03_energy_cutoff():
    bins = np.sqrt(np.array([4.0, 3.0, 2.0, 1.0])).astype(complex)
    cutoff = energy_cutoff(bins, 0.7)
    assert cutoff == 1  # keep bins 0..1, i.e. exactly 2 bins
    rng = np.random.default_rng(103)
    for _ in range(200):
        bins = np.fft.rfft(rng.normal(size=int(rng.integers(2, 80))))
        cuts = [energy_cutoff(bins, float(r)) for r in np.linspace(0.01, 1.0, 25)]
        assert all(a <= b for a, b in zip(cuts, cuts[1:]))
    report(3, "energy cutoff monotone in ratio; [4,3,2,1] at 0.7 keeps exactly 2 bins")


def test_04_smoothing_disperses_topk_selection():
    # Transient-scale budget on the planted audio heads: the recent window
    # plus one slot per observed spike, the regime the dispersion targets.
    start = time.monotonic()
    cfg = SssConfig(cutoff_ratio=0.7, mix_alpha=0.5)
    wins = 0
    for seed in range(100):
        fixture = spike_plateau(seed)
        window = fixture.window
        plan = uniform_plan(*window.shape, capacity=32 + 16)
        raw = select_audiokv(window, plan, None, recent=32)
        smoothed = select_audiokv(window, plan, cfg, recent=32)
        before = coverage_entropy(planted_subset(raw, fixture.planted_heads))
        after = coverage_entropy(planted_subset(smoothed, fixture.planted_heads))
        wins += after > before
    elapsed = time.monotonic() - start
    assert elapsed < 30.0
    assert wins >= 90
    report(4, f"smoothing raised selection entropy in {wins}/100 seeds ({elapsed:.1f}s)")


def test_05_head_scoring_recovery():
    fixture = generate_fixture("specialized-heads", 0)
    total = fixture.trace.num_layers * fixture.trace.num_heads
    assert len(fixture.planted_heads) == total // 10  # 10% planted
    matrix = scored_fixture(fixture, k=24, tau=0.95)
    flat = matrix.scores.reshape(-1)
    planted_flat = {l * fixture.trace.num_heads + h for l, h in fixture.planted_heads}
    decile = set(np.argsort(-flat)[: len(planted_flat)].tolist())
    assert decile == planted_flat
    gap = flat[sorted(planted_flat)].min() - np.delete(flat, sorted(planted_flat)).max()
    assert gap >= 0.5
    report(5, f"planted heads fill the top decile with score gap {gap:.3f} >= 0.5")


def test_06_allocation_laws():
    rng = np.random.default_rng(106)
    mode = AllocationMode.COMBINED
    for _ in range(1000):
        layers = int(rng.integers(1, 4))
        heads = int(rng.integers(1, 9))
        n = layers * heads
        window = int(rng.integers(0, 4))
        budget = int(rng.integers(max(2 * n * window, n), 50 * n + 2 * n * window + n))
        matrix = HeadScoreMatrix(scores=rng.random((layers, heads)), num_samples=1)
        plan = allocate(matrix, budget, window, 0, mode)
        assert plan.total == budget
        assert np.all(plan.capacities >= window)
        flat_s = matrix.scores.reshape(-1)
        flat_c = plan.capacities.reshape(-1)
        order = np.argsort(-flat_s, kind="stable")
        for a, b in zip(order, order[1:]):
            if flat_s[a] > flat_s[b]:
                assert flat_c[a] >= flat_c[b]
        c = float(2.0 ** rng.integers(-3, 9))
        scaled = HeadScoreMatrix(scores=matrix.scores * c, num_samples=1)
        assert np.array_equal(allocate(scaled, budget, window, 0, mode).capacities, plan.capacities)
    report(6, "conservation, monotonicity, scale invariance, window floor over 1000 matrices")


def test_07_uniform_no_smoothing_degenerates_to_snapkv():
    checked = 0
    for profile in PROFILES:
        for seed in (0, 1):
            fixture = generate_fixture(profile, seed)
            trace = fixture.trace.prefix(min(32, fixture.trace.num_steps))
            window = build_observation_window(trace, trace.num_steps)
            capacity = max(32, int(0.4 * window.context_length))
            plan = uniform_plan(*window.shape, capacity=capacity)
            audiokv = select_audiokv(window, plan, None, recent=32)
            snapkv = select_snapkv(window, capacity, pool_width=1, recent=32)
            for l in range(window.shape[0]):
                for h in range(window.shape[1]):
                    assert np.array_equal(audiokv.retained[l][h], snapkv.retained[l][h])
                    checked += 1
    report(7, f"audiokv(uniform, no smoothing) == snapkv(pool=1) on {checked} head sets")


def test_08_memory_linear_in_ratio():
    geom = KvGeometry(head_dim=64, bytes_per_element=2)
    per_entry = geom.kv_pair_factor * geom.head_dim * geom.bytes_per_element
    fixture = generate_fixture("spike-plateau", 8)
    obs = fixture.trace.prefix(32)
    window = build_observation_window(obs, 32)
    layers, heads = window.shape
    context = window.context_length
    n = layers * heads
    for ratio in (0.4, 0.6, 0.8):
        plan = uniform_plan(layers, heads, int(ratio * context))
        result = select_audiokv(window, plan, None, recent=32)
        bytes_actual = memory_footprint(result, geom)
        bytes_ideal = ratio * context * n * per_entry
        assert abs(bytes_actual - bytes_ideal) <= n * per_entry
    report(8, "memory footprint linear in retention ratio within one entry per head")


def test_09_ablation_ordering_on_retained_mass():
    start = time.monotonic()
    cfg = SssConfig(cutoff_ratio=0.7, mix_alpha=0.5)
    ratios = (0.4, 0.6, 0.8)
    chain_wins = {r: 0 for r in ratios}
    for seed in range(100):
        window, future, matrix, _ = spike_plateau(seed)
        context = window.context_length
        layers, heads = window.shape
        n = layers * heads
        for ratio in ratios:
            budget = n * int(ratio * context)
            base = resolve_base_tokens(budget, n, 0.5)
            uni = allocate(matrix, budget, 32, 0, AllocationMode.UNIFORM)
            comb = allocate(matrix, budget, 32, base, AllocationMode.COMBINED)
            mass = {
                "snapkv": retained_mass(select_audiokv(window, uni, None, 32), future),
                "snapkv+sss": retained_mass(select_audiokv(window, uni, cfg, 32), future),
                "audiokv-nosss": retained_mass(select_audiokv(window, comb, None, 32), future),
                "audiokv": retained_mass(select_audiokv(window, comb, cfg, 32), future),
            }
            ordered = (
                mass["audiokv"] >= mass["audiokv-nosss"]
                and mass["audiokv-nosss"] >= mass["snapkv+sss"]
                and mass["snapkv+sss"] >= mass["snapkv"]
            )
            chain_wins[ratio] += ordered
    elapsed = time.monotonic() - start
    assert chain_wins[0.4] >= 80
    report(
        9,
        "retained-mass ordering audiokv >= audiokv-nosss >= snapkv+sss >= snapkv held in "
        f"{chain_wins[0.4]}/100 seeds at 0.4 "
        f"(0.6: {chain_wins[0.6]}, 0.8: {chain_wins[0.8]}; {elapsed:.1f}s)",
    )


def test_10_compare_is_byte_deterministic(tmp_path):
    fx = tmp_path / "fx"
    assert main(["gen-fixture", "--profile", "spike-plateau", "--seed", "7", "--out", str(fx)]) == 0
    outputs = []
    for name in ("a.csv", "b.csv"):
        path = tmp_path / name
        code = main(
            [
                "compare",
                "--trace",
                str(fx / "trace.akvt"),
                "--alignment",
                str(fx / "alignment.json"),
                "--out",
                str(path),
            ]
        )
        assert code == 0
        outputs.append(path.read_bytes())
    assert outputs[0] == outputs[1]
    report(10, "compare produced byte-identical CSV across two runs on a fixed seed")
