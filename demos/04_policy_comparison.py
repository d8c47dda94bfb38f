"""Trace-replay comparison of eviction policies.

Replays a synthetic trace through the four-way grid (uniform vs head-aware
allocation, smoothing off vs on), scoring each retained set against the
held-out future attention. Mirrors what the `audiokv compare` command writes
to CSV.
"""

from audiokv import (
    COMPARE_GRID,
    POLICIES,
    AllocationMode,
    KvGeometry,
    PolicySpec,
    SssConfig,
    TopKConfig,
    align_generated_to_words,
    allocate,
    filter_words,
    generate_fixture,
    resolve_base_tokens,
    run_comparison,
    score_heads,
)

fixture = generate_fixture("spike-plateau", seed=0)
trace = fixture.trace

words = filter_words(fixture.words, 0.95)
mapping = align_generated_to_words(list(trace.steps), words)
scores = score_heads(trace, words, mapping, TopKConfig(24))

observation = 32
context = trace.steps[observation - 1].context_length
n = trace.num_layers * trace.num_heads
smoothing = SssConfig(cutoff_ratio=0.7, mix_alpha=0.5)

policies, plans = [], []
for ratio in (0.4, 0.6, 0.8):
    budget = n * int(ratio * context)
    base = resolve_base_tokens(budget, n, 0.5)
    plan_of = {
        mode: allocate(scores, budget, 32, base if mode is AllocationMode.COMBINED else 0, mode)
        for mode in {POLICIES[name].mode for name in COMPARE_GRID}
    }
    for name in COMPARE_GRID:
        policy = POLICIES[name]
        policies.append(PolicySpec(name, policy.selector, smoothing if policy.smooth else None))
        plans.append(plan_of[policy.mode])

reports = run_comparison(
    trace, policies, plans, KvGeometry(), observation_width=observation, recent=32
)

print(f"{'policy':>14} {'ratio':>6} {'overlap':>8} {'mass':>7} {'entropy':>8} {'MiB':>6}")
for r in reports:
    print(
        f"{r.policy_name:>14} {r.retention_ratio:6.3f} {r.oracle_overlap:8.3f} "
        f"{r.mass_retained:7.3f} {r.coverage_entropy:8.3f} {r.memory_bytes / 2**20:6.2f}"
    )

print("\nat the tight 0.4 budget the head-aware, smoothed policy keeps the most")
print("future attention mass; as the budget grows the planted heads saturate")
print("and the four variants close up.")
