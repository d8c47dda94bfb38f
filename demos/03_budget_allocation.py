"""From head scores to per-head cache capacities.

Shows the score-driven `combined` allocation next to the uniform and pyramid
baselines, and the bookkeeping laws (conservation, window floor).
"""

import numpy as np

from audiokv import (
    AllocationMode,
    HeadScoreMatrix,
    allocate,
    pyramid_schedule,
    resolve_base_tokens,
)

scores = HeadScoreMatrix(
    scores=np.array([[0.50, 0.05, 0.05, 0.05], [0.05, 0.40, 0.05, 0.05]]),
    num_samples=100,
)
context = 500
budget = 8 * int(0.4 * context)  # 40% retention over 8 heads
window = 32
base = resolve_base_tokens(budget, 8, base_fraction=0.5)
print(f"global budget {budget} tokens, window {window}, uniform base {base}\n")

for mode in AllocationMode:
    plan = allocate(scores, budget, window, base if mode is AllocationMode.COMBINED else 0, mode)
    print(f"{mode.value:>18}: {plan.capacities.tolist()}  total={plan.total}")

plan = allocate(scores, budget, window, base, AllocationMode.COMBINED)
print("\ncombined-mode laws:")
print("  conserved:", plan.total == budget)
print("  window floor:", bool(np.all(plan.capacities >= window)))

print("\npyramid schedule, 6 layers x 100 tokens, decay 0.7:")
print(" ", pyramid_schedule(6, 100, 0.7))
