"""From head scores to per-head cache capacities.

Shows the score-driven `combined` allocation next to the uniform and pyramid
baselines, and the bookkeeping laws (conservation, window floor).
"""

import numpy as np

from audiokv import AllocationMode, HeadScoreMatrix, make_plan
from audiokv.budget import budget_at_ratio

scores = HeadScoreMatrix(
    scores=np.array([[0.50, 0.05, 0.05, 0.05], [0.05, 0.40, 0.05, 0.05]]),
    num_samples=100,
)
context = 500
budget = budget_at_ratio(0.4, context, scores.scores.size)  # 40% retention over 8 heads
window = 32
base_fraction = 0.5  # the combined plan's uniform base: half of each head's even share
plans = {mode: make_plan(scores, budget, mode, window, base_fraction) for mode in AllocationMode}
plan = plans[AllocationMode.COMBINED]
print(f"global budget {budget} tokens, window {window}, uniform base {plan.base}\n")

for p in plans.values():
    print(f"{p.mode:>18}: {p.capacities.tolist()}  total={p.total}")

print("\ncombined-mode laws:")
print("  conserved:", plan.total == budget)
print("  window floor:", bool(np.all(plan.capacities >= window)))
