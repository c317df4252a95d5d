"""How the optimality certificates are produced.

Each design claim is checked against a two-stage oracle: a budget of random
feasible points scaled to the power boundary, then multi-start quasi-Newton
(L-BFGS) refinement from the most promising candidates.  The gap
(oracle - structured) should never be meaningfully negative.
"""

import time

import numpy as np

from matfield import design_det_min, design_trace_min
from matfield.baselines import logdet_problem, random_search_oracle, trace_problem
from matfield.instances import generate_system, generate_weighting

print(f"{'trial':>5}  {'objective':>12}  {'oracle best':>12}  {'gap':>10}")
for trial in range(8):
    model = generate_system(100 + trial, (2, 2, 2, 2), power=4.0)
    op = generate_weighting(200 + trial, (2, 2, 2, 2))
    d = design_trace_min(model, op)
    oracle = random_search_oracle(trace_problem(model, op), budget=4000, seed=trial, refinements=40)
    print(f"{trial:>5}  {d.objective_value:>12.8f}  {oracle:>12.8f}  {oracle - d.objective_value:>+10.2e}")

t0 = time.perf_counter()
model = generate_system(999, (3, 3, 3, 3), power=4.0)
op = generate_weighting(998, (3, 3, 3, 3))
d = design_det_min(model, op)
oracle = random_search_oracle(logdet_problem(model, op), budget=10000, seed=0, refinements=100)
print(
    f"\nlog-det, 3x3: structured {d.objective_value:.8f}, oracle {oracle:.8f}, "
    f"gap {oracle - d.objective_value:+.2e} ({time.perf_counter() - t0:.2f}s)"
)
