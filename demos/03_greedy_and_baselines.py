"""Discrete stooge selection: lazy greedy against cheap baselines.

A stooge is a node whose resistance gets pinned to 0 (echo the crowd)
or 1 (never budge). Greedy picks them one at a time by marginal median
gain; laziness reuses stale gains to skip most re-evaluations. The
baselines pick nodes by coin flip, degree, or betweenness and then
apply the same resistance rule.
"""

import numpy as np

from medianflip import (
    GeneratorSpec,
    baseline_select,
    generate,
    jaccard,
    lazy_greedy,
    median,
    equilibrium,
    min_budget_to_flip,
    method_runner,
)

np.set_printoptions(precision=4, suppress=True)

inst = generate(GeneratorSpec("gnp", dist="normal", seed=23,
                              params={"n": 40, "p": 0.12}))
x0 = equilibrium(inst).x_star
print(f"n = 40 gnp graph, starting median {median(x0):.4f}")

# -- 1. lazy greedy at a fixed budget --------------------------------------
k = 8
res = lazy_greedy(inst, k=k, phi=0.8)
print(f"greedy k={k}: median -> {res.final_median:.4f}, "
      f"flipped={res.flipped}")
print("  commits:", list(res.stooges.items()))

# -- 2. how much work did laziness save? -----------------------------------
eager = lazy_greedy(inst, k=k, phi=0.0)
print("  evals/iter lazy :", res.evals_per_iter)
print("  evals/iter eager:", eager.evals_per_iter)
saved = 1 - sum(res.evals_per_iter) / sum(eager.evals_per_iter)
print(f"  {100 * saved:.0f}% of candidate evaluations skipped, "
      f"same picks: {res.stooges == eager.stooges}")

# -- 3. baselines at the same budget ---------------------------------------
for kind in ("random", "degree", "centrality"):
    b = baseline_select(inst, k, kind, seed=1)
    overlap = jaccard(set(res.stooges), set(b.stooges))
    print(f"{kind:11s}: median -> {b.final_median:.4f}, "
          f"jaccard with greedy {overlap:.2f}")

# -- 4. smallest budget that flips the median ------------------------------
for method in ("greedy", "degree", "random"):
    runner = method_runner(method, theta=0.5, seed=1)
    found = min_budget_to_flip(inst, runner, theta=0.5)
    shown = "never" if found is None else f"{found} stooges"
    print(f"budget to flip with {method:7s}: {shown}")
