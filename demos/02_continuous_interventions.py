"""Continuous resistance shaping with smooth median surrogates.

The upper median is a terrible thing to differentiate, so two
surrogates stand in for it: the Huber M-estimator (a soft median whose
sharpness is set by the tuning constant c) and a sum of sigmoids
counting how many opinions sit above the threshold. Projected ADAM
ascends either surrogate inside an l1 ball around the starting
resistances, intersected with the [0, 1] box.
"""

import numpy as np

from medianflip import (
    GeneratorSpec,
    HuberConfig,
    OptimizerConfig,
    SigmoidConfig,
    equilibrium,
    find_c,
    generate,
    huber_m_estimate,
    median,
    projected_huber,
    sigmoid_gd,
)

np.set_printoptions(precision=4, suppress=True)

# -- 1. a 6x6 grid town, everyone mildly persuadable -----------------------
inst = generate(GeneratorSpec("grid", dist="normal", seed=11,
                              params={"rows": 6, "cols": 6}))
x0 = equilibrium(inst).x_star
print(f"n = {inst.network.node_count}, starting median {median(x0):.4f}")

# -- 2. the Huber estimate really interpolates median -> mean --------------
spread = float(x0.max() - x0.min())
for c in (1e-4 * spread, 0.1 * spread, 1e4 * spread):
    y = huber_m_estimate(x0, HuberConfig(c))
    print(f"c = {c:9.2e}: huber estimate {y:.4f} "
          f"(median {median(x0):.4f}, mean {x0.mean():.4f})")

# -- 3. pick c so the soft median tracks the hard one ----------------------
c = find_c(inst, seed=0)
print(f"calibrated c = {c:.2e}")

# -- 4. ascend the Huber surrogate at a few l1 budgets ---------------------
for budget in (2.0, 5.0, 8.0):
    cfg = OptimizerConfig(budget_k=budget)
    res = projected_huber(inst, cfg, huber=HuberConfig(c))
    print(f"l1 budget {budget:.0f}: median {median(x0):.4f} -> "
          f"{res.final_median:.4f}, flipped={res.flipped}, "
          f"moved {res.l0_budget_used} nodes, l1 used {res.l1_budget_used:.2f}")

# -- 5. the sigmoid surrogate chases votes instead of the median -----------
res = sigmoid_gd(inst, OptimizerConfig(budget_k=5.0),
                 sig=SigmoidConfig(theta=0.5, tau=25.0))
print(f"sigmoid, l1 budget 5: final median {res.final_median:.4f}, "
      f"flipped={res.flipped}")

# -- 6. a peek at the objective trace --------------------------------------
print("iter  surrogate  true_median  l1_used")
for entry in res.objective_trace[:5]:
    print(f"{entry.iteration:4d}  {entry.surrogate:9.4f}  "
          f"{entry.true_median:11.4f}  {entry.l1_used:7.3f}")
print(f"... ({len(res.objective_trace)} entries, best true median kept)")
