"""Acceptance gate: ten numbered criteria, one test each.

Every test prints one `criterion NN: PASS/FAIL (...)` line with the
measured quantities next to their tolerances, then enforces the same
bounds with asserts. Criterion 08 first prints one line per grid seed:
each method's flip budget, the Huber ascents' stop reasons and
iterations, and the c that find_c chose. Criteria with stated runtime budgets time
themselves and fail when over budget.
"""

import time
from collections import Counter
from itertools import combinations, product
from pathlib import Path

import numpy as np
import pytest

from helpers import (
    dense_equilibrium,
    exact_huber_estimate,
    exhaustive_greedy_oracle,
    fd_gradient,
    grid_projection_oracle,
    random_connected_instance,
)
from medianflip import (
    GeneratorSpec,
    HuberConfig,
    Instance,
    SetCoverSpec,
    SigmoidConfig,
    TreeInstance,
    baseline_select,
    brute_force_min_stooges,
    build_network,
    equilibrium,
    find_c,
    gen_set_cover_gadget,
    generate,
    huber_gradient,
    huber_m_estimate,
    instance_stats,
    intervene_on_sets,
    lazy_greedy,
    load_edge_list,
    median,
    method_runner,
    min_budget_to_flip,
    project_l1_box,
    score_total,
    sigmoid_gradient,
    sigmoid_objective,
    simulate,
    tree_dp_min_stooges,
)
from medianflip.generators import TOPOLOGIES
from medianflip.treedp import MODES
from test_greedy import fig1_component

POSITIVE_TOL = 1e-9
DATA_DIR = Path(__file__).resolve().parent.parent / "data"


def _line(num, ok, detail):
    print(f"criterion {num:02d}: {'PASS' if ok else 'FAIL'} ({detail})")


def _topology_params(topology, rng):
    if topology == "grid":
        return {"rows": int(rng.integers(5, 15)),
                "cols": int(rng.integers(5, 15))}
    if topology == "communities":
        return {}
    if topology == "gnp":
        return {"n": int(rng.integers(50, 201)), "p": 0.08}
    return {"n": int(rng.integers(50, 201))}


def test_criterion_01_equilibrium_matches_simulation():
    start = time.perf_counter()
    rng = np.random.default_rng(811)
    dists = ("normal", "lognormal", "bimodal")
    worst = 0.0
    for i in range(100):
        topology = TOPOLOGIES[i % len(TOPOLOGIES)]
        spec = GeneratorSpec(topology, dist=dists[i % 3], seed=1000 + i,
                             params=_topology_params(topology, rng))
        inst = generate(spec)
        assert inst.network.node_count <= 200
        x_lsq = equilibrium(inst).x_star
        sim = simulate(inst)
        assert sim.converged
        worst = max(worst, float(np.max(np.abs(x_lsq - sim.x_star))))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-6 and elapsed < 60.0
    _line(1, ok, f"sup gap {worst:.2e} vs 1e-6 on 100 instances, "
          f"{elapsed:.1f}s vs 60s")
    assert worst <= 1e-6
    assert elapsed < 60.0


def test_criterion_02_gradients_match_finite_differences():
    start = time.perf_counter()
    rng = np.random.default_rng(822)
    cfg_h = HuberConfig(c=0.2)
    cfg_s = SigmoidConfig(theta=0.5, tau=25.0)
    checked_h = checked_s = 0
    worst_h = worst_s = 0.0
    attempts = 0
    while (checked_h < 20 or checked_s < 20) and attempts < 80:
        attempts += 1
        inst = random_connected_instance(rng, int(rng.integers(5, 21)))
        if checked_s < 20:
            res = sigmoid_gradient(inst, cfg_s, equilibrium(inst))
            fd = fd_gradient(inst, lambda x: sigmoid_objective(x, cfg_s))
            rel = np.linalg.norm(res.gradient - fd) / max(
                np.linalg.norm(fd), 1e-10)
            worst_s = max(worst_s, rel)
            assert rel <= 1e-3
            checked_s += 1
        if checked_h < 20:
            sol = equilibrium(inst)
            res = huber_gradient(inst, cfg_h, sol)
            margin = np.min(np.abs(np.abs(sol.x_star - res.y_hat) - cfg_h.c))
            if margin >= 1e-4:  # exclude kink-adjacent points
                fd = fd_gradient(
                    inst, lambda x: exact_huber_estimate(x, cfg_h.c))
                rel = np.linalg.norm(res.gradient - fd) / max(
                    np.linalg.norm(fd), 1e-10)
                worst_h = max(worst_h, rel)
                assert rel <= 1e-3
                checked_h += 1
    elapsed = time.perf_counter() - start
    ok = checked_h >= 20 and checked_s >= 20 and elapsed < 120.0
    _line(2, ok, f"huber rel {worst_h:.2e}, sigmoid rel {worst_s:.2e} "
          f"vs 1e-3 on 20 instances each, {elapsed:.1f}s vs 120s")
    assert checked_h >= 20 and checked_s >= 20
    assert elapsed < 120.0


def test_criterion_03_huber_limits():
    rng = np.random.default_rng(833)
    worst_med = worst_mean = 0.0
    for _ in range(100):
        length = 2 * int(rng.integers(1, 21)) + 1
        v = rng.uniform(0, 1, length) * rng.uniform(0.5, 4.0)
        v += rng.uniform(-2.0, 2.0)
        spread = float(v.max() - v.min())
        if spread < 1e-3:
            v[0] += 1.0
            spread = float(v.max() - v.min())
        y_small = huber_m_estimate(v, HuberConfig(1e-5 * spread))
        y_large = huber_m_estimate(v, HuberConfig(1e5 * spread))
        worst_med = max(worst_med, abs(y_small - float(np.median(v))))
        worst_mean = max(worst_mean, abs(y_large - float(v.mean())))
    ok = worst_med <= 1e-3 and worst_mean <= 1e-3
    _line(3, ok, f"median gap {worst_med:.2e}, mean gap {worst_mean:.2e} "
          f"vs 1e-3 on 100 odd-length vectors")
    assert worst_med <= 1e-3
    assert worst_mean <= 1e-3


def test_criterion_04_projection_exactness():
    rng = np.random.default_rng(844)
    for _ in range(50):
        a0 = rng.uniform(0.05, 0.95, 3)
        a = rng.uniform(-0.2, 1.2, 3)
        k = float(rng.uniform(0.1, 1.5))
        proj = project_l1_box(a, a0, k)
        _, f_best, _, _ = grid_projection_oracle(
            a, a0, k, pitches=(0.05, 0.01, 0.002, 0.001))
        f_proj = float(np.linalg.norm(proj - a))
        assert f_proj <= f_best + 1e-9
        assert f_best <= f_proj + np.sqrt(3) * 1e-3 + 1e-9
    worst_l1 = worst_box = worst_idem = 0.0
    for _ in range(1000):
        a0 = rng.uniform(0, 1, 50)
        a = rng.uniform(-0.5, 1.5, 50)
        k = float(rng.uniform(0.05, 10.0))
        proj = project_l1_box(a, a0, k)
        twice = project_l1_box(proj, a0, k)
        worst_l1 = max(worst_l1, float(np.abs(proj - a0).sum()) - k)
        worst_box = max(worst_box, float(np.max(-proj)),
                        float(np.max(proj - 1.0)))
        worst_idem = max(worst_idem, float(np.max(np.abs(twice - proj))))
    ok = worst_l1 <= 1e-9 and worst_box <= 1e-9 and worst_idem <= 1e-9
    _line(4, ok, f"50 grid-oracle matches at 1e-3; l1 excess "
          f"{worst_l1:.1e}, box excess {worst_box:.1e}, idempotence gap "
          f"{worst_idem:.1e} vs 1e-9 on 1000 50-D problems")
    assert worst_l1 <= 1e-9
    assert worst_box <= 1e-9
    assert worst_idem <= 1e-9


def test_criterion_05_tree_dp_matches_brute_force():
    start = time.perf_counter()
    rng = np.random.default_rng(855)
    compared = 0
    for _ in range(200):
        n = int(rng.integers(2, 11))
        edges = [(int(rng.integers(0, v)), v, 1.0) for v in range(1, n)]
        net = build_network(n, edges, directed=True)
        inst = Instance(net, rng.uniform(0.05, 0.95, n), rng.uniform(0, 1, n))
        mask = None
        if rng.random() < 0.5:
            mask = rng.random(n) < 0.6
            if not mask.any():
                mask[int(rng.integers(0, n))] = True
        for mode in MODES:
            tree = TreeInstance(inst, voting=mask, mode=mode)
            dp = tree_dp_min_stooges(tree)
            bf_cost, _ = brute_force_min_stooges(tree)
            assert dp.feasible == (bf_cost is not None)
            if dp.feasible:
                assert dp.cost == bf_cost
            compared += 1
    elapsed = time.perf_counter() - start
    ok = compared == 600 and elapsed < 300.0
    _line(5, ok, f"{compared} DP vs brute-force agreements "
          f"(200 trees x 3 modes, voting masks), {elapsed:.1f}s vs 300s")
    assert compared == 600
    assert elapsed < 300.0


def _has_cover(n, subsets, k):
    universe = set(range(n))
    for size in range(1, k + 1):
        for combo in combinations(range(len(subsets)), size):
            if set().union(*(subsets[j] for j in combo)) == universe:
                return True
    return False


def test_criterion_06_gadget_discrimination():
    rng = np.random.default_rng(866)
    agree = 0
    for _ in range(50):
        n = int(rng.integers(2, 7))
        m = int(rng.integers(1, 6))
        k = int(rng.integers(1, min(m, 3) + 1))
        subsets = tuple(
            frozenset(rng.choice(n, size=int(rng.integers(1, n + 1)),
                                 replace=False).tolist())
            for _ in range(m)
        )
        spec = SetCoverSpec(n, subsets, k)
        inst, meta = gen_set_cover_gadget(spec)
        best = -1.0
        for combo in combinations(range(m), k):
            modified = intervene_on_sets(inst, meta, combo)
            best = max(best, median(equilibrium(modified).x_star))
        flipped = best > POSITIVE_TOL
        assert flipped == _has_cover(n, spec.subsets, k)
        agree += 1
    _line(6, agree == 50, f"{agree}/50 exact cover/median agreements")
    assert agree == 50


def test_criterion_07_lazy_greedy_consistency():
    rng = np.random.default_rng(877)
    checked = 0
    attempts = 0
    while checked < 20 and attempts < 80:
        attempts += 1
        n = int(rng.integers(4, 13))
        inst = random_connected_instance(rng, n, alpha_range=(0.5, 0.5))
        k = min(4, n)
        oracle, margin = exhaustive_greedy_oracle(inst, k, theta=0.9,
                                                  return_margin=True)
        if margin < 1e-9:  # argmax decided below solver noise, skip draw
            continue
        eager = lazy_greedy(inst, k=k, phi=0.0, theta=0.9)
        assert list(eager.stooges.items()) == oracle
        lazy = lazy_greedy(inst, k=k, phi=0.8, theta=0.9)
        for lazy_evals, eager_evals in zip(lazy.evals_per_iter,
                                           eager.evals_per_iter):
            assert lazy_evals <= eager_evals
        checked += 1
    _line(7, checked == 20, f"phi=0 equals exhaustive sequences on "
          f"{checked}/20 well-margined instances; phi=0.8 never evaluates "
          f"more per iteration")
    assert checked == 20


def test_criterion_08_grid_budget_trend():
    budgets = {"huber": [], "greedy": [], "random": []}
    for seed in range(10):
        inst = generate(GeneratorSpec("grid", dist="normal", seed=seed))
        huber_runs = []
        per_seed = {}
        for method in budgets:
            continuous = method == "huber"
            runner = method_runner(method, theta=0.5, seed=seed)
            if continuous:
                runner = _recording(runner, huber_runs)
            found = min_budget_to_flip(inst, runner, theta=0.5,
                                       continuous=continuous)
            if found is not None:
                per_seed[method] = 2.0 * found if continuous else float(found)
                budgets[method].append(per_seed[method])
        found_text = ", ".join(f"{m} {per_seed.get(m)}" for m in budgets)
        stops = dict(sorted(Counter(r.stop for r in huber_runs).items()))
        iterations = sum(r.iterations for r in huber_runs)
        print(f"criterion 08 seed {seed}: stooges {found_text}; huber "
              f"stops {stops}, iterations {iterations}, "
              f"c {find_c(inst, seed=seed):.3g}")
    means = {m: float(np.mean(v)) for m, v in budgets.items() if v}
    assert set(means) == {"huber", "greedy", "random"}
    ordering_ok = means["huber"] <= means["greedy"] <= means["random"]
    bound_ok = means["huber"] <= 30.0
    _line(8, ordering_ok and bound_ok,
          f"mean stooge-equivalents huber {means['huber']:.2f} <= greedy "
          f"{means['greedy']:.2f} <= random {means['random']:.2f}: "
          f"{'ok' if ordering_ok else 'violated'}; huber <= 30: "
          f"{'ok' if bound_ok else 'exceeded'}")
    assert ordering_ok, f"budget ordering violated: {means}"
    assert bound_ok, (
        f"huber mean budget-to-flip {means['huber']:.2f} stooge-equivalents "
        f"exceeds 30 (30% of n=100)")


def _recording(runner, results):
    def run(instance, budget):
        results.append(runner(instance, budget))
        return results[-1]
    return run


def test_criterion_09_hard_component_resists_all_methods():
    inst = fig1_component()
    n = inst.network.node_count
    for k in range(1, n + 1):
        for res in (
            lazy_greedy(inst, k=k, phi=0.8),
            lazy_greedy(inst, k=k, phi=0.0),
            lazy_greedy(inst, k=k, phi=0.8, gain=score_total),
        ):
            assert not res.flipped
        for kind in ("random", "degree", "centrality"):
            assert not baseline_select(inst, k, kind, seed=k).flipped
    # certificate: no resistance assignment at all flips this component
    best = -np.inf
    for assignment in product((None, 0.0, 1.0), repeat=n):
        alpha = inst.alpha.copy()
        for u, r in enumerate(assignment):
            if r is not None:
                alpha[u] = r
        x = dense_equilibrium(inst, alpha)
        best = max(best, float(np.sort(x)[n // 2]))
    _line(9, best <= 0.5, f"greedy and baselines unflipped at budgets "
          f"1..{n}; best achievable median {best:.4f} <= 0.5")
    assert best <= 0.5


def test_criterion_10_karate_spot_check():
    edges_path = DATA_DIR / "karate_edges.txt"
    opinions_path = DATA_DIR / "karate_opinions.txt"
    if not (edges_path.exists() and opinions_path.exists()):
        _line(10, True, "SKIP: karate opinion data not shipped")
        pytest.skip("karate opinion data not available")
    inst = load_edge_list(str(edges_path), str(opinions_path))
    stats = instance_stats(inst)
    ok = abs(stats.median - 0.46) <= 0.01 and abs(stats.mean - 0.47) <= 0.01
    _line(10, ok, f"median {stats.median:.4f} vs 0.46+-0.01, "
          f"mean {stats.mean:.4f} vs 0.47+-0.01")
    assert abs(stats.median - 0.46) <= 0.01
    assert abs(stats.mean - 0.47) <= 0.01
