"""Tests for the benchmark's answer checks and tracer.

    python3 -m pytest perfbench

Each check must accept the program's real answer on a small instance and
reject a deliberately wrong one.
"""

import os
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]

import checks  # noqa: E402
from medianflip import (GeneratorSpec, OptimizerConfig,  # noqa: E402
                        SigmoidConfig, TreeInstance, generate, method_runner,
                        min_budget_to_flip, sigmoid_gd, tree_dp_min_stooges,
                        tree_equilibrium)
from medianflip.treedp import apply_assignment  # noqa: E402


def view(inst):
    net = inst.network
    edges = [(int(u), int(v), float(w))
             for u, v, w in zip(net.arc_src, net.arc_dst, net.arc_w)
             if net.directed or u <= v]
    return (net.node_count, edges, net.directed, inst.alpha.copy(),
            inst.s.copy())


def search(inst, method, continuous, params=None):
    runner = method_runner(method, seed=0, params=params)
    calls = []

    def recording(instance, budget):
        result = runner(instance, budget)
        calls.append((budget, result.alpha_final, result.stooges,
                      result.final_median, result.flipped))
        return result

    found = min_budget_to_flip(inst, recording, continuous=continuous)
    return found, calls


@pytest.fixture(scope="module")
def grid():
    return generate(GeneratorSpec("grid", seed=2,
                                  params={"rows": 4, "cols": 4}))


@pytest.fixture(scope="module")
def huber(grid):
    return search(grid, "huber", True, params={"max_iters": 10})


def test_continuous_search_accepts_program_answer(grid, huber):
    found, calls = huber
    assert checks.check_continuous_search(view(grid), calls, found, 0.25) == []


def test_continuous_search_rejects_alpha_over_budget(grid, huber):
    found, calls = huber
    radius, alpha, _, med, flipped = next(c for c in calls if c[0] == found)
    shrunk = [(radius / 2, alpha, {}, med, flipped)]
    problems = checks.check_continuous_search(view(grid), shrunk,
                                              radius / 2, 0.25)
    assert any("over budget" in p for p in problems)


def test_continuous_search_rejects_median_at_theta(grid, huber):
    found, calls = huber
    fake = calls + [(found / 2, view(grid)[3], {}, 0.51, True)]
    problems = checks.check_continuous_search(view(grid), fake, found / 2,
                                              0.25)
    assert any("reported median" in p for p in problems)
    assert any("does not flip" in p for p in problems)


def test_continuous_search_rejects_unbracketed_radius(grid, huber):
    found, calls = huber
    assert found > 0.25
    kept = [c for c in calls if not (found - 0.25 <= c[0] < found)]
    problems = checks.check_continuous_search(view(grid), kept, found, 0.25)
    assert any("no unflipped radius" in p for p in problems)


@pytest.fixture(scope="module")
def greedy_scan(grid):
    return search(grid, "greedy", False)


def test_discrete_search_accepts_program_answer(grid, greedy_scan):
    found, calls = greedy_scan
    assert checks.check_discrete_search(view(grid), calls, found) == []


def test_discrete_search_rejects_early_budget(grid, greedy_scan):
    found, calls = greedy_scan
    assert checks.check_discrete_search(view(grid), calls[:-1],
                                        found - 1) != []


def test_discrete_search_rejects_unpinned_stooge(grid, greedy_scan):
    found, calls = greedy_scan
    k, alpha, stooges, med, flipped = calls[-1]
    alpha = alpha.copy()
    u = next(iter(stooges))
    alpha[u] = 0.7
    problems = checks.check_discrete_search(
        view(grid), calls[:-1] + [(k, alpha, stooges, med, flipped)], found)
    assert any("not pinned" in p for p in problems)


def test_discrete_search_rejects_too_many_stooges(grid, greedy_scan):
    found, calls = greedy_scan
    _, alpha, stooges, med, flipped = calls[-1]
    alpha = alpha.copy()
    extra = next(u for u in range(len(alpha)) if u not in stooges)
    alpha[extra] = 1.0
    problems = checks.check_discrete_search(
        view(grid), calls[:-1] + [(found, alpha, {**stooges, extra: 1.0},
                                   med, flipped)], found)
    assert any("over budget" in p for p in problems)


def degree_measure(case):
    n, edges, directed = case[:3]
    measure = np.zeros(n)
    for u, _, w in checks.arcs(edges, directed):
        measure[u] += w
    return measure


@pytest.fixture(scope="module")
def degree_scan(grid):
    found, calls = search(grid, "degree", False)
    return found, list(calls[-1][2].items())


def test_baseline_scan_accepts_program_answer(grid, degree_scan):
    found, selection = degree_scan
    case = view(grid)
    assert checks.check_baseline_scan(case, selection, degree_measure(case),
                                      found) == []


def test_baseline_scan_rejects_wrong_budget(grid, degree_scan):
    found, selection = degree_scan
    case = view(grid)
    problems = checks.check_baseline_scan(case, selection[:-1],
                                          degree_measure(case), found - 1)
    assert any("own scan" in p for p in problems)


def test_baseline_scan_rejects_order_against_measure(grid, degree_scan):
    found, selection = degree_scan
    case = view(grid)
    measure = degree_measure(case)
    low = int(np.argmin(measure))
    r = 1.0 if case[4][low] > 0.5 else 0.0
    wrong = [(low, r)] + [p for p in selection if p[0] != low][:found - 1]
    problems = checks.check_baseline_scan(case, wrong, measure, found)
    assert any("ranked above" in p for p in problems)


def test_baseline_scan_rejects_pin_against_rule(grid, degree_scan):
    found, selection = degree_scan
    flipped_rule = [(u, 1.0 - r) for u, r in selection]
    problems = checks.check_baseline_scan(view(grid), flipped_rule,
                                          degree_measure(view(grid)), found)
    assert any("against the rule" in p for p in problems)


@pytest.fixture(scope="module")
def tree_answer():
    inst = generate(GeneratorSpec("org_chart", seed=0, params={"n": 40}))
    tree = TreeInstance(inst, mode="both")
    res = tree_dp_min_stooges(tree)
    alpha, s = apply_assignment(tree, res.assignment)
    return view(inst), set(res.assignment), tree_equilibrium(tree, alpha, s)


def test_tree_check_accepts_program_answer(tree_answer):
    case, stooges, x = tree_answer
    assert stooges
    assert checks.check_tree_answer(case, stooges, x) == []


def test_tree_check_rejects_redundant_stooge(tree_answer):
    case, stooges, _ = tree_answer
    extra = next(u for u in range(case[0]) if u not in stooges)
    problems = checks.check_tree_answer(case, stooges | {extra}, None)
    assert any("redundant" in p for p in problems)


def test_tree_check_rejects_too_few_votes(tree_answer):
    case, stooges, _ = tree_answer
    problems = checks.check_tree_answer(case, set(list(stooges)[1:]), None)
    assert any("need" in p for p in problems)


def test_tree_check_rejects_other_opinions(tree_answer):
    case, stooges, x = tree_answer
    problems = checks.check_tree_answer(case, stooges, x + 1e-6)
    assert any("differ" in p for p in problems)


def test_tree_pass_keeps_leaves_at_innate_opinion():
    edges = [(0, 1, 1.0), (0, 2, 3.0)]
    alpha = np.array([0.5, 0.2, 0.9])
    s = np.array([0.1, 0.4, 0.8])
    x = checks.tree_pass(3, edges, alpha, s)
    assert x[1:] == pytest.approx([0.4, 0.8])
    assert x[0] == pytest.approx(0.5 * 0.1 + 0.5 * (0.4 + 3 * 0.8) / 4)


@pytest.fixture(scope="module")
def sigmoid_answer():
    inst = generate(GeneratorSpec("ba", seed=0, params={"n": 300}))
    res = sigmoid_gd(inst, OptimizerConfig(budget_k=5.0, max_iters=10),
                     SigmoidConfig())
    x, _ = checks.iterate_equilibrium(*view(inst))
    return view(inst), res, checks.upper_median(x)


def test_sparse_check_accepts_program_answer(sigmoid_answer):
    case, res, base = sigmoid_answer
    assert checks.check_sparse_answer(case, res.alpha_final,
                                      res.final_median, res.flipped, 5.0,
                                      base) == []


def test_sparse_check_rejects_alpha_over_budget(sigmoid_answer):
    case, res, base = sigmoid_answer
    problems = checks.check_sparse_answer(case, res.alpha_final,
                                          res.final_median, res.flipped,
                                          2.0, base)
    assert any("over budget" in p for p in problems)


def test_sparse_check_rejects_wrong_median(sigmoid_answer):
    case, res, base = sigmoid_answer
    problems = checks.check_sparse_answer(case, res.alpha_final,
                                          res.final_median + 1e-4,
                                          res.flipped, 5.0, base)
    assert any("reported median" in p for p in problems)


def test_sparse_check_rejects_median_below_start(sigmoid_answer):
    case, res, base = sigmoid_answer
    problems = checks.check_sparse_answer(case, case[3], base, False, 5.0,
                                          base + 0.01)
    assert any("below the unmodified" in p for p in problems)


def test_tracer_counts_self_time_and_restores(grid):
    from medianflip import greedy
    from spans import Tracer

    original = greedy.equilibrium
    with Tracer() as tracer:
        tracer.phase = "ops"
        greedy.lazy_greedy(grid, 2)
    assert greedy.equilibrium is original
    layers = tracer.per_layer(rounds=1)
    assert layers["equilibrium.calls"][0] > 0
    assert layers["greedy.candidate_evals"][0] >= 2 * grid.node_count
    lazy = [s for s in tracer.spans if s[0] == "greedy.lazy"][0]
    assert 0 < layers["greedy.lazy_s"][0] < lazy[3] - lazy[2]
