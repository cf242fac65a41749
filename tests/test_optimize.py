from dataclasses import replace

import numpy as np
import pytest

from medianflip import GeneratorSpec, Instance, build_network, generate
from medianflip.bench import method_runner
from medianflip.equilibrium import equilibrium
from medianflip.estimators import HuberConfig, SigmoidConfig
from medianflip.greedy import min_budget_to_flip
from medianflip.optimize import (
    AdamState,
    InterventionResult,
    OptimizerConfig,
    adam_step,
    projected_huber,
    sigmoid_gd,
)
from medianflip.stats import median

from helpers import random_connected_instance


def single_node(s=0.6, alpha=0.5):
    return Instance(build_network(1, []), [alpha], [s])


def test_adam_zero_gradient_is_a_no_op():
    state = AdamState(3)
    step = adam_step(state, np.zeros(3), eta=0.05)
    assert np.array_equal(step, np.zeros(3))


def test_adam_first_step_is_sign_scaled():
    state = AdamState(3)
    g = np.array([2.0, -0.5, 1e-3])
    step = adam_step(state, g, eta=0.05)
    assert np.allclose(step, 0.05 * np.sign(g), atol=1e-4)


def test_adam_constant_gradient_moves_monotonically():
    state = AdamState(1)
    pos = 0.0
    history = []
    for _ in range(20):
        pos += adam_step(state, np.array([1.0]), eta=0.05)[0]
        history.append(pos)
    assert all(b > a for a, b in zip(history, history[1:]))


def test_optimizer_config_validation():
    with pytest.raises(ValueError):
        OptimizerConfig(budget_k=-1.0)
    with pytest.raises(ValueError):
        OptimizerConfig(budget_k=1.0, eta=0.0)
    with pytest.raises(ValueError, match="eta"):
        OptimizerConfig(budget_k=1.0, eta=float("nan"))
    with pytest.raises(ValueError, match="budget_k"):
        OptimizerConfig(budget_k=float("nan"))


@pytest.mark.parametrize("max_iters", [0, -3, 2.5, 3.0, True, "5", None])
def test_max_iters_must_be_a_positive_integer(max_iters):
    with pytest.raises(ValueError, match="max_iters must be an integer"):
        OptimizerConfig(budget_k=1.0, max_iters=max_iters)


def test_max_iters_accepts_integers():
    assert OptimizerConfig(1.0, max_iters=np.int64(3)).max_iters == 3
    assert OptimizerConfig(1.0, max_iters=1).max_iters == 1


def test_zero_budget_is_exact_no_op():
    # seed 45's base median, 0.363, does not flip: the ascent must run
    rng = np.random.default_rng(45)
    inst = random_connected_instance(rng, 10)
    base_median = median(equilibrium(inst).x_star)
    assert base_median <= 0.5
    for runner, smooth in (
        (projected_huber, HuberConfig(0.1)),
        (sigmoid_gd, SigmoidConfig()),
    ):
        res = runner(inst, OptimizerConfig(budget_k=0.0), smooth)
        assert np.array_equal(res.alpha_final, inst.alpha)
        assert res.stooges == {}
        assert res.l1_budget_used == 0.0 and res.l0_budget_used == 0
        assert res.final_median == pytest.approx(base_median)
        # the projection pins the first step to alpha0: one iteration
        assert res.converged and res.iterations == 1
        assert len(res.objective_trace) == 1
        assert res.stop == "converged" and not res.flipped


def test_already_flipped_instance_returns_alpha0_after_no_step():
    # seed 40's base median, 0.696, already exceeds theta
    rng = np.random.default_rng(40)
    inst = random_connected_instance(rng, 10)
    for runner, smooth in (
        (projected_huber, HuberConfig(0.1)),
        (sigmoid_gd, SigmoidConfig()),
    ):
        res = runner(inst, OptimizerConfig(budget_k=2.0), smooth)
        assert np.array_equal(res.alpha_final, inst.alpha)
        assert res.iterations == 0 and res.objective_trace == []
        assert res.flipped and res.stop == "flipped"
        assert res.final_median == median(equilibrium(inst).x_star)


def test_single_node_huber_stops_at_first_flip():
    # x = alpha * s on a node without arcs: it flips once alpha > 5/6
    res = projected_huber(
        single_node(), OptimizerConfig(budget_k=0.5, max_iters=100), HuberConfig(0.1)
    )
    assert res.flipped and res.stop == "flipped"
    assert 0.5 < res.final_median <= 0.6
    assert 5 / 6 < res.alpha_final[0] <= 1.0
    assert res.l1_budget_used <= 0.5
    assert res.final_median == pytest.approx(0.6 * res.alpha_final[0])


def test_single_node_sigmoid_flips():
    res = sigmoid_gd(
        single_node(), OptimizerConfig(budget_k=0.5, max_iters=100), SigmoidConfig()
    )
    assert res.flipped and res.stop == "flipped"
    assert 0.5 < res.final_median <= 0.6
    assert 5 / 6 < res.alpha_final[0] <= 1.0
    assert res.l1_budget_used <= 0.5


@pytest.mark.parametrize("runner, smooth", [
    (projected_huber, HuberConfig(0.05)), (sigmoid_gd, SigmoidConfig())])
def test_flipping_ascent_returns_its_first_flipping_iterate(runner, smooth):
    inst = generate(GeneratorSpec("grid", dist="normal", seed=1,
                                  params={"rows": 6, "cols": 6}))
    config = OptimizerConfig(budget_k=6.0, max_iters=300)
    res = runner(inst, config, smooth)
    assert res.flipped and res.stop == "flipped"
    assert res.iterations == len(res.objective_trace) > 0
    # every earlier iterate is on the trace, and none of them flipped
    assert all(e.true_median <= 0.5 for e in res.objective_trace)
    assert res.final_median == median(
        equilibrium(inst, alpha=res.alpha_final).x_star)
    # capped one step short of the flip, the same ascent does not flip
    short = runner(inst, replace(config, max_iters=res.iterations - 1),
                   smooth)
    assert short.stop == "cap" and not short.flipped
    assert short.objective_trace == res.objective_trace[:-1]


def test_converged_reads_the_stop():
    # a flipped ascent reads as converged; only a cap stop does not
    flipped, capped = (
        projected_huber(single_node(), OptimizerConfig(
            budget_k=0.5, max_iters=max_iters), HuberConfig(0.1))
        for max_iters in (100, 1))
    assert flipped.stop == "flipped" and flipped.converged
    assert capped.stop == "cap" and not capped.converged
    with pytest.raises(TypeError):  # a property, not a field
        InterventionResult(np.zeros(1), {}, 0, 0.0, 0.3, False,
                           converged=False)


@pytest.mark.parametrize("max_iters", [1, 3])
def test_capped_ascent_reports_cap(max_iters):
    rng = np.random.default_rng(45)
    inst = random_connected_instance(rng, 10)
    res = projected_huber(inst, OptimizerConfig(budget_k=1.0,
                                                max_iters=max_iters),
                          HuberConfig(0.1))
    assert res.stop == "cap" and not res.converged
    assert res.iterations == max_iters


def test_iterates_stay_within_budget():
    rng = np.random.default_rng(41)
    inst = random_connected_instance(rng, 12, alpha_range=(0.5, 0.5))
    k = 1.5
    res = projected_huber(
        inst, OptimizerConfig(budget_k=k, max_iters=60), HuberConfig(0.1)
    )
    assert all(e.l1_used <= k + 1e-9 for e in res.objective_trace)
    assert res.l1_budget_used <= k + 1e-9
    assert np.all(res.alpha_final >= 0) and np.all(res.alpha_final <= 1)


def test_returns_best_iterate_by_true_median():
    rng = np.random.default_rng(42)
    inst = random_connected_instance(rng, 12, alpha_range=(0.5, 0.5))
    res = sigmoid_gd(
        inst, OptimizerConfig(budget_k=1.0, max_iters=40), SigmoidConfig()
    )
    assert res.final_median >= max(e.true_median for e in res.objective_trace)


def test_huber_raises_median_on_a_path():
    net = build_network(6, [(u, u + 1, 1.0) for u in range(5)])
    inst = Instance(net, np.full(6, 0.5), np.array([0.2, 0.3, 0.35, 0.45, 0.55, 0.6]))
    base = median(equilibrium(inst).x_star)
    res = projected_huber(
        inst, OptimizerConfig(budget_k=1.0, max_iters=150), HuberConfig(0.1)
    )
    assert res.final_median > base


def test_trace_records_every_iteration():
    res = projected_huber(
        single_node(), OptimizerConfig(budget_k=0.3, max_iters=25), HuberConfig(0.1)
    )
    assert [e.iteration for e in res.objective_trace] == list(
        range(1, len(res.objective_trace) + 1)
    )
    assert res.iterations == len(res.objective_trace)


# l1 flip budgets pinned from the ascent that kept climbing past its
# first flip; an ascent's first flip decides `flipped` alone, so a
# search that stops there finds the same budgets
@pytest.mark.parametrize("seed, method, found", [
    (1, "huber", 6.046875), (1, "sigmoid", 6.046875),
    (3, "huber", 4.640625), (3, "sigmoid", 4.921875)])
def test_flip_budgets_match_the_keep_climbing_ascent(seed, method, found):
    inst = generate(GeneratorSpec("grid", dist="normal", seed=seed,
                                  params={"rows": 6, "cols": 6}))
    runner = method_runner(method, theta=0.5, seed=seed)
    assert min_budget_to_flip(inst, runner, theta=0.5,
                              continuous=True) == found
