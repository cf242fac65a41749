import numpy as np
import pytest

from medianflip import Instance, build_network
from medianflip.equilibrium import equilibrium
from medianflip.estimators import HuberConfig, SigmoidConfig
from medianflip.optimize import (
    AdamState,
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


def test_zero_budget_is_exact_no_op():
    rng = np.random.default_rng(40)
    inst = random_connected_instance(rng, 10)
    base_median = median(equilibrium(inst).x_star)
    for runner, smooth in (
        (projected_huber, HuberConfig(0.1)),
        (sigmoid_gd, SigmoidConfig()),
    ):
        res = runner(inst, OptimizerConfig(budget_k=0.0), smooth)
        assert np.array_equal(res.alpha_final, inst.alpha)
        assert res.stooges == {}
        assert res.l1_budget_used == 0.0
        assert res.final_median == pytest.approx(base_median)


def test_single_node_huber_saturates_budget():
    res = projected_huber(
        single_node(), OptimizerConfig(budget_k=0.5, max_iters=100), HuberConfig(0.1)
    )
    assert res.alpha_final[0] == pytest.approx(1.0, abs=1e-6)
    assert res.final_median == pytest.approx(0.6, abs=1e-6)
    assert res.flipped


def test_single_node_sigmoid_flips():
    res = sigmoid_gd(
        single_node(), OptimizerConfig(budget_k=0.5, max_iters=100), SigmoidConfig()
    )
    assert res.final_median == pytest.approx(0.6, abs=1e-6)
    assert res.flipped


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
