import importlib

import numpy as np
import pytest

from medianflip import GeneratorSpec, Instance, build_network, generate, simulate
from medianflip.equilibrium import DENSE_MAX_NODES, equilibrium
from medianflip.estimators import HuberConfig, SigmoidConfig, huber_m_estimate
from medianflip.gradients import (
    equilibrium_jacobian_action,
    huber_gradient,
    sigmoid_gradient,
)

from helpers import exact_huber_estimate, fd_gradient, random_connected_instance


def test_action_with_full_resistance_is_diagonal():
    rng = np.random.default_rng(30)
    inst = random_connected_instance(rng, 8, alpha_range=(1.0, 1.0))
    v = rng.normal(0, 1, 8)
    W = inst.network.influence_matrix
    expected = (inst.s - W @ inst.s) * v  # X = I when alpha = 1
    out = equilibrium_jacobian_action(inst, equilibrium(inst), v)
    assert np.allclose(out, expected, atol=1e-9)


def test_action_of_zero_vector_is_zero():
    rng = np.random.default_rng(31)
    inst = random_connected_instance(rng, 6)
    assert np.array_equal(
        equilibrium_jacobian_action(inst, equilibrium(inst), np.zeros(6)),
        np.zeros(6))


def test_action_rejects_solution_without_operator():
    net = build_network(2, [(0, 1, 1.0)])
    inst = Instance(net, np.array([0.5, 0.5]), np.array([0.2, 0.8]))
    with pytest.raises(ValueError, match=r"equilibrium\(\)"):
        equilibrium_jacobian_action(inst, simulate(inst), np.ones(2))


def test_action_matches_finite_differences():
    rng = np.random.default_rng(32)
    for _ in range(5):
        inst = random_connected_instance(rng, 10)
        i = int(rng.integers(0, 10))
        v = np.zeros(10)
        v[i] = 1.0
        analytic = equilibrium_jacobian_action(inst, equilibrium(inst), v)
        fd = fd_gradient(inst, lambda x: x[i])
        assert np.linalg.norm(analytic - fd) <= 1e-4 * max(np.linalg.norm(fd), 1e-8)


def test_huber_gradient_single_node():
    net = build_network(1, [])
    inst = Instance(net, [0.5], [0.8])
    grad, y_hat = huber_gradient(inst, HuberConfig(c=0.2), equilibrium(inst))
    assert y_hat == pytest.approx(0.4)
    assert grad[0] == pytest.approx(0.8, abs=1e-9)  # dx*/dalpha = s


def test_huber_gradient_matches_finite_differences():
    rng = np.random.default_rng(33)
    c = 0.2
    cfg = HuberConfig(c)
    checked = 0
    for _ in range(12):
        inst = random_connected_instance(rng, 15)
        sol = equilibrium(inst)
        grad, y_hat = huber_gradient(inst, cfg, sol)
        margin = np.min(np.abs(np.abs(sol.x_star - y_hat) - c))
        if margin < 1e-4:
            continue  # membership boundary, derivative genuinely kinked
        fd = fd_gradient(inst, lambda x: exact_huber_estimate(x, c))
        rel = np.linalg.norm(grad - fd) / max(np.linalg.norm(fd), 1e-10)
        assert rel <= 1e-3
        checked += 1
    assert checked >= 6


def test_huber_gradient_constant_equilibrium_uses_all_members():
    net = build_network(3, [(0, 1, 1.0), (1, 2, 1.0)])
    inst = Instance(net, np.ones(3), np.full(3, 0.6))
    sol = equilibrium(inst)
    grad, y_hat = huber_gradient(inst, HuberConfig(c=0.1), sol)
    assert (np.abs(sol.x_star - y_hat) < 0.1).all()
    direct = equilibrium_jacobian_action(inst, sol, np.ones(3) / 3)
    assert np.allclose(grad, direct, atol=1e-12)


def test_huber_gradient_rejects_solution_without_operator():
    net = build_network(2, [(0, 1, 1.0)])
    inst = Instance(net, np.array([0.5, 0.5]), np.array([0.2, 0.8]))
    with pytest.raises(ValueError, match="no factored operator"):
        huber_gradient(inst, HuberConfig(0.2), simulate(inst))


def test_huber_gradient_empty_membership_expands():
    # two far-apart clusters and a tiny c: y_hat sits at the upper cluster
    # boundary in one of them, but shrink c below any residual via a
    # bimodal vector whose estimate lands midway
    net = build_network(2, [(0, 1, 1.0)])
    inst = Instance(net, [1.0, 1.0], [0.0, 1.0])
    # x* = (0, 1); with c = 0.3 the estimate is 0.5, both residuals 0.5 >= c
    sol = equilibrium(inst)
    grad, y_hat = huber_gradient(inst, HuberConfig(c=0.3), sol)
    residuals = np.abs(sol.x_star - y_hat)
    assert not (residuals < 0.3).any()
    # one doubling to 0.6 takes both nodes in
    members = residuals < 0.6
    assert members.all()
    pullback = equilibrium_jacobian_action(inst, sol, members / members.sum())
    assert np.array_equal(grad, pullback)
    assert grad.any()


def test_sigmoid_gradient_saturated_region_is_flat():
    rng = np.random.default_rng(34)
    inst = random_connected_instance(rng, 8, alpha_range=(0.9, 1.0))
    inst = inst.with_s(rng.uniform(0.9, 1.0, 8))
    grad, _ = sigmoid_gradient(inst, SigmoidConfig(theta=-0.2, tau=25.0),
                               equilibrium(inst))
    assert np.max(np.abs(grad)) <= 1e-8


def test_sigmoid_gradient_single_node_at_threshold():
    net = build_network(1, [])
    inst = Instance(net, [0.5], [0.8])  # x* = 0.4
    grad, objective = sigmoid_gradient(
        inst, SigmoidConfig(theta=0.4, tau=25.0), equilibrium(inst))
    assert objective == pytest.approx(0.5)
    assert grad[0] == pytest.approx(25.0 / 4 * 0.8, rel=1e-9)


def test_sigmoid_gradient_matches_finite_differences():
    rng = np.random.default_rng(35)
    cfg = SigmoidConfig(theta=0.5, tau=25.0)
    from medianflip.estimators import sigmoid_objective

    for _ in range(8):
        inst = random_connected_instance(rng, 10)
        grad, _ = sigmoid_gradient(inst, cfg, equilibrium(inst))
        fd = fd_gradient(inst, lambda x: sigmoid_objective(x, cfg))
        rel = np.linalg.norm(grad - fd) / max(np.linalg.norm(fd), 1e-10)
        assert rel <= 1e-3


def test_action_on_iterative_side_matches_simulated_differences():
    # above DENSE_MAX_NODES the adjoint is a GMRES solve; check it against
    # central differences of the fixed-point iteration, not of a solver
    inst = generate(GeneratorSpec("ba", dist="normal", seed=3,
                                  params={"n": DENSE_MAX_NODES + 40}))
    n = inst.node_count
    rng = np.random.default_rng(37)
    v = rng.normal(size=n)
    sol = equilibrium(inst)
    assert sol.iterations > 0
    analytic = equilibrium_jacobian_action(inst, sol, v)
    h = 1e-5
    for u in rng.choice(n, 4, replace=False):
        up, dn = inst.alpha.copy(), inst.alpha.copy()
        up[u] += h
        dn[u] -= h
        fd = (v @ simulate(inst, alpha=up, tol=1e-14).x_star
              - v @ simulate(inst, alpha=dn, tol=1e-14).x_star) / (2 * h)
        assert analytic[u] == pytest.approx(fd, rel=1e-5, abs=1e-8)


def test_gradient_reuses_the_forward_factor(monkeypatch):
    module = importlib.import_module("medianflip.equilibrium")
    inst = random_connected_instance(np.random.default_rng(38), 12)
    sol = equilibrium(inst)
    built = []
    original = module.EquilibriumOperator
    monkeypatch.setattr(module, "EquilibriumOperator",
                        lambda *a: built.append(1) or original(*a))
    huber_gradient(inst, HuberConfig(0.2), sol)
    sigmoid_gradient(inst, SigmoidConfig(), sol)
    assert built == []
