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
    res = huber_gradient(inst, HuberConfig(c=0.2))
    assert res.y_hat == pytest.approx(0.4)
    assert res.members.tolist() == [True]
    assert res.gradient[0] == pytest.approx(0.8, abs=1e-9)  # dx*/dalpha = s


def test_huber_gradient_matches_finite_differences():
    rng = np.random.default_rng(33)
    c = 0.2
    cfg = HuberConfig(c)
    checked = 0
    for _ in range(12):
        inst = random_connected_instance(rng, 15)
        res = huber_gradient(inst, cfg)
        margin = np.min(np.abs(np.abs(res.x_star - res.y_hat) - c))
        if margin < 1e-4:
            continue  # membership boundary, derivative genuinely kinked
        fd = fd_gradient(inst, lambda x: exact_huber_estimate(x, c))
        rel = np.linalg.norm(res.gradient - fd) / max(np.linalg.norm(fd), 1e-10)
        assert rel <= 1e-3
        checked += 1
    assert checked >= 6


def test_huber_gradient_constant_equilibrium_uses_all_members():
    net = build_network(3, [(0, 1, 1.0), (1, 2, 1.0)])
    inst = Instance(net, np.ones(3), np.full(3, 0.6))
    res = huber_gradient(inst, HuberConfig(c=0.1))
    assert res.members.all()
    direct = equilibrium_jacobian_action(inst, equilibrium(inst),
                                         np.ones(3) / 3)
    assert np.allclose(res.gradient, direct, atol=1e-12)


def test_huber_gradient_empty_membership_expands():
    # two far-apart clusters and a tiny c: y_hat sits at the upper cluster
    # boundary in one of them, but shrink c below any residual via a
    # bimodal vector whose estimate lands midway
    net = build_network(2, [(0, 1, 1.0)])
    inst = Instance(net, [1.0, 1.0], [0.0, 1.0])
    # x* = (0, 1); with c = 0.3 the estimate is 0.5, both residuals 0.5 >= c
    res = huber_gradient(inst, HuberConfig(c=0.3))
    assert res.expansions >= 1
    assert res.members.any()


def test_sigmoid_gradient_saturated_region_is_flat():
    rng = np.random.default_rng(34)
    inst = random_connected_instance(rng, 8, alpha_range=(0.9, 1.0))
    inst = inst.with_s(rng.uniform(0.9, 1.0, 8))
    res = sigmoid_gradient(inst, SigmoidConfig(theta=-0.2, tau=25.0))
    assert np.max(np.abs(res.gradient)) <= 1e-8


def test_sigmoid_gradient_single_node_at_threshold():
    net = build_network(1, [])
    inst = Instance(net, [0.5], [0.8])  # x* = 0.4
    res = sigmoid_gradient(inst, SigmoidConfig(theta=0.4, tau=25.0))
    assert res.gradient[0] == pytest.approx(25.0 / 4 * 0.8, rel=1e-9)


def test_sigmoid_gradient_matches_finite_differences():
    rng = np.random.default_rng(35)
    cfg = SigmoidConfig(theta=0.5, tau=25.0)
    from medianflip.estimators import sigmoid_objective

    for _ in range(8):
        inst = random_connected_instance(rng, 10)
        res = sigmoid_gradient(inst, cfg)
        fd = fd_gradient(inst, lambda x: sigmoid_objective(x, cfg))
        rel = np.linalg.norm(res.gradient - fd) / max(np.linalg.norm(fd), 1e-10)
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
    built = []
    original = module.EquilibriumOperator
    monkeypatch.setattr(module, "EquilibriumOperator",
                        lambda *a: built.append(1) or original(*a))
    inst = random_connected_instance(np.random.default_rng(38), 12)
    huber_gradient(inst, HuberConfig(0.2))
    assert built == [1]
    sigmoid_gradient(inst, SigmoidConfig())
    assert built == [1, 1]
