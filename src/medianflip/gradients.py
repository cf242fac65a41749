"""Analytic gradients of the median surrogates with respect to resistances.

Differentiating X x* = A s with X = I - (I - A) W gives the Jacobian
J = dx*/dalpha = X^{-1} Diag(s - W x*). All gradients are pulled back
through J^T v = Diag(s - W x*) X^{-T} v, one adjoint solve per gradient
on the operator that already gave x*, so an ascent step factors X once;
the full Jacobian is never materialized. Each gradient takes the
EquilibriumSolution its caller solved and solves no equilibrium itself.
"""

import numpy as np

from .estimators import huber_m_estimate, sigmoid


def equilibrium_jacobian_action(instance, solution, v):
    """(dx*/dalpha)^T v = Diag(s - W x*) z where X^T z = v.

    `solution` is the EquilibriumSolution that `equilibrium` returned
    for x*; the adjoint solve reuses its operator, so X is never
    factored again.
    """
    if solution.operator is None:
        raise ValueError("solution carries no factored operator; pass the "
                         "EquilibriumSolution that equilibrium() returned")
    v = np.asarray(v, dtype=float)
    if not v.any():
        return np.zeros_like(v)
    z = solution.operator.solve_T(v)
    W = instance.network.influence_matrix
    return (instance.s - W @ solution.x_star) * z


def huber_gradient(instance, config, solution):
    """Gradient of y_hat(alpha) = argmin_y sum_i H_c(x*_i(alpha) - y) at
    the EquilibriumSolution that `equilibrium` returned for alpha.

    Returns (gradient, y_hat). Membership set I = {i : |x*_i - y_hat| <
    c}. The formula averages the Jacobian rows over I; an empty I
    (possible when every residual is at least c) is handled by doubling
    the radius until I is nonempty.
    """
    x_star = solution.x_star
    y_hat = huber_m_estimate(x_star, config)
    radius = config.c
    members = np.abs(x_star - y_hat) < radius
    while not members.any():
        radius *= 2.0
        members = np.abs(x_star - y_hat) < radius
    grad = equilibrium_jacobian_action(
        instance, solution, members.astype(float)) / members.sum()
    return grad, y_hat


def sigmoid_gradient(instance, config, solution):
    """Gradient of f(alpha) = sum_u sigmoid(tau * (x*_u - theta)) at the
    EquilibriumSolution that `equilibrium` returned for alpha.

    Returns (gradient, f). The pullback weight for node u is the sigmoid
    derivative tau * sig_u * (1 - sig_u) evaluated at the equilibrium.
    """
    sig = sigmoid(config.tau * (solution.x_star - config.theta))
    weights = config.tau * sig * (1.0 - sig)
    grad = equilibrium_jacobian_action(instance, solution, weights)
    return grad, float(sig.sum())
