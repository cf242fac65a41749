"""Generalized Friedkin-Johnsen equilibrium: factored solve and simulation.

Each round, node u mixes its innate opinion with the weighted average of
its out-neighbors' expressed opinions:

    x_u(t+1) = alpha_u * s_u + (1 - alpha_u) / deg(u) * sum_v w_uv * x_v(t)

In matrix form x(t+1) = A s + (I - A) W x(t) with A = Diag(alpha), so the
equilibrium solves X x = A s where X = I - (I - A) W. An
EquilibriumOperator holds X for one resistance vector and serves both
the forward solve X x = b and the adjoint solve X^T z = v, never through
an explicit inverse: up to DENSE_MAX_NODES nodes X is LU-factored once
as a dense matrix, above that each solve is a restarted GMRES run
(Saad, Iterative Methods for Sparse Linear Systems, 2003), which works
on X itself rather than on the normal equations. That X is never built:
GMRES applies it matrix-free through W, as X v = v - (1 - alpha) * (W v)
and X^T v = v - W^T ((1 - alpha) * v). An ascent hands each step's
solution to the next step, whose GMRES runs then start from the last
x* and the last adjoint z instead of from zero. Nodes with deg(u) = 0
have an all-zero W row and therefore x_u = alpha_u * s_u.

X is singular exactly when some closed class of W's graph (a sink
strongly connected component whose nodes have out-arcs) has alpha = 0
on every node: that class then only averages itself and never forgets
its start. Such systems are rejected before any solve.
"""

from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import lu_factor, lu_solve

DEFAULT_TOL = 1e-10

# Largest node count solved by dense LU; larger systems use GMRES. A dense
# LU costs O(n^3) whatever the topology, while a GMRES forward-plus-adjoint
# pair on these well-conditioned systems (11-15 iterations per cold solve)
# stays near 3-5 ms at these sizes, mostly per-iteration overhead. Dense
# build + factor + forward and adjoint solve with both residuals, against
# that matrix-free GMRES pair from cold starts, in ms as dense / GMRES,
# median of 60, on ba and gnp graphs (2 vCPUs shared with other jobs,
# OpenBLAS with 2 threads); ranges over three idle runs:
#   n     ba                  gnp
#   100   0.16-0.27 / 4.0-4.4 0.24-0.27 / 4.2-5.5
#   150   0.42-0.62 / 3.4-4.6 0.48-0.61 / 3.6-5.0
#   200   1.5-1.8 / 4.0-4.5   0.76-0.92 / 3.1-4.3
#   250   2.9-3.2 / 3.5-4.4   1.7-2.1 / 2.7-4.2
#   300   4.3-4.5 / 3.5-4.4   2.8-3.1 / 2.5-4.2
#   400   8.3-9.8 / 4.1-5.0   5.6-6.5 / 3.5-4.1
# and over two runs with the second CPU busy:
#   100   0.22-0.28 / 3.3-4.4 0.22-0.27 / 4.1-5.9
#   150   0.37-0.61 / 3.3-4.5 0.40-0.60 / 3.4-5.1
#   200   1.9-5.8 / 4.4-4.8   0.91-1.2 / 4.4-4.6
#   250   7.5-7.9 / 4.2-4.5   5.4-5.5 / 3.2-4.3
#   300   8.1-9.0 / 4.5-4.6   6.8-6.9 / 3.7-4.3
#   400   8.4-17 / 2.8-5.0    9.0-10 / 3.9-4.4
# The crossover sits near 300 nodes on ba and 300-400 on gnp idle, and
# near 200-250 busy. At 200 the dense path wins by 2x or more idle and in
# three of the four busy readings; one busy ba run read 5.8 ms dense.
DENSE_MAX_NODES = 200

# Krylov vectors GMRES keeps before it restarts.
GMRES_RESTART = 50


class SolverError(RuntimeError):
    """Raised when the equilibrium system is singular or a solve fails."""


@dataclass(frozen=True)
class EquilibriumSolution:
    """Equilibrium opinions with solver diagnostics.

    `iterations` counts GMRES iterations (0 for a dense solve, rounds for
    `simulate`); `operator` is the factored system the opinions came
    from, kept so that adjoint solves can reuse it.
    """

    x_star: np.ndarray
    residual: float
    iterations: int
    converged: bool = True
    operator: "EquilibriumOperator" = field(default=None, repr=False,
                                            compare=False)


class EquilibriumOperator:
    """X = I - (I - A) W for one (instance, alpha).

    Raises SolverError naming the offending nodes when X is singular.
    Dense systems are LU-factored here; `solve` and `solve_T` then reuse
    the factor. Sparse systems are solved by GMRES(GMRES_RESTART) on the
    matrix-free X to the relative residual DEFAULT_TOL, with at most
    about 10 * n iterations. `start`, the EquilibriumSolution of a nearby
    alpha, seeds those runs: `solve` starts from its x* and `solve_T`
    from the latest adjoint solution of its operator. The dense path
    ignores it. Either solve raises SolverError when its residual is not
    finite or exceeds 1e-6 * max(1, ||rhs||).
    """

    def __init__(self, instance, alpha=None, start=None):
        alpha = instance.alpha if alpha is None else np.asarray(alpha, float)
        _reject_singular(instance.network, alpha)
        self.b = alpha * instance.s
        self.adjoint = None  # z of the latest solve_T
        n = instance.node_count
        W = instance.network.influence_matrix
        if n <= DENSE_MAX_NODES:
            self.X = np.eye(n) - (1.0 - alpha)[:, None] * W.toarray()
            self._lu = lu_factor(self.X, check_finite=False)
            return
        self._lu = None
        self._W, self._WT, self._fade = W, W.T, 1.0 - alpha
        self._x0 = self._z0 = None
        if start is not None:
            self._x0 = start.x_star
            if start.operator is not None:
                self._z0 = start.operator.adjoint

    def solve(self, b):
        """x with X x = b."""
        return self._solve(b, False)[0]

    def solve_T(self, v):
        """z with X^T z = v."""
        self.adjoint = self._solve(v, True)[0]
        return self.adjoint

    def _apply(self, v, transpose):
        """X v, or X^T v when transpose."""
        if self._lu is not None:
            return (self.X.T if transpose else self.X) @ v
        if transpose:
            return v - self._WT @ (self._fade * v)
        return v - self._fade * (self._W @ v)

    def _solve(self, rhs, transpose):
        """(solution, residual, GMRES iterations, converged)."""
        rhs = np.asarray(rhs, dtype=float)
        if self._lu is not None:
            kind = "dense"
            x = lu_solve(self._lu, rhs, trans=int(transpose),
                         check_finite=False)
            itn, converged = 0, True
        else:
            # imported here: processes that only solve small systems never
            # load scipy.sparse.linalg, about 2 MB of resident memory
            from scipy.sparse.linalg import LinearOperator, gmres

            n = len(rhs)
            M = LinearOperator((n, n), dtype=float,
                               matvec=lambda v: self._apply(v, transpose))
            steps = []
            # maxiter counts restart cycles: about 10 n iterations in all
            x, info = gmres(M, rhs, x0=self._z0 if transpose else self._x0,
                            rtol=DEFAULT_TOL, atol=0.0,
                            restart=GMRES_RESTART,
                            maxiter=10 * n // GMRES_RESTART + 1,
                            callback=steps.append, callback_type="pr_norm")
            itn, converged = len(steps), info == 0
            kind = f"GMRES ({itn} iterations)"
        residual = float(np.linalg.norm(self._apply(x, transpose) - rhs))
        if not residual <= 1e-6 * max(1.0, float(np.linalg.norm(rhs))):
            # also catches a non-finite residual
            raise SolverError(
                f"{kind} equilibrium solve left residual {residual:.3e}")
        return x, residual, itn, converged


def _reject_singular(network, alpha):
    """Raise SolverError if X = I - (I - A) W is singular.

    That happens exactly when some node can reach only nodes with
    alpha = 0 and out-arcs: the closed class it reaches then averages
    itself forever. Such nodes are found by peeling: start from every
    node with alpha = 0 and out-arcs and drop, round by round, each one
    that has an out-neighbor outside the set. No round runs unless some
    alpha is 0, and each round is one sparse product.
    """
    stuck = (alpha == 0) & (network.deg > 0)
    count = np.count_nonzero(stuck)
    while count:
        stuck &= network.influence_matrix @ ~stuck == 0
        count, before = np.count_nonzero(stuck), count
        if count == before:
            raise SolverError(
                f"singular system: nodes {np.flatnonzero(stuck).tolist()} "
                f"have alpha = 0 and reach only each other")


def equilibrium(instance, alpha=None, start=None):
    """Solve X x = A s for the equilibrium opinions.

    Factors X once (see EquilibriumOperator) and returns the operator on
    the solution. Above DENSE_MAX_NODES, DEFAULT_TOL is the relative
    residual GMRES aims for; the solve fails only if its residual exceeds
    1e-6 * max(1, ||A s||). `start`, the solution at a nearby alpha,
    only sets where GMRES starts. Raises SolverError.
    """
    op = EquilibriumOperator(instance, alpha, start)
    x, residual, itn, converged = op._solve(op.b, False)
    return EquilibriumSolution(x, residual, itn, converged, op)


def simulate(instance, alpha=None, max_rounds=100_000, tol=DEFAULT_TOL):
    """Iterate the opinion update from x(0) = s until the sup-norm change
    drops below tol.

    Serves as the independent fixed-point oracle for `equilibrium`. On
    non-convergence the partial result is returned with converged=False.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    if alpha is None:
        alpha = instance.alpha
    W = instance.network.influence_matrix
    b = alpha * instance.s
    fade = 1.0 - alpha
    x = instance.s.copy()
    rounds, converged = 0, False
    for rounds in range(1, max_rounds + 1):
        x_next = b + fade * (W @ x)
        delta = float(np.max(np.abs(x_next - x))) if len(x) else 0.0
        x = x_next
        if delta < tol:
            converged = True
            break
    residual = float(np.linalg.norm(x - fade * (W @ x) - b))
    return EquilibriumSolution(x, residual, rounds, converged)
