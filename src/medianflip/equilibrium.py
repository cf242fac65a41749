"""Generalized Friedkin-Johnsen equilibrium: factored solve and simulation.

Each round, node u mixes its innate opinion with the weighted average of
its out-neighbors' expressed opinions:

    x_u(t+1) = alpha_u * s_u + (1 - alpha_u) / deg(u) * sum_v w_uv * x_v(t)

In matrix form x(t+1) = A s + (I - A) W x(t) with A = Diag(alpha), so the
equilibrium solves X x = A s where X = I - (I - A) W. An
EquilibriumOperator holds X for one resistance vector and serves both
the forward solve X x = b and the adjoint solve X^T z = v, never through
an explicit inverse: up to DENSE_MAX_NODES nodes X is built from the
network's dense W and LU-factored once by LAPACK's getrf, and each solve
is one getrs call on that factor; above that each solve is a restarted
GMRES run (Saad, Iterative Methods for Sparse Linear Systems, 2003),
which works on X itself rather than on the normal equations. That X is never built:
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
from functools import partial

import numpy as np

DEFAULT_TOL = 1e-10

# Largest node count solved by dense LU; larger systems use GMRES. A dense
# LU costs O(n^3) whatever the topology, while a GMRES forward-plus-adjoint
# pair on these well-conditioned systems (11-15 iterations per cold solve)
# stays near 2-5 ms at these sizes, mostly per-iteration overhead. X built
# from the network's cached dense W + getrf + getrs forward and adjoint
# with both residuals, against that matrix-free GMRES pair from cold
# starts, in ms as dense / GMRES, median of 60, on ba and gnp graphs
# (2 vCPUs shared with other jobs, load average near 1, OpenBLAS with
# 2 threads); ranges over four runs:
#   n     ba                  gnp
#   100   0.12-0.19 / 2.4-4.3 0.11-0.19 / 2.6-4.7
#   150   0.30-0.47 / 2.4-3.7 0.31-0.49 / 2.7-4.3
#   200   0.53-0.82 / 2.3-4.1 0.53-0.80 / 2.3-4.0
#   250   1.2-1.7 / 2.3-3.8   1.2-1.9 / 2.2-3.8
#   300   1.9-2.9 / 2.4-4.8   1.9-2.0 / 2.2-2.3
#   400   4.2-4.6 / 2.4-4.1   4.1-4.4 / 2.0-3.2
# The crossover sits near 300 nodes. An earlier measurement with the
# second CPU busy saw OpenBLAS's threaded LU slow from about 250 nodes
# (5-8 ms at 250), so the cutoff stays at 200, where the dense path wins
# by 3.5x or more in each run above.
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
    Dense systems are LU-factored here by LAPACK's getrf, which raises
    SolverError if it meets an exactly zero pivot; `solve` and `solve_T`
    then call getrs on the factor, without or with transposition.
    Sparse systems are solved by GMRES(GMRES_RESTART) on the
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
        if n <= DENSE_MAX_NODES:
            # imported here: processes that never solve a dense system
            # never load scipy.linalg, about 8 MB of resident memory
            from scipy.linalg.lapack import dgetrf, dgetrs

            # 0 - (1 - alpha) W, then 1 added on the diagonal: the bits of
            # eye(n) - (1 - alpha) W, +0.0 off the support of W included
            X = (1.0 - alpha)[:, None] * instance.network.dense_influence_matrix
            np.subtract(0.0, X, out=X)
            X.reshape(-1)[::n + 1] += 1.0
            lu, piv, info = dgetrf(X)
            if info != 0:
                raise SolverError(f"dense LU factorization failed: getrf "
                                  f"returned info {info}")
            # getrs reports only illegal arguments, and f2py rejects a
            # right-hand side of the wrong shape before LAPACK runs
            self.X, self._lu_solve = X, partial(dgetrs, lu, piv)
            return
        self._lu_solve = None
        W = instance.network.influence_matrix
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
        if self._lu_solve is not None:
            return (self.X.T if transpose else self.X) @ v
        if transpose:
            return v - self._WT @ (self._fade * v)
        return v - self._fade * (self._W @ v)

    def _solve(self, rhs, transpose):
        """(solution, residual, GMRES iterations, converged)."""
        rhs = np.asarray(rhs, dtype=float)
        if self._lu_solve is not None:
            kind = "dense"
            x, _ = self._lu_solve(rhs, trans=int(transpose))
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
