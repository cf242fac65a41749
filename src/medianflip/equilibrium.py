"""Generalized Friedkin-Johnsen equilibrium: factored solve and simulation.

Each round, node u mixes its innate opinion with the weighted average of
its out-neighbors' expressed opinions:

    x_u(t+1) = alpha_u * s_u + (1 - alpha_u) / deg(u) * sum_v w_uv * x_v(t)

In matrix form x(t+1) = A s + (I - A) W x(t) with A = Diag(alpha), so the
equilibrium solves X x = A s where X = I - (I - A) W. An
EquilibriumOperator holds X for one resistance vector and serves both
the forward solve X x = b and the adjoint solve X^T z = v, never through
an explicit inverse: up to DENSE_MAX_NODES nodes X is LU-factored once
as a dense matrix, above that each solve is a restarted GMRES run on the
sparse X (Saad, Iterative Methods for Sparse Linear Systems, 2003),
which works on X itself rather than on the normal equations. Nodes with deg(u) = 0 have an all-zero W row and
therefore x_u = alpha_u * s_u.

X is singular exactly when some closed class of W's graph (a sink
strongly connected component whose nodes have out-arcs) has alpha = 0
on every node: that class then only averages itself and never forgets
its start. Such systems are rejected before any solve.
"""

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
from scipy.linalg import lu_factor, lu_solve

DEFAULT_TOL = 1e-10

# Largest node count solved by dense LU; larger systems use GMRES. A dense
# LU costs O(n^3) whatever the topology, while a GMRES forward-plus-adjoint
# pair on these well-conditioned systems (about 13 iterations per solve)
# stays near 4-5 ms at these sizes, mostly per-iteration overhead. Dense
# build + factor + forward and adjoint solve with both residuals, against
# that GMRES pair, in ms as dense / GMRES, median of 60, on ba and gnp
# graphs (2 vCPUs, OpenBLAS with 2 threads; two idle runs, then one run
# with the second CPU busy):
#   n     ba idle             gnp idle            ba busy     gnp busy
#   100   0.24 / 4.2-4.7      0.23 / 4.0-4.1      0.20 / 3.6  0.20 / 4.1
#   150   0.47-0.54 / 4.6-4.8 0.44-0.55 / 4.7-5.0 0.52 / 4.6  0.51 / 5.0
#   200   1.7-1.8 / 4.6-4.9   0.87-0.97 / 4.6     1.9 / 4.9   0.91 / 4.7
#   250   4.0-5.2 / 4.6       1.7-1.9 / 4.6-5.0   6.8 / 4.2   1.9 / 4.5
#   300   3.9-4.5 / 4.3-4.4   2.7-4.5 / 5.0-5.2   7.9 / 4.5   5.3 / 4.8
#   400   7.8-8.4 / 4.9-5.1   7.5-7.9 / 5.1-5.5   8.2 / 4.5   10.0 / 5.0
# The crossover sits near 250-300 nodes idle and 220-300 busy, so at 200
# the dense path still wins by 2.5x or more either way.
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
    """X = I - (I - A) W for one (instance, alpha), built once.

    Raises SolverError naming the offending nodes when X is singular.
    Dense systems are LU-factored here; `solve` and `solve_T` then reuse
    the factor. Sparse systems are solved by GMRES(GMRES_RESTART) to the
    relative residual tol, with at most about 10 * n iterations; tol
    applies to GMRES only. Either solve raises SolverError when its
    residual is not finite or exceeds 1e-6 * max(1, ||rhs||).
    """

    def __init__(self, instance, alpha=None):
        alpha = instance.alpha if alpha is None else np.asarray(alpha, float)
        _reject_singular(instance.network, alpha)
        self.b = alpha * instance.s
        n = instance.node_count
        W = instance.network.influence_matrix
        if n <= DENSE_MAX_NODES:
            self.X = np.eye(n) - (1.0 - alpha)[:, None] * W.toarray()
            self._lu = lu_factor(self.X, check_finite=False)
        else:
            self.X = sp.eye(n, format="csr") - sp.diags(1.0 - alpha) @ W
            self._lu = None
        self._XT = None  # CSR copy of X^T, made by the first sparse solve_T

    def solve(self, b, tol=DEFAULT_TOL):
        """x with X x = b."""
        return self._solve(b, False, tol)[0]

    def solve_T(self, v, tol=DEFAULT_TOL):
        """z with X^T z = v."""
        return self._solve(v, True, tol)[0]

    def _solve(self, rhs, transpose, tol):
        """(solution, residual, GMRES iterations, converged)."""
        rhs = np.asarray(rhs, dtype=float)
        if self._lu is not None:
            kind, M = "dense", self.X.T if transpose else self.X
            x = lu_solve(self._lu, rhs, trans=int(transpose),
                         check_finite=False)
            itn, converged = 0, True
        else:
            # imported here: processes that only solve small systems never
            # load scipy.sparse.linalg, about 2 MB of resident memory
            from scipy.sparse.linalg import gmres

            if transpose and self._XT is None:
                self._XT = self.X.T.tocsr()
            M = self._XT if transpose else self.X
            steps = []
            # maxiter counts restart cycles: about 10 n iterations in all
            x, info = gmres(M, rhs, rtol=tol, atol=0.0, restart=GMRES_RESTART,
                            maxiter=10 * len(rhs) // GMRES_RESTART + 1,
                            callback=steps.append, callback_type="pr_norm")
            itn, converged = len(steps), info == 0
            kind = f"GMRES ({itn} iterations)"
        residual = float(np.linalg.norm(M @ x - rhs))
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


def equilibrium(instance, alpha=None, tol=DEFAULT_TOL):
    """Solve X x = A s for the equilibrium opinions.

    Factors X once (see EquilibriumOperator) and returns the operator on
    the solution. Above DENSE_MAX_NODES, tol is the relative residual
    GMRES aims for; the solve fails only if its residual exceeds
    1e-6 * max(1, ||A s||). Raises SolverError.
    """
    op = EquilibriumOperator(instance, alpha)
    x, residual, itn, converged = op._solve(op.b, False, tol)
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
