"""Generalized Friedkin-Johnsen equilibrium: factored solve and simulation.

Each round, node u mixes its innate opinion with the weighted average of
its out-neighbors' expressed opinions:

    x_u(t+1) = alpha_u * s_u + (1 - alpha_u) / deg(u) * sum_v w_uv * x_v(t)

In matrix form x(t+1) = A s + (I - A) W x(t) with A = Diag(alpha), so the
equilibrium solves X x = A s where X = I - (I - A) W. An
EquilibriumOperator holds X for one resistance vector and serves both
the forward solve X x = b and the adjoint solve X^T z = v, never through
an explicit inverse: up to DENSE_MAX_NODES nodes X is LU-factored once
as a dense matrix, above that each solve is a least-squares run (LSQR)
on the sparse X. Nodes with deg(u) = 0 have an all-zero W row and
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

# Largest node count solved by dense LU; larger systems use LSQR. A dense
# LU costs O(n^3) whatever the topology, while an LSQR forward-plus-adjoint
# pair on these well-conditioned systems stays near 2.5-4.5 ms. Dense
# build + factor + forward and adjoint solve with both residuals, against
# that LSQR pair, on ba and gnp graphs (2 vCPUs, OpenBLAS with 2 threads,
# idle machine):
#   n = 100: 0.2 vs 2.9-3.3 ms     n = 150: 0.44 vs 3.3-3.6 ms
#   n = 200: 1.5 vs 3.4-3.9 ms     n = 250: 2.7 vs 3.7-3.8 ms
#   n = 300: 3.5-3.9 vs 3.8-4.0    n = 400: 6.2-7.0 vs 2.9-3.9 ms
# With the second CPU busy the dense side slows first: 1.0-1.4 ms at
# n = 200 but 4.1-4.8 ms at 250 and 7.2-7.7 ms at 300, and when other
# processes also run BLAS threads, 1.5-9 ms at n = 200 and 10-160 ms
# from 250 up. At 200 the dense path wins by 2x or more on an idle
# machine and costs at most a few ms more on a busy one.
DENSE_MAX_NODES = 200


class SolverError(RuntimeError):
    """Raised when the equilibrium system is singular or a solve fails."""


@dataclass(frozen=True)
class EquilibriumSolution:
    """Equilibrium opinions with solver diagnostics.

    `iterations` counts LSQR iterations (0 for a dense solve, rounds for
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
    the factor. A dense solve raises SolverError when its residual is not
    finite or exceeds 1e-6 * max(1, ||rhs||); an LSQR solve, capped at
    10 * n iterations, raises when it stops unconverged with a residual
    above that. tol applies to LSQR only.
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

    def solve(self, b, tol=DEFAULT_TOL):
        """x with X x = b."""
        return self._solve(b, False, tol, None)[0]

    def solve_T(self, v, tol=DEFAULT_TOL):
        """z with X^T z = v."""
        return self._solve(v, True, tol, None)[0]

    def _solve(self, rhs, transpose, tol, max_iters):
        """(solution, residual, LSQR iterations, converged)."""
        rhs = np.asarray(rhs, dtype=float)
        M = self.X.T if transpose else self.X
        limit = 1e-6 * max(1.0, float(np.linalg.norm(rhs)))
        if self._lu is not None:
            x = lu_solve(self._lu, rhs, trans=int(transpose),
                         check_finite=False)
            residual = float(np.linalg.norm(M @ x - rhs))
            if not residual <= limit:  # also catches a non-finite residual
                raise SolverError(
                    f"dense equilibrium solve left residual {residual:.3e}")
            return x, residual, 0, True
        # imported here: processes that only solve small systems never
        # load scipy.sparse.linalg, about 2 MB of resident memory
        from scipy.sparse.linalg import lsqr

        if max_iters is None:
            max_iters = 10 * len(rhs)
        x, istop, itn = lsqr(M, rhs, atol=tol, btol=tol, iter_lim=max_iters)[:3]
        residual = float(np.linalg.norm(M @ x - rhs))
        converged = istop in (0, 1, 2, 4, 5)
        if not converged and residual > limit:
            raise SolverError(
                f"equilibrium solve stopped (istop={istop}) with residual "
                f"{residual:.3e}")
        return x, residual, int(itn), converged


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


def equilibrium(instance, alpha=None, tol=DEFAULT_TOL, max_iters=None):
    """Solve X x = A s for the equilibrium opinions.

    Factors X once (see EquilibriumOperator) and returns the operator on
    the solution. On the LSQR path the solve is capped at max_iters
    (default 10 * n) and fails only if the residual stays above a loose
    multiple of tol after the cap. Raises SolverError.
    """
    op = EquilibriumOperator(instance, alpha)
    x, residual, itn, converged = op._solve(op.b, False, tol, max_iters)
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
