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
GMRES run (Saad & Schultz, SIAM J. Sci. Stat. Comput. 7, 1986), written
here in numpy, which works on X itself rather than on the normal
equations. That X is never built: GMRES applies it matrix-free through
W, as X v = v - (1 - alpha) * (W v) and X^T v = v - W^T ((1 - alpha) * v).
An ascent hands each step's solution to the next step, whose adjoint
GMRES run then starts from the last adjoint z, and whose forward run
starts from the extrapolation 2 x*_k-1 - x*_k-2 through the last two
solutions (from the last x* when only one exists) instead of from zero.
Nodes with deg(u) = 0 have an all-zero W row and therefore
x_u = alpha_u * s_u.

X is singular exactly when some closed class of W's graph (a sink
strongly connected component whose nodes have out-arcs) has alpha = 0
on every node: that class then only averages itself and never forgets
its start. Such systems are rejected before any solve.
"""

import math
from dataclasses import dataclass, field
from functools import partial

import numpy as np

DEFAULT_TOL = 1e-10

# Largest node count solved by dense LU; larger systems use GMRES. A dense
# LU costs O(n^3) whatever the topology, while a GMRES forward-plus-adjoint
# pair on these well-conditioned systems (11-15 iterations per cold solve)
# costs O(n) per iteration plus a fixed per-iteration overhead. X built
# from the network's cached dense W + getrf + getrs forward and adjoint
# with both residuals, against that matrix-free GMRES pair from cold
# starts, in ms as dense / GMRES, median of 60, on ba and gnp graphs
# (2 vCPUs shared with other jobs, load average near 1, OpenBLAS with
# 2 threads); ranges over four runs:
#   n     ba                    gnp
#   100   0.12-0.26 / 0.60-1.06 0.12-0.25 / 0.64-1.14
#   150   0.31-0.55 / 0.75-1.29 0.31-0.53 / 0.77-1.36
#   200   0.55-0.89 / 0.76-1.39 0.51-0.88 / 0.82-1.37
#   250   1.15-1.80 / 0.84-1.43 0.86-1.77 / 0.78-1.40
#   300   1.73-2.70 / 0.86-1.51 1.73-2.61 / 0.84-1.51
#   400   3.47-3.60 / 1.04-1.11 3.48-3.89 / 1.06-1.23
# The crossover sits between 200 and 250 nodes. The cutoff stays at 200,
# where the dense path still wins by 1.4x to 1.6x in each run above;
# moving it would also move tests between the two solvers.
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
    alpha, seeds those runs: `solve_T` starts from the latest adjoint
    solution of its operator, and `solve` from its x*, or from
    2 x* - x*_start when that operator was itself built from a start
    x*_start. The dense path ignores it. Either solve raises SolverError
    when its residual is not finite or exceeds 1e-6 * max(1, ||rhs||).
    """

    def __init__(self, instance, alpha=None, start=None):
        alpha = instance.alpha if alpha is None else np.asarray(alpha, float)
        _reject_singular(instance.network, alpha)
        self.b = alpha * instance.s
        self.adjoint = None  # z of the latest solve_T
        # the x* of the start, through which the next operator's forward
        # start extrapolates
        self._x_prev = None if start is None else start.x_star
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
        self._x0, self._z0 = self._x_prev, None
        if start is not None and start.operator is not None:
            self._z0 = start.operator.adjoint
            if start.operator._x_prev is not None:
                self._x0 = 2.0 * start.x_star - start.operator._x_prev

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
            y = self._WT @ (self._fade * v)
        else:
            y = self._W @ v
            y *= self._fade
        return np.subtract(v, y, out=y)

    def _solve(self, rhs, transpose):
        """(solution, residual, GMRES iterations, converged)."""
        rhs = np.asarray(rhs, dtype=float)
        if self._lu_solve is not None:
            kind = "dense"
            x, _ = self._lu_solve(rhs, trans=int(transpose))
            itn, converged = 0, True
            residual = float(np.linalg.norm(self._apply(x, transpose) - rhs))
        else:
            x, residual, itn, converged = _gmres(
                partial(self._apply, transpose=transpose), rhs,
                self._z0 if transpose else self._x0)
            kind = f"GMRES ({itn} iterations)"
        if not residual <= 1e-6 * max(1.0, float(np.linalg.norm(rhs))):
            # also catches a non-finite residual
            raise SolverError(
                f"{kind} equilibrium solve left residual {residual:.3e}")
        return x, residual, itn, converged


def _gmres(apply, b, x0):
    """Restarted GMRES for apply(x) = b from x0 (None for zero):
    (x, ||b - apply(x)||, Arnoldi steps, converged).

    Each cycle builds an orthonormal Krylov basis from the residual by
    Gram-Schmidt with one reorthogonalisation, and keeps the least-squares
    problem triangular by Givens rotations, whose last entry is the
    residual norm the cycle expects. A cycle ends after GMRES_RESTART
    steps or once that estimate meets DEFAULT_TOL * ||b||; then x is
    updated and its true residual computed, which decides whether
    another cycle runs. At most about 10 n steps run in all.
    """
    n = len(b)
    target = DEFAULT_TOL * math.sqrt(b @ b)
    if target == 0.0:
        return np.zeros(n), 0.0, 0, True
    if x0 is None:
        x, r = np.zeros(n), b.copy()
    else:
        x = np.array(x0, dtype=float)
        r = b - apply(x)
    rnorm = math.sqrt(r @ r)
    m = GMRES_RESTART
    V = np.empty((m + 1, n))
    R = np.zeros((m, m))  # the rotated Hessenberg matrix, upper triangular
    itn, max_itn = 0, (10 * n // m + 1) * m
    while rnorm > target and itn < max_itn:
        np.multiply(r, 1.0 / rnorm, out=V[0])
        g, cs, sn = [rnorm], [], []
        for j in range(min(m, max_itn - itn)):
            w = apply(V[j])
            basis = V[:j + 1]
            h = basis @ w
            w -= h @ basis
            again = basis @ w
            w -= again @ basis
            col = (h + again).tolist()
            hn = math.sqrt(w @ w)
            itn += 1
            for i in range(j):
                a, c = col[i], col[i + 1]
                col[i], col[i + 1] = (cs[i] * a + sn[i] * c,
                                      cs[i] * c - sn[i] * a)
            d = math.hypot(col[j], hn)
            cs.append(col[j] / d)
            sn.append(hn / d)
            col[j] = d
            R[:j + 1, j] = col
            g.append(-sn[j] * g[j])
            g[j] *= cs[j]
            if abs(g[j + 1]) <= target:
                break
            np.multiply(w, 1.0 / hn, out=V[j + 1])
        k = len(cs)
        x += np.linalg.solve(R[:k, :k], g[:k]) @ V[:k]
        r = b - apply(x)
        rnorm = math.sqrt(r @ r)
    return x, rnorm, itn, rnorm <= target


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
