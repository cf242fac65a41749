"""Discrete stooge selection and comparison utilities.

A stooge is a node whose resistance is pinned to 0 or 1. The lazy greedy
keeps stale marginal gains as optimistic bounds and, per iteration, only
refreshes candidates until the laziness test says no stored gain can beat
the best fresh one. Baselines pick nodes by seeded permutation, degree,
or betweenness and apply the fixed resistance rule.
"""

import logging
import weakref
from collections import deque

import numpy as np

from .equilibrium import SolverError, equilibrium
from .optimize import InterventionResult
from .stats import median

log = logging.getLogger(__name__)


# score_total's per-node reward above theta and its near-miss scale below
MAX_SCORE = 10000.0
NEAR_WEIGHT = 50.0


def score_total(x, theta=0.5):
    """Sum of per-node scores: MAX_SCORE at or above theta, and below it
    a hyperbolic reward for closing the gap, capped at MAX_SCORE / 2."""
    x = np.asarray(x, dtype=float)
    above = x >= theta
    out = np.full(x.shape, MAX_SCORE)
    gap = theta - x[~above]
    out[~above] = np.minimum(NEAR_WEIGHT / gap, MAX_SCORE / 2)
    return float(out.sum())


def _stooge_alpha(alpha, u, r):
    out = alpha.copy()
    out[u] = r
    return out


def validate_phi(phi):
    if not 0 <= phi <= 1:  # NaN fails
        raise ValueError(f"phi must lie in [0, 1], got {phi}")


def lazy_greedy(instance, k, phi=0.8, gain=None, theta=0.5):
    """Select up to k stooges, one per iteration, by marginal gain of
    gain(x), the median when None (looked up at call time).

    Stored gains start at +inf so the first iteration evaluates every
    (u, r) in V x {0, 1}. Later iterations scan in descending stored-gain
    order and abort once phi * (best fresh gain) >= the next stored gain;
    phi = 0 disables the abort and reproduces exhaustive greedy. Ties are
    broken toward the smaller node id, then toward r = 1. Selection stops
    once the median exceeds theta (stop "threshold"), at k stooges ("k"),
    or when no candidate has positive gain ("stalled"). A candidate whose
    pin makes X singular (it leaves a closed class with alpha = 0 on
    every node, so no equilibrium exists) is skipped: its stored gain
    becomes -inf, it is not counted as an evaluation, and it is never
    committed. A commit solves nothing: the winner keeps the opinions its
    evaluation solved.
    """
    validate_phi(phi)
    if not 0 <= k <= instance.node_count:
        raise ValueError(f"k={k} outside [0, {instance.node_count}]")
    if gain is None:  # not a default: callers may replace greedy.median
        gain = median
    alpha = instance.alpha.copy()
    stored = {(u, r): np.inf for u in range(instance.node_count) for r in (0.0, 1.0)}
    chosen = {}
    evals_per_iter = []
    x = equilibrium(instance, alpha=alpha).x_star
    while True:
        if median(x) > theta:
            stop = "threshold"
            break
        if len(chosen) == k:
            stop = "k"
            break
        current = gain(x)
        order = sorted(stored, key=lambda ur: (-stored[ur], ur[0], -ur[1]))
        best = None  # (gain, u, r, opinions)
        evals = 0
        for u, r in order:
            if phi != 0 and best is not None and phi * best[0] >= stored[(u, r)]:
                break
            try:
                x_try = equilibrium(instance,
                                    alpha=_stooge_alpha(alpha, u, r)).x_star
            except SolverError:
                stored[(u, r)] = -np.inf
                continue
            g = gain(x_try) - current
            stored[(u, r)] = g
            evals += 1
            if best is None or (g, -u, r) > (best[0], -best[1], best[2]):
                best = (g, u, r, x_try)
        evals_per_iter.append(evals)
        if best is None or best[0] <= 0:
            stop = "stalled"
            break
        _, u, r, x = best
        alpha[u] = r
        chosen[u] = r
        del stored[(u, 0.0)], stored[(u, 1.0)]
    # insertion order of chosen is the commit order
    return InterventionResult.of(instance, alpha, x, theta, chosen,
                                 iterations=len(evals_per_iter),
                                 evals_per_iter=evals_per_iter, stop=stop)


# Brandes scores per live Network: a Network never changes, so one pass
# serves every later ranking of it, with_alpha copies included
_BETWEENNESS = weakref.WeakKeyDictionary()


def betweenness(network):
    """Brandes betweenness on the unweighted graph, deterministic order.

    Runs over the stored arcs; for undirected networks every shortest
    path is traversed once per direction, so the accumulated scores are
    halved. The pass runs once per Network; every call returns a fresh
    copy of its scores.
    """
    if network not in _BETWEENNESS:
        _BETWEENNESS[network] = _brandes(network)
    return _BETWEENNESS[network].copy()


def _brandes(network):
    n = network.node_count
    adj = [targets.tolist() for targets, _ in network.adjacency]
    bc = np.zeros(n)
    for src in range(n):
        sigma = np.zeros(n)
        sigma[src] = 1.0
        dist = np.full(n, -1)
        dist[src] = 0
        preds = [[] for _ in range(n)]
        order = []
        queue = deque([src])
        while queue:
            u = queue.popleft()
            order.append(u)
            for v in adj[u]:
                if v == u:
                    continue
                if dist[v] < 0:
                    dist[v] = dist[u] + 1
                    queue.append(v)
                if dist[v] == dist[u] + 1:
                    sigma[v] += sigma[u]
                    preds[v].append(u)
        delta = np.zeros(n)
        for v in reversed(order):
            for u in preds[v]:
                delta[u] += sigma[u] / sigma[v] * (1.0 + delta[v])
            if v != src:
                bc[v] += delta[v]
    if not network.directed:
        bc /= 2.0
    return bc


def baseline_select(instance, k, kind, theta=0.5, seed=None):
    """Pick k nodes by a fixed node measure (kind "random", "degree" or
    "centrality") and apply the resistance rule
    alpha_u = 1 if s_u > theta else 0."""
    n = instance.node_count
    if not 0 <= k <= n:
        raise ValueError(f"k={k} outside [0, {n}]")
    if kind == "random":
        rng = np.random.default_rng(seed)
        selected = [int(u) for u in rng.permutation(n)[:k]]
    elif kind == "degree":
        measure = instance.network.deg
        selected = sorted(range(n), key=lambda u: (-measure[u], u))[:k]
    elif kind == "centrality":
        measure = betweenness(instance.network)
        selected = sorted(range(n), key=lambda u: (-measure[u], u))[:k]
    else:
        raise ValueError(f"unknown baseline kind {kind!r}")
    alpha = instance.alpha.copy()
    stooges = {}
    for u in selected:
        r = 1.0 if instance.s[u] > theta else 0.0
        alpha[u] = r
        stooges[u] = r
    x = equilibrium(instance, alpha=alpha).x_star
    # insertion order of stooges is the selection order
    return InterventionResult.of(instance, alpha, x, theta, stooges)


def round_to_stooges(alpha, alpha0, k):
    """Top-k nodes by |alpha_u - alpha0_u|, ties toward the smaller id."""
    alpha = np.asarray(alpha, dtype=float)
    alpha0 = np.asarray(alpha0, dtype=float)
    if k > len(alpha):
        raise ValueError(f"k={k} exceeds vector length {len(alpha)}")
    dev = np.abs(alpha - alpha0)
    order = sorted(range(len(alpha)), key=lambda u: (-dev[u], u))
    return set(order[:k])


def jaccard(u1, u2):
    """|U1 intersect U2| / |U1 union U2|; two empty sets count as 1."""
    u1, u2 = set(u1), set(u2)
    if not u1 and not u2:
        log.info("jaccard of two empty sets, returning 1 by convention")
        return 1.0
    return len(u1 & u2) / len(u1 | u2)


def min_budget_to_flip(instance, runner, theta=0.5, max_budget=None,
                       continuous=False, resolution=0.25, base=None):
    """A budget at which runner(instance, budget) reports flipped: the
    smallest one for discrete methods, a bisected one for continuous.

    Discrete budgets are scanned linearly upward because heuristic
    success is not monotone in k. Continuous budgets are bisected down to
    the given resolution, but whether a continuous method flips is not
    monotone in its budget either (sigmoid on one 10x10 grid flips at l1
    12.75 but not at 13.0, and bisection over [0, 50] returns 13.48). So
    a continuous search returns a flipping budget within `resolution` of
    one that failed, not necessarily the smallest flipping budget. A
    continuous runner may stop its ascent at the first flipping iterate:
    that leaves `flipped`, and so the budget found, as a full ascent
    would give it, and changes only the answer reported at that budget.
    Returns 0 when no intervention is needed and None when max_budget
    never flips. `base` is the unmodified instance's equilibrium
    opinions, solved here when None. A max_budget that is negative, not
    finite or, in a discrete scan, fractional, or a continuous resolution
    that is not positive, is an error; so is a boolean for either.
    """
    if max_budget is not None and (
            isinstance(max_budget, bool) or not 0 <= max_budget < np.inf
            or not continuous and max_budget % 1):
        raise ValueError(f"max_budget must be finite and nonnegative, and "
                         f"whole for a discrete scan, got {max_budget!r}")
    if continuous and (isinstance(resolution, bool) or not resolution > 0):
        raise ValueError(f"resolution must be positive, got {resolution!r}")
    if base is None:
        base = equilibrium(instance).x_star
    if median(base) > theta:
        return 0
    n = instance.node_count
    if continuous:
        if max_budget is None:
            max_budget = n / 2
        if not runner(instance, max_budget).flipped:
            return None
        lo, hi = 0.0, float(max_budget)
        while hi - lo > resolution:
            mid = 0.5 * (lo + hi)
            if runner(instance, mid).flipped:
                hi = mid
            else:
                lo = mid
        return hi
    if max_budget is None:
        max_budget = n
    for k in range(1, int(max_budget) + 1):
        if runner(instance, k).flipped:
            return k
    return None
