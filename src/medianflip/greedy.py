"""Discrete stooge selection and comparison utilities.

A stooge is a node whose resistance is pinned to 0 or 1. The lazy greedy
keeps stale marginal gains as optimistic bounds and, per iteration, only
refreshes candidates until the laziness test says no stored gain can beat
the best fresh one. Baselines pick nodes by seeded permutation, degree,
or betweenness and apply the fixed resistance rule.
"""

import logging
from collections import deque
from dataclasses import dataclass

import numpy as np

from .equilibrium import SolverError, equilibrium
from .optimize import InterventionResult
from .stats import median

log = logging.getLogger(__name__)


# score_total's per-node reward above 0.5 and its near-miss scale below
MAX_SCORE = 10000.0
NEAR_WEIGHT = 50.0


@dataclass(frozen=True)
class GainFunction:
    """Objective used for marginal gains: raw median or the score sum."""

    kind: str = "median"

    def __post_init__(self):
        if self.kind not in ("median", "score"):
            raise ValueError(f"unknown gain kind {self.kind!r}")

    def value(self, x):
        if self.kind == "median":
            return median(x)
        return score_total(x)


def score_total(x):
    """Sum of per-node scores: MAX_SCORE above 0.5, and below it a
    hyperbolic reward for closing the gap, capped at MAX_SCORE / 2."""
    x = np.asarray(x, dtype=float)
    above = x >= 0.5
    out = np.full(x.shape, MAX_SCORE)
    gap = 0.5 - x[~above]
    out[~above] = np.minimum(NEAR_WEIGHT / gap, MAX_SCORE / 2)
    return float(out.sum())


def _stooge_alpha(alpha, u, r):
    out = alpha.copy()
    out[u] = r
    return out


def marginal_gain(instance, u, r, gain=GainFunction()):
    """Objective change from pinning node u's resistance to r."""
    base = gain.value(equilibrium(instance).x_star)
    x = equilibrium(instance, alpha=_stooge_alpha(instance.alpha, u, r)).x_star
    return gain.value(x) - base


def lazy_greedy(instance, k, phi=0.8, gain=GainFunction(), theta=0.5):
    """Select up to k stooges, one per iteration, by marginal gain.

    Stored gains start at +inf so the first iteration evaluates every
    (u, r) in V x {0, 1}. Later iterations scan in descending stored-gain
    order and abort once phi * (best fresh gain) >= the next stored gain;
    phi = 0 disables the abort and reproduces exhaustive greedy. Ties are
    broken toward the smaller node id, then toward r = 1. Selection stops
    early when no candidate has positive gain or the median already
    exceeds theta. A candidate whose pin makes X singular (it leaves a
    closed class with alpha = 0 on every node, so no equilibrium exists)
    is skipped: its stored gain becomes -inf, it is not counted as an
    evaluation, and it is never committed.
    """
    if not 0 <= phi <= 1:
        raise ValueError(f"phi must lie in [0, 1], got {phi}")
    if k > instance.node_count:
        raise ValueError(f"k={k} exceeds node count {instance.node_count}")
    alpha0 = instance.alpha
    alpha = alpha0.copy()
    stored = {(u, r): np.inf for u in range(instance.node_count) for r in (0.0, 1.0)}
    chosen = {}
    evals_per_iter = []
    x = equilibrium(instance, alpha=alpha).x_star
    current = gain.value(x)
    current_median = median(x)
    while len(chosen) < k and current_median <= theta:
        order = sorted(stored, key=lambda ur: (-stored[ur], ur[0], -ur[1]))
        best = None  # (gain, u, r)
        evals = 0
        for u, r in order:
            if phi != 0 and best is not None and phi * best[0] >= stored[(u, r)]:
                break
            try:
                x = equilibrium(instance, alpha=_stooge_alpha(alpha, u, r)).x_star
            except SolverError:
                stored[(u, r)] = -np.inf
                continue
            g = gain.value(x) - current
            stored[(u, r)] = g
            evals += 1
            if best is None or (g, -u, r) > (best[0], -best[1], best[2]):
                best = (g, u, r)
        evals_per_iter.append(evals)
        if best is None or best[0] <= 0:
            break
        _, u, r = best
        alpha[u] = r
        chosen[u] = r
        del stored[(u, 0.0)]
        del stored[(u, 1.0)]
        x = equilibrium(instance, alpha=alpha).x_star
        current = gain.value(x)
        current_median = median(x)
    final_median = current_median
    return InterventionResult(
        alpha_final=alpha,
        stooges=dict(chosen),  # insertion order is the commit order
        l0_budget_used=int(np.sum(alpha != alpha0)),
        l1_budget_used=float(np.abs(alpha - alpha0).sum()),
        final_median=final_median,
        flipped=final_median > theta,
        iterations=len(evals_per_iter),
        evals_per_iter=evals_per_iter,
    )


def betweenness(network):
    """Brandes betweenness on the unweighted graph, deterministic order.

    Runs over the stored arcs; for undirected networks every shortest
    path is traversed once per direction, so the accumulated scores are
    halved.
    """
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
    """Pick k nodes by a fixed node measure and apply the resistance rule
    alpha_u = 1 if s_u > theta else 0."""
    n = instance.node_count
    if k > n:
        raise ValueError(f"k={k} exceeds node count {n}")
    if kind == "random":
        rng = np.random.default_rng(seed)
        selected = [int(u) for u in rng.permutation(n)[:k]]
    elif kind == "max_degree":
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
    final_median = median(x)
    return InterventionResult(
        alpha_final=alpha,
        stooges=stooges,  # selection order preserved
        l0_budget_used=int(np.sum(alpha != instance.alpha)),
        l1_budget_used=float(np.abs(alpha - instance.alpha).sum()),
        final_median=final_median,
        flipped=final_median > theta,
    )


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
                       continuous=False, resolution=0.25):
    """Smallest budget at which runner(instance, budget) flips the median.

    Discrete budgets are scanned linearly upward because heuristic
    success is not monotone in k; continuous budgets are halved down to
    the given resolution, which is sound for the monotone-by-projection
    continuous methods. Returns 0 when no intervention is needed and
    None when max_budget never flips.
    """
    base = median(equilibrium(instance).x_star)
    if base > theta:
        return 0
    n = instance.node_count
    if continuous:
        if max_budget is None:
            max_budget = n / 2
        if not runner(instance, max_budget).final_median > theta:
            return None
        lo, hi = 0.0, float(max_budget)
        while hi - lo > resolution:
            mid = 0.5 * (lo + hi)
            if runner(instance, mid).final_median > theta:
                hi = mid
            else:
                lo = mid
        return hi
    if max_budget is None:
        max_budget = n
    for k in range(1, int(max_budget) + 1):
        if runner(instance, k).final_median > theta:
            return k
    return None
