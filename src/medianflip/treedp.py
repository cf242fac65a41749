"""Exact minimal-stooge selection on hierarchy graphs.

A hierarchy is a rooted directed tree with every arc pointing away from
the root. Each node averages over its out-neighbors (its children), so
opinions depend only on the subtree below and one bottom-up pass yields
the equilibrium. The DP tracks, per node, the maximum achievable opinion
for every (votes-in-subtree, stooge-cost) pair; children are merged with
a two-dimensional knapsack over their tables.

Leaf convention: a childless node keeps x = s regardless of resistance,
since its expressed and innate opinions coincide at the fixed point.
"""

from dataclasses import dataclass, field

import numpy as np

from .network import NetworkError

MODES = ("resistance", "opinion", "both")


def _tree_root(network):
    """Root of the graph if it is a rooted out-tree (self-loops ignored),
    else None."""
    n = network.node_count
    targets = network.arc_dst[network.arc_src != network.arc_dst]
    if (n > 1 and not network.directed) or len(targets) != n - 1:
        return None
    indeg = np.bincount(targets, minlength=n)
    roots = np.flatnonzero(indeg == 0)
    if len(roots) != 1 or indeg.max() > 1:
        return None
    # n - 1 arcs, one root and in-degree <= 1 still admit a path plus a
    # disjoint cycle; only reachability from the root rules that out
    root = int(roots[0])
    return root if len(network.walk(root)) == n else None


def is_hierarchy(network):
    """True iff the graph is a rooted out-tree (self-loops ignored)."""
    return _tree_root(network) is not None


@dataclass
class TreeInstance:
    """A hierarchy instance with optional voting mask, integer stooge
    costs, and stooge mode (which attributes a stooge may overwrite)."""

    instance: object
    voting: np.ndarray = None
    costs: np.ndarray = None
    mode: str = "resistance"
    root: int = field(init=False)
    order: list = field(init=False)

    def __post_init__(self):
        net = self.instance.network
        self.root = _tree_root(net)
        if self.root is None:
            raise NetworkError("not a hierarchy: need a rooted out-tree")
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {self.mode!r}")
        n = net.node_count
        if self.voting is None:
            self.voting = np.ones(n, dtype=bool)
        else:
            self.voting = np.asarray(self.voting, dtype=bool)
            if self.voting.shape != (n,):
                raise ValueError("voting mask length mismatch")
        if self.costs is None:
            self.costs = np.ones(n, dtype=int)
        else:
            self.costs = np.asarray(self.costs)
            if self.costs.shape != (n,) or not np.issubdtype(
                self.costs.dtype, np.integer
            ):
                raise ValueError("costs must be one integer per node")
            if np.any(self.costs < 1):
                raise ValueError("stooge costs must be positive integers")
        loops = net.arc_src == net.arc_dst
        self.loop_w = np.zeros(n)
        self.loop_w[net.arc_src[loops]] = net.arc_w[loops]
        self.order = net.walk(self.root)

    @property
    def node_count(self):
        return self.instance.network.node_count

    def children(self, u):
        """Child ids of u in ascending order and their arc weights, as
        lists; u's self-loop, if any, is left out."""
        kids, weights = self.instance.network.out_neighbors(u)
        keep = kids != u
        return kids[keep].tolist(), weights[keep].tolist()


def _combine(tree, u, alpha_u, s_u, childsum):
    """Fixed-point opinion of node u given the weighted child opinions.

    With a self-loop of weight l the update x = alpha s + (1-alpha)/deg *
    (childsum + l x) is solved for x; without one the update is direct.
    deg is u's full out-weight, self-loop included.
    """
    deg = tree.instance.network.deg[u]
    numer = alpha_u * s_u + (1.0 - alpha_u) * childsum / deg
    denom = 1.0 - (1.0 - alpha_u) * tree.loop_w[u] / deg
    return numer / denom


def tree_equilibrium(tree, alpha=None, s=None):
    """Bottom-up equilibrium pass; alpha and s may be (n,) or (n, B)."""
    inst = tree.instance
    alpha = inst.alpha if alpha is None else np.asarray(alpha, dtype=float)
    s = inst.s if s is None else np.asarray(s, dtype=float)
    if alpha.ndim == 1 and s.ndim == 2:
        alpha = alpha[:, None]
    elif s.ndim == 1 and alpha.ndim == 2:
        s = s[:, None]
    x = np.zeros(np.broadcast_shapes(alpha.shape, s.shape))
    alpha = np.broadcast_to(alpha, x.shape)
    s = np.broadcast_to(s, x.shape)
    for u in reversed(tree.order):
        kids, weights = tree.children(u)
        if not kids:
            x[u] = s[u]
            continue
        childsum = sum(w * x[c] for c, w in zip(kids, weights))
        x[u] = _combine(tree, u, alpha[u], s[u], childsum)
    return x


def _node_cases(tree, u):
    """(label, cost, alpha_eff, s_eff) per stooge option; both-mode's
    forced opinion is encoded as alpha = 1, s = 1."""
    inst = tree.instance
    a, s, c = float(inst.alpha[u]), float(inst.s[u]), int(tree.costs[u])
    if tree.mode == "resistance":
        return [("keep", 0, a, s), ("alpha1", c, 1.0, s), ("alpha0", c, 0.0, s)]
    if tree.mode == "opinion":
        return [("keep", 0, a, s), ("s1", c, a, 1.0)]
    return [("keep", 0, a, s), ("one", c, 1.0, 1.0)]


@dataclass
class TreeDPResult:
    feasible: bool
    cost: int = None
    assignment: dict = None
    root_table: dict = None


def tree_dp_min_stooges(tree, theta=0.5):
    """Minimum stooge cost making strictly more than half of the voting
    nodes exceed theta, with the realizing assignment.

    dp[u][(j, k)] holds the maximum opinion of u over assignments in u's
    subtree with exactly j voting subtree nodes above theta at cost k.
    Keeping only the maximum opinion per (j, k) is lossless: opinions
    propagate upward with nonnegative coefficients, so a higher child
    opinion dominates at every ancestor and never costs votes.
    """
    dp = {}
    stages_by_node = {}
    for u in reversed(tree.order):
        kids, weights = tree.children(u)
        stages = [{(0, 0): (0.0, None, None)}]
        for c, w in zip(kids, weights):
            merged = {}
            for (J, K), (csum, _, _) in stages[-1].items():
                for (j, k), (xc, _, _) in dp[c].items():
                    key = (J + j, K + k)
                    val = csum + w * xc
                    if key not in merged or val > merged[key][0]:
                        merged[key] = (val, (J, K), (j, k))
            stages.append(merged)
        stages_by_node[u] = stages
        table = {}
        for label, cost, a_eff, s_eff in _node_cases(tree, u):
            for (J, K), (csum, _, _) in stages[-1].items():
                if kids:
                    x_u = _combine(tree, u, a_eff, s_eff, csum)
                else:
                    x_u = s_eff
                vote = 1 if (tree.voting[u] and x_u > theta) else 0
                key = (J + vote, K + cost)
                if key not in table or x_u > table[key][0]:
                    table[key] = (x_u, label, (J, K))
        dp[u] = table

    n_vote = int(tree.voting.sum())
    need = n_vote // 2 + 1
    root_table = dp[tree.root]
    best_key = None
    for (j, k) in sorted(root_table):
        if j >= need and (best_key is None or k < best_key[1]):
            best_key = (j, k)
    if best_key is None:
        return TreeDPResult(False, root_table=root_table)

    assignment = {}

    def backtrack(u, key):
        x_u, label, cdp_key = dp[u][key]
        if label != "keep":
            assignment[u] = label
        stages = stages_by_node[u]
        J, K = cdp_key
        kids = tree.children(u)[0]
        for i in range(len(kids), 0, -1):
            _, prev_key, child_key = stages[i][(J, K)]
            backtrack(kids[i - 1], child_key)
            J, K = prev_key

    backtrack(tree.root, best_key)
    return TreeDPResult(True, int(best_key[1]), assignment, root_table)


def apply_assignment(tree, assignment):
    """Realize a DP assignment as modified (alpha, s) vectors."""
    alpha = tree.instance.alpha.copy()
    s = tree.instance.s.copy()
    for u, label in assignment.items():
        if label == "alpha1":
            alpha[u] = 1.0
        elif label == "alpha0":
            alpha[u] = 0.0
        elif label == "s1":
            s[u] = 1.0
        elif label == "one":
            alpha[u] = 1.0
            s[u] = 1.0
        else:
            raise ValueError(f"unknown assignment label {label!r}")
    return alpha, s


def brute_force_min_stooges(tree, theta=0.5, max_n=12, batch=4096):
    """Exhaustive minimum-cost search, the oracle for the DP.

    Every per-node choice combination (keep / each stooge option) is
    enumerated, realized on copies of (alpha, s), and evaluated with the
    batched bottom-up pass; no DP machinery is reused.
    """
    n = tree.node_count
    if n > max_n:
        raise ValueError(f"brute force capped at {max_n} nodes, got {n}")
    cases = [_node_cases(tree, u) for u in range(n)]
    n_choices = [len(c) for c in cases]
    total = int(np.prod(n_choices))
    n_vote = int(tree.voting.sum())
    need = n_vote // 2 + 1
    best_cost, best_idx = None, None
    for start in range(0, total, batch):
        idx = np.arange(start, min(start + batch, total))
        digits = np.zeros((n, len(idx)), dtype=int)
        rem = idx.copy()
        for u in range(n):
            digits[u] = rem % n_choices[u]
            rem //= n_choices[u]
        alpha = np.empty((n, len(idx)))
        s = np.empty((n, len(idx)))
        cost = np.zeros(len(idx), dtype=int)
        for u in range(n):
            for ci, (label, c_cost, a_eff, s_eff) in enumerate(cases[u]):
                mask = digits[u] == ci
                alpha[u, mask] = a_eff
                s[u, mask] = s_eff
                if label != "keep":
                    cost[mask] += c_cost
        x = tree_equilibrium(tree, alpha=alpha, s=s)
        votes = ((x > theta) & tree.voting[:, None]).sum(axis=0)
        feasible = votes >= need
        if feasible.any():
            costs = np.where(feasible, cost, np.iinfo(np.int64).max)
            pos = int(np.argmin(costs))
            if best_cost is None or costs[pos] < best_cost:
                best_cost = int(costs[pos])
                best_idx = int(idx[pos])
    if best_cost is None:
        return None, None
    assignment = {}
    rem = best_idx
    for u in range(n):
        ci = rem % n_choices[u]
        rem //= n_choices[u]
        if ci > 0:
            assignment[u] = cases[u][ci][0]
    return best_cost, assignment
