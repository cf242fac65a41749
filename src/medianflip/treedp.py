"""Exact minimal-stooge selection on hierarchy graphs.

A hierarchy is a rooted directed tree with every arc pointing away from
the root. Each node averages over its out-neighbors (its children), so
opinions depend only on the subtree below and one bottom-up pass yields
the equilibrium. The DP tracks, per node, the maximum achievable opinion
for every (votes-in-subtree, stooge-cost) pair in a dense float array,
-inf where no assignment reaches the pair; children are merged with a
two-dimensional max-plus knapsack over those arrays. The backtrack
finds each winner again on the cells it follows; among equal opinions
the smallest option index wins, then the child cell first in row-major
order. Each table takes O(voters x total stooge cost) memory, so large
integer costs widen every table.

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


def validate_mode(mode):
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")


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
        validate_mode(self.mode)
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


def _merge(acc, child, w):
    """Max-plus convolution of the children merged so far with one more:
    out[J + j, K + k] = max over pairs of acc[J, K] + w * child[j, k].

    The loop runs over the reached cells of the table with fewer of
    them, one block update over the other table per cell.
    """
    wc = w * child
    out = np.full((acc.shape[0] + child.shape[0] - 1,
                   acc.shape[1] + child.shape[1] - 1), -np.inf)
    n_acc, n_child = np.isfinite(acc).sum(), np.isfinite(child).sum()
    small, big = (acc, wc) if n_acc <= n_child else (wc, acc)
    rows, cols = big.shape
    js, ks = np.nonzero(np.isfinite(small))
    for j, k, v in zip(js.tolist(), ks.tolist(), small[js, ks].tolist()):
        block = out[j:j + rows, k:k + cols]
        np.maximum(block, big + v, out=block)
    return out


def _options(tree, u, acc, leaf):
    """(cost, opinion of u over acc's cells) per stooge option of
    _node_cases, -inf where acc is unreached. Unreached cells are masked
    before _combine, which would otherwise form 0 * -inf at alpha = 1."""
    ok = np.isfinite(acc)
    sums = acc[ok]
    for _, cost, a_eff, s_eff in _node_cases(tree, u):
        x = np.full(acc.shape, -np.inf)
        x[ok] = s_eff if leaf else _combine(tree, u, a_eff, s_eff, sums)
        yield cost, x


def _node_table(tree, u, acc, leaf, theta):
    """u's table: every stooge option applied to every reached cell of
    its merged children's table acc."""
    vote = bool(tree.voting[u])
    rows, cols = acc.shape
    out = np.full((rows + vote, cols + int(tree.costs[u])), -np.inf)
    for cost, x in _options(tree, u, acc, leaf):
        lifted = (x > theta) & vote
        block = out[:rows, cost:cost + cols]
        np.maximum(block, np.where(lifted, -np.inf, x), out=block)
        if lifted.any():  # never when u does not vote: out has no row for it
            block = out[1:, cost:cost + cols]
            np.maximum(block, np.where(lifted, x, -np.inf), out=block)
    return out


def _winning_option(tree, u, acc, leaf, theta, table, j, k):
    """Option index of the first option that gives u's table its value
    at (j, k), and the cell of acc it came from."""
    target = table[j, k]
    J = j - int(bool(tree.voting[u]) and target > theta)
    for case, (cost, x) in enumerate(_options(tree, u, acc, leaf)):
        K = k - cost
        if 0 <= J < acc.shape[0] and 0 <= K < acc.shape[1] and \
                x[J, K] == target:
            return case, J, K
    raise RuntimeError(f"no stooge option of node {u} gives cell {(j, k)}")


def _winning_pair(prev, child, w, J, K, target):
    """The child cell (a, b) first in row-major order with
    prev[J - a, K - b] + w * child[a, b] == target."""
    a0, a1 = max(0, J - prev.shape[0] + 1), min(child.shape[0], J + 1)
    b0, b1 = max(0, K - prev.shape[1] + 1), min(child.shape[1], K + 1)
    # prev's rows J - a and columns K - b for a, b ascending
    flipped = prev[J - a1 + 1:J - a0 + 1, K - b1 + 1:K - b0 + 1][::-1, ::-1]
    hits = np.flatnonzero(flipped + w * child[a0:a1, b0:b1] == target)
    if not len(hits):
        raise RuntimeError(f"no child cell gives merged cell {(J, K)}")
    a, b = divmod(int(hits[0]), b1 - b0)
    return a0 + a, b0 + b


def tree_dp_min_stooges(tree, theta=0.5):
    """Minimum stooge cost making strictly more than half of the voting
    nodes exceed theta, with the realizing assignment.

    Each node's table is a float array x[j, k] of shape (voting subtree
    nodes + 1, subtree stooge cost + 1): the maximum opinion of u over
    assignments in its subtree with exactly j voting subtree nodes above
    theta at cost k, -inf where none exists. Keeping only the maximum
    opinion per (j, k) is lossless: opinions propagate upward with
    nonnegative coefficients, so a higher child opinion dominates at
    every ancestor and never costs votes.

    Children are merged in ascending id order by max-plus convolution,
    then the node's stooge options are applied. The forward pass keeps
    only opinions; the backtrack finds each winner again on the cells it
    follows, by recomputing the candidates with the same float
    expressions. Among equal opinions the option with the smallest
    index wins, then the child cell first in row-major order. root_table
    is a dict {(votes, cost): x} over the root's reached cells.

    Memory is O(voters x total cost) per table, so large integer costs
    widen every table along the cost axis.
    """
    tables = {}
    merged = {}  # u -> prefix tables acc[0..m] of its merged children
    for u in reversed(tree.order):
        kids, weights = tree.children(u)
        accs = [np.zeros((1, 1))]
        for c, w in zip(kids, weights):
            accs.append(_merge(accs[-1], tables[c], w))
        merged[u] = accs
        tables[u] = _node_table(tree, u, accs[-1], not kids, theta)

    root = tables[tree.root]
    j, k = np.nonzero(np.isfinite(root))
    root_table = dict(zip(zip(j.tolist(), k.tolist()), root[j, k].tolist()))

    need = int(tree.voting.sum()) // 2 + 1
    majority = np.isfinite(root[need:])
    costs = np.flatnonzero(majority.any(axis=0))
    if not len(costs):
        return TreeDPResult(False, root_table=root_table)
    best_k = int(costs[0])
    best_j = need + int(np.argmax(majority[:, best_k]))

    assignment = {}
    stack = [(tree.root, best_j, best_k)]
    while stack:
        u, j, k = stack.pop()
        kids, weights = tree.children(u)
        accs = merged[u]
        case, J, K = _winning_option(tree, u, accs[-1], not kids, theta,
                                     tables[u], j, k)
        label = _node_cases(tree, u)[case][0]
        if label != "keep":
            assignment[u] = label
        for i in range(len(kids), 0, -1):
            c = kids[i - 1]
            a, b = _winning_pair(accs[i - 1], tables[c], weights[i - 1],
                                 J, K, accs[i][J, K])
            stack.append((c, a, b))
            J, K = J - a, K - b
    return TreeDPResult(True, best_k, assignment, root_table)


def apply_assignment(tree, assignment):
    """Realize a DP assignment as the (alpha, s) of each label's
    _node_cases option; a label of another mode is an error."""
    alpha = tree.instance.alpha.copy()
    s = tree.instance.s.copy()
    for u, label in assignment.items():
        options = {case[0]: case[2:] for case in _node_cases(tree, u)[1:]}
        if label not in options:
            raise ValueError(
                f"{label!r} is no stooge option in {tree.mode} mode")
        alpha[u], s[u] = options[label]
    return alpha, s


# brute_force_min_stooges' node cap and combinations per batched pass
BRUTE_FORCE_MAX_N = 12
BRUTE_FORCE_BATCH = 4096


def brute_force_min_stooges(tree, theta=0.5):
    """Exhaustive minimum-cost search, the oracle for the DP.

    Every per-node choice combination (keep / each stooge option) is
    enumerated, realized on copies of (alpha, s), and evaluated with the
    batched bottom-up pass; no DP machinery is reused.
    """
    n = tree.node_count
    if n > BRUTE_FORCE_MAX_N:
        raise ValueError(
            f"brute force capped at {BRUTE_FORCE_MAX_N} nodes, got {n}")
    cases = [_node_cases(tree, u) for u in range(n)]
    n_choices = [len(c) for c in cases]
    total = int(np.prod(n_choices))
    n_vote = int(tree.voting.sum())
    need = n_vote // 2 + 1
    best_cost, best_idx = None, None
    for start in range(0, total, BRUTE_FORCE_BATCH):
        idx = np.arange(start, min(start + BRUTE_FORCE_BATCH, total))
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
