"""Exact minimal-stooge selection on hierarchy graphs.

A hierarchy is a rooted directed tree with every arc pointing away from
the root. Each node averages over its out-neighbors (its children), so
opinions depend only on the subtree below and one bottom-up pass yields
the equilibrium. The DP tracks, per node, the maximum achievable opinion
for every (votes-in-subtree, stooge-cost) pair. Each table is a float
array over the bounding box of its reached cells, -inf at the cells
inside the box that no assignment reaches, with the (votes, cost) of the
box's corner; a leaf's table comes straight from its stooge options.
Children are merged with a two-dimensional max-plus knapsack over those
boxes. The backtrack finds each winner again on the cells it follows;
among equal opinions the smallest option index wins, then the child
cell first in row-major order. A table takes O(voters x total stooge
cost) memory in the worst case, so large integer costs can widen every
table.

Leaf convention: a childless node keeps x = s regardless of resistance,
since its expressed and innate opinions coincide at the fixed point.
"""

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .network import NetworkError
from .stats import validate_theta

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


class _Box(NamedTuple):
    """A DP table held as the bounding box of its reached cells: x[a, b]
    is the cell (j + a, k + b), -inf where no assignment reaches it.
    A node's table carries its count of reached cells; a leaf's also
    lists them, (a, b, x[a, b]) in row-major order."""

    x: np.ndarray
    j: int
    k: int
    reached: int = None
    cells: list = None


# the table of a node's merged children before its first child
_EMPTY = _Box(np.zeros((1, 1)), 0, 0)


def _reached_cells(x):
    """(a, b, x[a, b]) for the finite cells of x, in row-major order."""
    a, b = np.nonzero(np.isfinite(x))
    return zip(a.tolist(), b.tolist(), x[a, b].tolist())


def _merge(acc, child, w):
    """Max-plus convolution of the children merged so far with one more:
    out[J + j, K + k] = max over pairs of acc[J, K] + w * child[j, k].

    Both operands are boxes of their reached cells, so out's box, the
    sum of theirs, is exactly that of its reached cells and needs no
    scan. The loop runs over the reached cells of the operand with fewer
    of them, the child's count carried with its table, one block update
    over the other's box per cell; a leaf child loops over its own
    cells. The other operand is laid out on out's row length, -inf past
    its own columns, so that each block update is one contiguous run.
    """
    rows_out = acc.x.shape[0] + child.x.shape[0] - 1
    cols_out = acc.x.shape[1] + child.x.shape[1] - 1
    if child.cells is not None:
        cells, big = [(a, b, w * v) for a, b, v in child.cells], acc.x
    elif np.count_nonzero(np.isfinite(acc.x)) <= child.reached:
        cells, big = _reached_cells(acc.x), w * child.x
    else:
        cells, big = _reached_cells(w * child.x), acc.x
    rows, cols = big.shape
    run = np.full((rows, cols_out), -np.inf)
    run[:, :cols] = big
    run = run.ravel()[:(rows - 1) * cols_out + cols]
    out = np.full(rows_out * cols_out, -np.inf)
    for a, b, v in cells:
        block = out[a * cols_out + b:a * cols_out + b + run.size]
        np.maximum(block, run + v, out=block)
    return _Box(out.reshape(rows_out, cols_out), acc.j + child.j,
                acc.k + child.k)


def _leaf_table(tree, u, theta):
    """A leaf's table straight from its stooge options: each reaches the
    cell (1 if u votes and s_eff > theta else 0, cost) with opinion
    s_eff, and a cell two options reach keeps the larger."""
    vote = bool(tree.voting[u])
    best = {}
    for _, cost, _, s_eff in _node_cases(tree, u):
        cell = (int(vote and s_eff > theta), cost)
        best[cell] = max(best.get(cell, -np.inf), s_eff)
    j, k = min(a for a, _ in best), min(b for _, b in best)
    cells = [(a - j, b - k, best[a, b]) for a, b in sorted(best)]
    x = np.full((cells[-1][0] + 1, max(b for _, b, _ in cells) + 1), -np.inf)
    for a, b, v in cells:
        x[a, b] = v
    return _Box(x, j, k, len(cells), cells)


def _node_table(tree, u, acc, theta):
    """u's table: every stooge option applied to every reached cell of
    its merged children's table acc, built in the box of the cells it
    reaches. Only reached cells go through _combine, which would
    otherwise form 0 * -inf at alpha = 1."""
    # one row per option, one column per reached cell of acc
    cost, a_eff, s_eff = (np.array(column)[:, None]
                          for column in list(zip(*_node_cases(tree, u)))[1:])
    a, b = np.nonzero(np.isfinite(acc.x))
    x = _combine(tree, u, a_eff, s_eff, acc.x[a, b])
    rows = a + ((x > theta) & bool(tree.voting[u]))
    cols = b + cost
    j, k = int(rows.min()), int(cols.min())
    out = np.full((int(rows.max()) - j + 1, int(cols.max()) - k + 1), -np.inf)
    np.maximum.at(out, (rows - j, cols - k), x)
    return _Box(out, acc.j + j, acc.k + k,
                int(np.count_nonzero(np.isfinite(out))))


def _winning_option(tree, u, acc, leaf, theta, table, j, k):
    """Option index of the first option that gives u's table its value
    at (j, k), and the cell of acc it came from."""
    target = table.x[j - table.j, k - table.k]
    J = j - int(bool(tree.voting[u]) and target > theta)
    rows, cols = acc.x.shape
    for case, (_, cost, a_eff, s_eff) in enumerate(_node_cases(tree, u)):
        K = k - cost
        a, b = J - acc.j, K - acc.k
        if not (0 <= a < rows and 0 <= b < cols and np.isfinite(acc.x[a, b])):
            continue
        x = s_eff if leaf else _combine(tree, u, a_eff, s_eff, acc.x[a, b])
        if x == target:
            return case, J, K
    raise RuntimeError(f"no stooge option of node {u} gives cell {(j, k)}")


def _winning_pair(prev, child, w, J, K, target):
    """The child cell (a, b) first in row-major order with
    prev[J - a, K - b] + w * child[a, b] == target."""
    # (J, K) within the merged box, whose corner is prev's plus child's
    dj, dk = J - prev.j - child.j, K - prev.k - child.k
    p, c = prev.x, child.x
    a0, a1 = max(0, dj - p.shape[0] + 1), min(c.shape[0], dj + 1)
    b0, b1 = max(0, dk - p.shape[1] + 1), min(c.shape[1], dk + 1)
    # prev's rows dj - a and columns dk - b for a, b ascending
    flipped = p[dj - a1 + 1:dj - a0 + 1, dk - b1 + 1:dk - b0 + 1][::-1, ::-1]
    hits = np.flatnonzero(flipped + w * c[a0:a1, b0:b1] == target)
    if not len(hits):
        raise RuntimeError(f"no child cell gives merged cell {(J, K)}")
    a, b = divmod(int(hits[0]), b1 - b0)
    return child.j + a0 + a, child.k + b0 + b


def tree_dp_min_stooges(tree, theta=0.5):
    """Minimum stooge cost making strictly more than half of the voting
    nodes exceed theta, with the realizing assignment.

    Each node's table holds x[j, k]: the maximum opinion of u over
    assignments in its subtree with exactly j voting subtree nodes above
    theta at cost k, -inf where none exists. Keeping only the maximum
    opinion per (j, k) is lossless: opinions propagate upward with
    nonnegative coefficients, so a higher child opinion dominates at
    every ancestor and never costs votes. Every table, and every prefix
    of a node's merged children, is held as the bounding box of its
    reached cells and the (votes, cost) of the box's corner. A merge's
    box is the sum of its operands' boxes; a node's table is built in
    the box of the cells its options reach, and a leaf's has one cell
    per distinct option.

    Children are merged in ascending id order by max-plus convolution,
    then the node's stooge options are applied. The forward pass keeps
    only opinions; the backtrack finds each winner again on the cells it
    follows, by recomputing the candidates with the same float
    expressions. Among equal opinions the option with the smallest
    index wins, then the child cell first in row-major order. root_table
    is a dict {(votes, cost): x} over the root's reached cells.

    Memory is O(voters x total cost) per table in the worst case, so
    large integer costs can widen every table along the cost axis. A
    theta that is not a finite real number raises ValueError.
    """
    validate_theta(theta)
    tables = {}
    children = {}
    merged = {}  # u -> prefix tables acc[0..m] of its merged children
    for u in reversed(tree.order):
        kids, weights = children[u] = tree.children(u)
        if not kids:
            tables[u] = _leaf_table(tree, u, theta)
            continue
        accs = [_EMPTY]
        for c, w in zip(kids, weights):
            accs.append(_merge(accs[-1], tables[c], w))
        merged[u] = accs
        tables[u] = _node_table(tree, u, accs[-1], theta)

    root = tables[tree.root]
    j, k = np.nonzero(np.isfinite(root.x))
    root_table = dict(zip(zip((j + root.j).tolist(), (k + root.k).tolist()),
                          root.x[j, k].tolist()))

    need = int(tree.voting.sum()) // 2 + 1
    first = max(need - root.j, 0)
    majority = np.isfinite(root.x[first:])
    costs = np.flatnonzero(majority.any(axis=0))
    if not len(costs):
        return TreeDPResult(False, root_table=root_table)
    best_k = root.k + int(costs[0])
    best_j = root.j + first + int(np.argmax(majority[:, costs[0]]))

    assignment = {}
    stack = [(tree.root, best_j, best_k)]
    while stack:
        u, j, k = stack.pop()
        kids, weights = children[u]
        accs = merged.get(u, [_EMPTY])
        case, J, K = _winning_option(tree, u, accs[-1], not kids, theta,
                                     tables[u], j, k)
        label = _node_cases(tree, u)[case][0]
        if label != "keep":
            assignment[u] = label
        for i in range(len(kids), 0, -1):
            c = kids[i - 1]
            acc = accs[i]
            a, b = _winning_pair(accs[i - 1], tables[c], weights[i - 1],
                                 J, K, acc.x[J - acc.j, K - acc.k])
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
    batched bottom-up pass; no DP machinery is reused. A theta that is
    not a finite real number raises ValueError.
    """
    validate_theta(theta)
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
