"""Independent oracles shared by the test modules."""

import gc
from contextlib import contextmanager

import numpy as np

from medianflip import Instance, build_network
from medianflip.equilibrium import equilibrium
from medianflip.network import Network, NetworkError
from medianflip.treedp import TreeDPResult, _combine, _node_cases


@contextmanager
def gc_passes():
    """A list of the generations of the garbage-collector passes that
    run inside the block, which starts from a full collection."""
    passes = []

    def record(phase, info):
        if phase == "start":
            passes.append(info["generation"])

    gc.collect()
    gc.callbacks.append(record)
    try:
        yield passes
    finally:
        gc.callbacks.remove(record)


def random_connected_instance(rng, n, extra_edge_prob=0.15,
                              alpha_range=(0.1, 0.9), directed=False):
    """Random spanning-tree-plus-chords instance for oracle sweeps."""
    edges = []
    for v in range(1, n):
        u = int(rng.integers(0, v))
        edges.append((u, v, float(rng.uniform(0.5, 2.0))))
    present = {(u, v) for u, v, _ in edges}
    for u in range(n):
        for v in range(u + 1, n):
            if (u, v) not in present and rng.random() < extra_edge_prob:
                edges.append((u, v, float(rng.uniform(0.5, 2.0))))
    net = build_network(n, edges, directed=directed)
    alpha = rng.uniform(*alpha_range, n)
    s = rng.uniform(0, 1, n)
    return Instance(net, alpha, s)


def exact_huber_estimate(x, c):
    """Exact minimizer of sum_i H_c(x_i - y) by piecewise-linear root finding.

    The derivative condition g(y) = sum_i psi_c(x_i - y) = 0 is piecewise
    linear in y with breakpoints at x_i +- c, so the root is found by
    locating the sign change over breakpoints and interpolating exactly.
    Flat zero segments (all residuals outside c) return the segment
    midpoint, one of the minimizers. Machine-precision accurate, unlike
    value-comparison searches whose objective plateaus near the minimum.
    """
    x = np.asarray(x, dtype=float)
    bps = np.unique(np.concatenate([x - c, x + c]))

    def g(y):
        r = x - y
        inside = np.abs(r) <= c
        return float(r[inside].sum() + c * np.sign(r[~inside]).sum())

    gv = np.array([g(b) for b in bps])
    below = np.nonzero(gv <= 0)[0]
    if len(below) == 0:
        return float(bps[-1])
    j = int(below[0])
    if gv[j] == 0 or j == 0:
        return float(bps[j])
    lo, hi = bps[j - 1], bps[j]
    mid = 0.5 * (lo + hi)
    inside = np.abs(x - mid) < c
    if not inside.any():
        return float(mid)
    n_above = int(np.sum(x - mid > c))
    n_below = int(np.sum(mid - x > c))
    y = (x[inside].sum() + c * (n_above - n_below)) / inside.sum()
    return float(min(max(y, lo), hi))


def dense_equilibrium(instance, alpha):
    """Direct dense solve of (I - (I-A)W) x = A s, independent of the
    library's factored operator."""
    W = instance.network.influence_matrix.toarray()
    n = instance.node_count
    X = np.eye(n) - (1.0 - alpha)[:, None] * W
    return np.linalg.solve(X, alpha * instance.s)


def fd_gradient(instance, objective_of_x, h=1e-6):
    """Central finite differences of objective(x*(alpha)) over each alpha_u.

    Uses the dense direct solve so the h=1e-6 differences sit on machine
    precision rather than iterative-solver noise.
    """
    n = instance.node_count
    grad = np.zeros(n)
    for u in range(n):
        up = instance.alpha.copy()
        dn = instance.alpha.copy()
        up[u] += h
        dn[u] -= h
        grad[u] = (
            objective_of_x(dense_equilibrium(instance, up))
            - objective_of_x(dense_equilibrium(instance, dn))
        ) / (2 * h)
    return grad


def grid_projection_oracle(alpha_prime, alpha0, k, pitches=(0.05, 0.01, 0.002, 0.001)):
    """Global grid minimizer of ||z - alpha_prime||_2 over the feasible set.

    Grids are anchored at alpha0 (so alpha0 itself is always a feasible
    grid point) and refined in stages. The refinement window around the
    running best comes from strong convexity of the squared distance:
    any grid point z obeys ||z - proj||^2 <= F(z) - F(proj), and the
    coarse stage bounds F(z) - F(proj) by sqrt(3)*h*(2f + sqrt(3)*h).

    Returns (best point, best distance, stage-1 grid, final-stage grid).
    """
    alpha_prime = np.asarray(alpha_prime, dtype=float)
    alpha0 = np.asarray(alpha0, dtype=float)
    d = len(alpha_prime)

    def stage(center, radius, h):
        axes = []
        for i in range(d):
            lo = max(0.0, center[i] - radius)
            hi = min(1.0, center[i] + radius)
            j_lo = int(np.ceil((lo - alpha0[i]) / h - 1e-12))
            j_hi = int(np.floor((hi - alpha0[i]) / h + 1e-12))
            vals = alpha0[i] + h * np.arange(j_lo, j_hi + 1)
            axes.append(np.clip(vals, 0.0, 1.0))
        mesh = np.meshgrid(*axes, indexing="ij")
        pts = np.stack([m.ravel() for m in mesh], axis=1)
        feasible = np.abs(pts - alpha0).sum(axis=1) <= k + 1e-12
        pts = pts[feasible]
        dist = np.linalg.norm(pts - alpha_prime, axis=1)
        best = int(np.argmin(dist))
        return pts[best], float(dist[best]), pts

    center, radius = alpha0, float(d)  # first window covers the whole box
    first_grid = final_grid = None
    best = f_best = None
    for idx, h in enumerate(pitches):
        best, f_best, pts = stage(center, radius, h)
        if idx == 0:
            first_grid = pts
        final_grid = pts
        center = best
        radius = np.sqrt(np.sqrt(3) * h * (2 * f_best + np.sqrt(3) * h)) + h
    return best, f_best, first_grid, final_grid


def exhaustive_greedy_oracle(instance, k, theta=0.5, score=False,
                             return_margin=False):
    """Plain greedy with no laziness bookkeeping, on the dense solver.

    Each iteration evaluates every remaining (u, r) candidate, commits
    the best positive gain with ties toward (smaller u, then r = 1), and
    stops when the median passes theta. Returns the commit sequence;
    with return_margin also the smallest decision margin seen, i.e. the
    min over iterations of both (best gain - best runner-up gain) and
    |best gain|. A tiny margin means the argmax is decided below solver
    noise and the sequence is not numerically well defined.
    """
    from medianflip.greedy import score_total

    def value(x):
        if score:
            return score_total(x)
        return float(np.sort(x)[len(x) // 2])

    def upper_median(x):
        return float(np.sort(x)[len(x) // 2])

    alpha = instance.alpha.copy()
    sequence = []
    margin = np.inf
    while len(sequence) < k:
        x = dense_equilibrium(instance, alpha)
        if upper_median(x) > theta:
            break
        base = value(x)
        best = None
        gains = {}
        for u in range(instance.node_count):
            if any(u == cu for cu, _ in sequence):
                continue
            for r in (0.0, 1.0):
                trial = alpha.copy()
                trial[u] = r
                g = value(dense_equilibrium(instance, trial)) - base
                gains[(u, r)] = g
                key = (g, -u, r)
                if best is None or key > best[0]:
                    best = (key, u, r)
        if best is not None:
            margin = min(margin, abs(best[0][0]))
            others = [g for ur, g in gains.items()
                      if ur != (best[1], best[2])]
            if others:
                margin = min(margin, best[0][0] - max(others))
        if best is None or best[0][0] <= 0:
            break
        _, u, r = best
        alpha[u] = r
        sequence.append((u, r))
    if return_margin:
        return sequence, float(margin)
    return sequence


def betweenness_by_path_enumeration(network):
    """Pair-by-pair shortest-path counting for tiny graphs.

    For every ordered pair (s, t), BFS distances define the shortest-path
    DAG; sigma_st and the per-node pass-through counts are accumulated by
    explicit path enumeration. Undirected scores count unordered pairs.
    """
    n = network.node_count
    adj = [list(network.adjacency[u][0]) for u in range(n)]
    bc = np.zeros(n)
    for s in range(n):
        dist = np.full(n, -1)
        dist[s] = 0
        frontier = [s]
        while frontier:
            nxt = []
            for u in frontier:
                for v in adj[u]:
                    if v != u and dist[v] < 0:
                        dist[v] = dist[u] + 1
                        nxt.append(v)
            frontier = nxt
        for t in range(n):
            if t == s or dist[t] < 0:
                continue
            paths = []
            stack = [[t]]
            while stack:
                path = stack.pop()
                head = path[-1]
                if head == s:
                    paths.append(path)
                    continue
                for u in range(n):
                    if dist[u] == dist[head] - 1 and head in adj[u]:
                        stack.append(path + [u])
            for path in paths:
                for v in path[1:-1]:
                    bc[v] += 1.0 / len(paths)
    if not network.directed:
        bc /= 2.0
    return bc


def check_variational_inequality(proj, alpha_prime, grid, tol=1e-6):
    """proj is the true projection iff F(z) >= F(proj) + ||z - proj||^2
    for every feasible z; verify over the supplied grid points."""
    F_proj = float(np.sum((proj - alpha_prime) ** 2))
    F_grid = np.sum((grid - alpha_prime) ** 2, axis=1)
    gap = F_grid - F_proj - np.sum((grid - proj) ** 2, axis=1)
    return float(gap.min()) >= -tol


def dict_loop_build_network(n, edges, directed=False, allow_self_loops=False):
    """Edge-by-edge reference for build_network, with a dict of seen keys.

    Takes integer ids and finite weights; the checks for non-integral
    ids and non-finite weights belong to build_network alone.
    """
    if n < 1:
        raise NetworkError(f"node_count must be >= 1, got {n}")
    seen = {}
    for u, v, w in edges:
        u, v, w = int(u), int(v), float(w)
        if not (0 <= u < n and 0 <= v < n):
            raise NetworkError(f"arc ({u}, {v}) out of range for n={n}")
        if w <= 0:
            raise NetworkError(f"arc ({u}, {v}) has nonpositive weight {w}")
        if u == v and not allow_self_loops:
            raise NetworkError(f"self-loop at node {u} not allowed")
        key = (u, v) if directed or u <= v else (v, u)
        if key in seen:
            old_w, orientations = seen[key]
            if directed or (u, v) in orientations:
                raise NetworkError(f"duplicate arc ({u}, {v})")
            if old_w != w:
                raise NetworkError(
                    f"edge {key} listed twice with weights {old_w} and {w}")
            orientations.add((u, v))
        else:
            seen[key] = (w, {(u, v)})

    pairs = sorted(seen)
    src, dst, wts = [], [], []
    for u, v in pairs:
        w = seen[(u, v)][0]
        src.append(u)
        dst.append(v)
        wts.append(w)
        if not directed and u != v:
            src.append(v)
            dst.append(u)
            wts.append(w)
    order = np.lexsort((dst, src)) if src else np.array([], dtype=int)
    return Network(n, directed, np.array(src, dtype=int)[order],
                   np.array(dst, dtype=int)[order], np.array(wts)[order],
                   len(pairs))


def lexsort_build_network(n, edges, directed=False, allow_self_loops=False):
    """build_network as it was written with np.array and two np.lexsort
    calls: the reference for its arc order and its error messages."""
    if n < 1:
        raise NetworkError(f"node_count must be >= 1, got {n}")
    try:
        rows = np.array(edges, dtype=float)
    except (TypeError, ValueError, OverflowError) as exc:
        raise NetworkError(f"edges must be (u, v, w) rows: {exc}") from exc
    if rows.shape == (0,):
        rows = np.empty((0, 3))
    if rows.ndim != 2 or rows.shape[1] != 3:
        raise NetworkError(
            f"edges must be (u, v, w) rows, got an array of shape {rows.shape}")
    ids, w = rows[:, :2], rows[:, 2]
    for bad, problem in (
            ((ids != np.floor(ids)).any(axis=1), "a non-integral node id"),
            (((ids < 0) | (ids >= n)).any(axis=1),
             f"a node id outside 0..{n - 1}"),
            (~np.isfinite(w), "a non-finite weight"),
            (w <= 0, "a nonpositive weight")):
        if bad.any():
            raise NetworkError(
                f"edge {rows[np.argmax(bad)].tolist()} has {problem}")
    src, dst = ids.astype(int).T
    if not allow_self_loops and (src == dst).any():
        raise NetworkError(
            f"self-loop at node {src[np.argmax(src == dst)]} not allowed")
    lo, hi = (src, dst) if directed else (np.minimum(src, dst),
                                          np.maximum(src, dst))
    order = np.lexsort((src, hi, lo))
    lo, hi, src, dst, w = lo[order], hi[order], src[order], dst[order], w[order]
    same = (np.diff(lo) == 0) & (np.diff(hi) == 0)
    repeated = same & (np.diff(src) == 0)
    if repeated.any():
        i = np.argmax(repeated)
        raise NetworkError(f"duplicate arc ({src[i]}, {dst[i]})")
    conflict = same & (np.diff(w) != 0)
    if conflict.any():
        i = np.argmax(conflict)
        raise NetworkError(f"edge ({lo[i]}, {hi[i]}) listed twice with "
                           f"weights {w[i]} and {w[i + 1]}")
    keep = np.ones(len(lo), dtype=bool)
    keep[1:] = ~same
    lo, hi, w = lo[keep], hi[keep], w[keep]
    edge_count = len(lo)
    if not directed:
        mirror = lo != hi
        lo, hi, w = (np.concatenate((lo, hi[mirror])),
                     np.concatenate((hi, lo[mirror])),
                     np.concatenate((w, w[mirror])))
        order = np.lexsort((hi, lo))
        lo, hi, w = lo[order], hi[order], w[order]
    return Network(n, directed, lo, hi, w, edge_count)


def dict_knapsack_tree_dp(tree, theta=0.5):
    """Dict-of-tuples reference for tree_dp_min_stooges: the same root
    table {(votes, cost): x}, cost and assignment, merged pair by pair
    with a back pointer per cell.

    dp[u][(j, k)] holds the maximum opinion of u over assignments in u's
    subtree with exactly j voting subtree nodes above theta at cost k.
    Keeping only the maximum opinion per (j, k) is lossless: opinions
    propagate upward with nonnegative coefficients, so a higher child
    opinion dominates at every ancestor and never costs votes.

    Among equal opinions a merged cell keeps the smallest child cell
    (j, k), whatever order the dicts are met in. A node's cell keeps the
    first option met, options being met in index order; within one
    option no two cells of the merged children tie, since the one that
    lifts u to a vote reaches a different row.
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
                    old = merged.get(key)
                    if old is None or val > old[0] or (
                            val == old[0] and (j, k) < old[2]):
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
    root_table = {key: val[0] for key, val in dp[tree.root].items()}
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
