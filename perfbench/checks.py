"""Answer checks computed apart from medianflip.

Every check rebuilds what it needs from the benchmark's own edge list
(`(u, v, w)` triples, each undirected edge listed once) and returns a
list of problems; an empty list means the answer passed. Nothing here
imports medianflip, so a fault in the program cannot also hide in its
own check.
"""

import numpy as np
import scipy.sparse as sp

SOLVER_TOL = 1e-7  # LSQR at atol 1e-10 against a direct solve
PRINT_TOL = 2e-6  # medians printed by the CLI with six decimals


def arcs(edges, directed):
    """Directed arcs (u, v, w): undirected edges in both directions."""
    out = []
    for u, v, w in edges:
        out.append((u, v, w))
        if not directed and u != v:
            out.append((v, u, w))
    return out


def influence(n, edges, directed):
    """Row-normalised sparse W; rows of childless nodes stay zero."""
    a = arcs(edges, directed)
    src = np.array([u for u, _, _ in a], dtype=int)
    dst = np.array([v for _, v, _ in a], dtype=int)
    w = np.array([x for _, _, x in a], dtype=float)
    deg = np.bincount(src, weights=w, minlength=n)
    return sp.csr_matrix((w / deg[src], (src, dst)), shape=(n, n))


def fj_system(n, edges, directed, alpha, s):
    """X = I - (I - A) W and b = A s of the Friedkin-Johnsen equilibrium."""
    W = influence(n, edges, directed)
    X = sp.eye(n, format="csr") - sp.diags(1.0 - alpha) @ W
    return X, alpha * s


def dense_equilibrium(n, edges, directed, alpha, s):
    X, b = fj_system(n, edges, directed, np.asarray(alpha, float), s)
    return np.linalg.solve(X.toarray(), b)


def iterate_equilibrium(n, edges, directed, alpha, s, max_rounds=20_000):
    """Fixed-point iteration x <- A s + (I - A) W x from x = s, with the
    relative residual ||Xx - As|| / max(1, ||As||) of its result. A
    direct sparse LU of X fills in badly on preferential-attachment
    graphs (minutes at n = 10 000); the iteration takes milliseconds."""
    alpha = np.asarray(alpha, float)
    W = influence(n, edges, directed)
    b, fade = alpha * s, 1.0 - alpha
    x = np.array(s, float)
    for _ in range(max_rounds):
        x_next = b + fade * (W @ x)
        done = np.max(np.abs(x_next - x)) < 1e-14
        x = x_next
        if done:
            break
    residual = np.linalg.norm(x - fade * (W @ x) - b)
    return x, float(residual / max(1.0, np.linalg.norm(b)))


def upper_median(x):
    return float(np.sort(x)[len(x) // 2])


def check_alpha(alpha, alpha0, l1_budget=None, l0_budget=None):
    """alpha in [0, 1] and within its l1 or l0 budget around alpha0."""
    alpha = np.asarray(alpha, float)
    problems = []
    if np.any(alpha < 0.0) or np.any(alpha > 1.0):
        problems.append("alpha outside [0, 1]")
    moved = np.abs(alpha - alpha0)
    if l1_budget is not None and moved.sum() > l1_budget + 1e-9:
        problems.append(f"l1 use {moved.sum():.6f} over budget {l1_budget}")
    if l0_budget is not None and int(np.sum(moved > 0)) > l0_budget:
        problems.append(f"{int(np.sum(moved > 0))} stooges over budget "
                        f"{l0_budget}")
    return problems


def check_median(x, reported, flipped, theta, tol=SOLVER_TOL):
    """The reported median and flip flag agree with the checker's solve."""
    med = upper_median(x)
    problems = []
    if abs(med - reported) > tol:
        problems.append(f"reported median {reported} but solve gives {med}")
    if flipped != (med > theta):
        problems.append(f"flipped={flipped} but median {med} vs theta {theta}")
    return problems


def check_continuous_search(case, calls, found, resolution, theta=0.5):
    """A halving flip search over l1 radii.

    calls: (radius, alpha_final, stooges, final_median, flipped) per
    runner call; stooges is not used.
    Every answer must be feasible and report its true median; the answer
    at `found` must flip, and an evaluated radius within `resolution`
    below it (or the unmodified instance, radius 0) must not.
    """
    n, edges, directed, alpha0, s = case
    problems = []
    flipped_at, unflipped_at = set(), {0.0}
    if upper_median(dense_equilibrium(n, edges, directed, alpha0, s)) > theta:
        problems.append("unmodified instance already flipped")
    for radius, alpha, _, reported, flipped in calls:
        problems += check_alpha(alpha, alpha0, l1_budget=radius)
        x = dense_equilibrium(n, edges, directed, alpha, s)
        problems += check_median(x, reported, flipped, theta)
        (flipped_at if upper_median(x) > theta else unflipped_at).add(radius)
    if found is None:
        problems.append("no flipping radius found")
    elif found not in flipped_at:
        problems.append(f"radius {found} does not flip")
    elif not any(found - resolution <= r < found for r in unflipped_at):
        problems.append(f"no unflipped radius within {resolution} below "
                        f"{found}")
    return problems


def check_discrete_search(case, calls, found, theta=0.5):
    """A linear flip scan over stooge counts.

    calls: (k, alpha_final, stooges, final_median, flipped) per runner
    call. The scan must try k = 1..found in order, each answer must pin
    at most k nodes to 0 or 1 and report its true median, and only the
    last one may flip.
    """
    n, edges, directed, alpha0, s = case
    problems = []
    if upper_median(dense_equilibrium(n, edges, directed, alpha0, s)) > theta:
        problems.append("unmodified instance already flipped")
    if [c[0] for c in calls] != list(range(1, len(calls) + 1)):
        problems.append("scan did not try k = 1, 2, ... in order")
    if found is None or found != len(calls):
        problems.append(f"found {found} after {len(calls)} scan steps")
    for k, alpha, stooges, reported, flipped in calls:
        problems += check_alpha(alpha, alpha0, l0_budget=k)
        moved = set(np.nonzero(alpha != alpha0)[0].tolist())
        if not moved <= set(stooges):
            problems.append(f"k={k}: alpha moved off the stooge set")
        if any(alpha[u] != r or r not in (0.0, 1.0)
               for u, r in stooges.items()):
            problems.append(f"k={k}: stooge not pinned to its 0/1 value")
        x = dense_equilibrium(n, edges, directed, alpha, s)
        problems += check_median(x, reported, flipped, theta)
        if (upper_median(x) > theta) != (k == found):
            problems.append(f"k={k}: flip state wrong for found={found}")
    return problems


def check_baseline_scan(case, selection, measure, found, theta=0.5,
                        tol=1e-9):
    """Recompute a baseline's flip budget by the checker's own scan.

    selection is the program's node order at `found`; it must rank
    nodes by descending `measure`, with ties in any order, and pin each
    node by the rule alpha = 1 if s > theta else 0. The checker then
    scans prefixes of that order with dense solves; the first flipping
    prefix must have length `found`.
    """
    n, edges, directed, alpha0, s = case
    problems = []
    nodes = [u for u, _ in selection]
    if len(set(nodes)) != len(nodes) or len(nodes) != found:
        problems.append(f"selection of {len(nodes)} nodes for budget {found}")
    rest = np.setdiff1d(np.arange(n), nodes)
    for i, u in enumerate(nodes):
        later = nodes[i + 1:] + rest.tolist()
        top = max((measure[v] for v in later), default=-np.inf)
        if measure[u] < top - tol * max(1.0, abs(top)):
            problems.append(f"node {u} ranked above a higher measure")
            break
    for u, r in selection:
        if r != (1.0 if s[u] > theta else 0.0):
            problems.append(f"node {u} pinned to {r} against the rule")
    alpha = np.array(alpha0, float)
    own = None
    for k, (u, _) in enumerate(selection, start=1):
        alpha[u] = 1.0 if s[u] > theta else 0.0
        med = upper_median(dense_equilibrium(n, edges, directed, alpha, s))
        if med > theta:
            own = k
            break
    if own != found:
        problems.append(f"own scan flips at {own}, program says {found}")
    return problems


def tree_pass(n, edges, alpha, s):
    """Bottom-up equilibrium on an out-tree; childless nodes keep x = s,
    the documented leaf convention of medianflip.treedp. Self-loops of
    weight l solve x = alpha s + (1 - alpha) (sum w x_c + l x) / deg."""
    kids = [[] for _ in range(n)]
    loop = np.zeros(n)
    indeg = np.zeros(n, dtype=int)
    for u, v, w in edges:
        if u == v:
            loop[u] = w
        else:
            kids[u].append((v, w))
            indeg[v] += 1
    order, stack = [], [int(np.argmin(indeg))]
    while stack:
        u = stack.pop()
        order.append(u)
        stack.extend(v for v, _ in kids[u])
    if len(order) != n:
        raise ValueError("edges do not form one rooted out-tree")
    x = np.zeros(n)
    for u in reversed(order):
        if not kids[u]:
            x[u] = s[u]
            continue
        deg = sum(w for _, w in kids[u]) + loop[u]
        pull = sum(w * x[v] for v, w in kids[u])
        x[u] = ((alpha[u] * s[u] + (1 - alpha[u]) * pull / deg)
                / (1 - (1 - alpha[u]) * loop[u] / deg))
    return x


def check_tree_answer(case, stooges, program_x, theta=0.5):
    """A both-mode tree answer (each stooge gets alpha = s = 1).

    Strictly more than half of the nodes must exceed theta under the
    checker's own bottom-up pass, the program's opinions must match that
    pass, and dropping any single stooge must break the flip, which every
    minimum-cost answer satisfies.
    """
    n, edges, _, alpha0, s0 = case
    need = n // 2 + 1

    def votes(chosen):
        alpha, s = np.array(alpha0, float), np.array(s0, float)
        alpha[list(chosen)] = 1.0
        s[list(chosen)] = 1.0
        x = tree_pass(n, edges, alpha, s)
        return int(np.sum(x > theta)), x

    problems = []
    got, x = votes(stooges)
    if got < need:
        problems.append(f"{got} of {n} nodes above theta, need {need}")
    if program_x is not None and np.max(np.abs(x - program_x)) > 1e-9:
        problems.append("program's tree opinions differ from the checker's")
    for u in stooges:
        if votes(set(stooges) - {u})[0] >= need:
            problems.append(f"stooge {u} is redundant")
            break
    return problems


def check_sparse_answer(case, alpha, reported, flipped, l1_budget,
                        base_median, theta=0.5):
    """A fixed-budget answer on a large instance, by a sparse iteration.

    The written alpha must be feasible, the checker's own solution must
    have a small residual ||Xx - As||, its median must match the reported one,
    and the answer must be no worse than the unmodified median, since the
    ascent returns its best iterate including the start.
    """
    n, edges, directed, alpha0, s = case
    problems = check_alpha(alpha, alpha0, l1_budget=l1_budget)
    x, residual = iterate_equilibrium(n, edges, directed, alpha, s)
    if residual > 1e-10:
        problems.append(f"checker residual {residual:.2e} too large")
    problems += check_median(x, reported, flipped, theta, tol=PRINT_TOL)
    if upper_median(x) < base_median - 1e-12:
        problems.append(f"median {upper_median(x)} below the unmodified "
                        f"{base_median}")
    return problems
