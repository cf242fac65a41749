"""Weighted directed/undirected networks with row-normalized influence weights.

A Network stores the out-adjacency of a graph; the influence matrix W has
row u equal to w_uv / deg(u) over out-neighbors v, where deg(u) is the sum
of outgoing edge weights. Zero-degree nodes get an all-zero row.
"""

import numpy as np
import scipy.sparse as sp


class NetworkError(ValueError):
    """Raised for malformed graph input (bad ids, weights, duplicates)."""


class Network:
    """Immutable weighted graph with out-neighbor adjacency.

    Undirected input is stored as two directed arcs of equal weight. Arcs
    are kept sorted by (source, target) so every downstream algorithm is
    run-to-run deterministic, and the arcs leaving u are the rows
    indptr[u]:indptr[u + 1] of arc_dst and arc_w (compressed sparse rows).
    """

    def __init__(self, node_count, directed, arc_src, arc_dst, arc_w, edge_count):
        self.node_count = int(node_count)
        self.directed = bool(directed)
        # arc_src stays beside indptr: save_instance and the benchmark's
        # workloads read the three flat arc arrays
        self.arc_src = arc_src
        self.arc_dst = arc_dst
        self.arc_w = arc_w
        self.edge_count = int(edge_count)
        self.indptr = np.searchsorted(arc_src, np.arange(self.node_count + 1))
        self.deg = np.zeros(self.node_count)
        np.add.at(self.deg, arc_src, arc_w)
        self._W = None

    @property
    def influence_matrix(self):
        """Row-normalized sparse W (CSR); zero rows for degree-0 nodes."""
        if self._W is None:
            n = self.node_count
            self._W = sp.csr_matrix(
                (self.arc_w / self.deg[self.arc_src], self.arc_dst, self.indptr),
                shape=(n, n),
            )
        return self._W

    # the benchmark's tracer wraps this property by name
    @property
    def adjacency(self):
        """Per-node (targets, weights) of out_neighbors, targets ascending."""
        return [self.out_neighbors(u) for u in range(self.node_count)]

    def out_neighbors(self, u):
        """Targets (ascending) and weights of u's out-arcs, as views."""
        lo, hi = self.indptr[u], self.indptr[u + 1]
        return self.arc_dst[lo:hi], self.arc_w[lo:hi]

    def walk(self, root):
        """Nodes reachable from root along out-arcs, each once, in the
        order a stack pops them. Out-neighbors are pushed in ascending
        order, so the highest-numbered is visited first; on an out-tree
        this is a depth-first preorder, every parent before its children."""
        seen = np.zeros(self.node_count, dtype=bool)
        seen[root] = True
        order, stack = [], [root]
        while stack:
            u = stack.pop()
            order.append(u)
            for v in self.out_neighbors(u)[0].tolist():
                if not seen[v]:
                    seen[v] = True
                    stack.append(v)
        return order

    def __repr__(self):
        kind = "directed" if self.directed else "undirected"
        return f"Network(n={self.node_count}, edges={self.edge_count}, {kind})"


def build_network(n, edges, directed=False, allow_self_loops=False):
    """Build a Network from (u, v, w) triples.

    Node ids must be integers in 0..n-1 and weights finite and strictly
    positive. For undirected graphs, listing an edge in both orientations
    with equal weight counts as a single edge; conflicting or repeated
    arcs raise NetworkError, as does any row that is not (u, v, w).
    """
    if n < 1:
        raise NetworkError(f"node_count must be >= 1, got {n}")
    try:
        rows = np.array(edges, dtype=float)
    except (TypeError, ValueError) as exc:
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

    # an edge's key is its arc, or for undirected input its (min, max)
    # pair; sorting by (key, source) puts a repeated orientation next to
    # itself and a mirrored listing next to its mirror
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


class Instance:
    """A network together with resistances alpha and innate opinions s.

    Both vectors have one entry per node and must lie in [0, 1].
    Instances are immutable; interventions produce fresh alpha vectors.
    """

    def __init__(self, network, alpha, s):
        alpha = np.asarray(alpha, dtype=float)
        s = np.asarray(s, dtype=float)
        n = network.node_count
        if alpha.shape != (n,):
            raise NetworkError(f"alpha has shape {alpha.shape}, expected ({n},)")
        if s.shape != (n,):
            raise NetworkError(f"s has shape {s.shape}, expected ({n},)")
        validate_unit_interval(alpha, "alpha")
        validate_unit_interval(s, "s")
        self.network = network
        self.alpha = alpha
        self.s = s

    def with_alpha(self, alpha):
        """Same network and opinions, different resistance vector."""
        return Instance(self.network, alpha, self.s)

    def with_s(self, s):
        return Instance(self.network, self.alpha, s)

    @property
    def node_count(self):
        return self.network.node_count

    def __repr__(self):
        return f"Instance({self.network!r})"


def validate_unit_interval(vec, name):
    outside = ~((vec >= 0) & (vec <= 1))  # NaN fails both comparisons
    if outside.any():
        bad = int(np.argmax(outside))
        raise NetworkError(f"{name}[{bad}] = {vec[bad]} outside [0, 1]")
