"""Synthetic instance generators: standard topologies with opinion
distributions matched to mean 0.45 and spread 0.1, uniform resistance
one half everywhere."""

import heapq
from dataclasses import dataclass, field

import numpy as np

from .network import Instance, build_network

DISTRIBUTIONS = ("normal", "lognormal", "bimodal", "file")

GNP_RETRY_CAP = 100
# redraw rounds before rejection sampling of opinions gives up
TRUNCATION_ROUNDS = 1000


@dataclass
class GeneratorSpec:
    """Recipe for a synthetic instance.

    params overrides the per-topology defaults; dist "file" reads one
    opinion per line from opinion_file instead of sampling.
    """

    topology: str
    dist: str = "normal"
    seed: int = None
    params: dict = field(default_factory=dict)
    opinion_file: str = None

    def __post_init__(self):
        if self.topology not in TOPOLOGIES:
            raise ValueError(
                f"unknown topology {self.topology!r}, expected one of "
                f"{TOPOLOGIES}"
            )
        if self.dist not in DISTRIBUTIONS:
            raise ValueError(
                f"unknown distribution {self.dist!r}, expected one of "
                f"{DISTRIBUTIONS}"
            )
        if self.dist == "file" and self.opinion_file is None:
            raise ValueError("dist 'file' requires opinion_file")
        defaults = GENERATORS[self.topology][0]
        unknown = set(self.params) - set(defaults)
        if unknown:
            raise ValueError(f"unknown params for {self.topology}: {unknown}")
        merged = {**defaults, **self.params}
        for key, val in merged.items():
            merged[key], kind = _checked(defaults[key], val)
            if merged[key] is None:
                raise ValueError(f"param {key} must be {kind}, got {val!r}")
        self.params = merged


def _real(val):
    return (isinstance(val, (int, float, np.integer, np.floating))
            and not isinstance(val, bool))


def _count(val):
    """int(val) for an integral number >= 1, else None."""
    ok = _real(val) and 1 <= val < np.inf and val % 1 == 0
    return int(val) if ok else None


def _checked(default, val):
    """(val as its default's kind, or None when it is not one; that kind)."""
    if isinstance(default, bool):
        return (val if isinstance(val, bool) else None), "a boolean"
    if isinstance(default, float):  # NaN fails
        ok = _real(val) and 0 < val <= 1
        return (val if ok else None), "positive, at most 1"
    if isinstance(default, tuple):  # one count per entry
        many = val if isinstance(val, (list, tuple)) else [val]
        counts = tuple(_count(v) for v in many)
        ok = bool(many) and None not in counts
        return (counts if ok else None), "positive integers"
    return _count(val), "a positive integer"


def _grid(rng, rows, cols):
    edges = []
    for i in range(rows):
        for j in range(cols):
            u = i * cols + j
            if j + 1 < cols:
                edges.append((u, u + 1, 1.0))
            if i + 1 < rows:
                edges.append((u, u + cols, 1.0))
    return build_network(rows * cols, edges)


def _star(rng, n):
    return build_network(n, [(0, v, 1.0) for v in range(1, n)])


def _gnp(rng, n, p):
    for _ in range(GNP_RETRY_CAP):
        iu, ju = np.triu_indices(n, k=1)
        mask = rng.random(iu.size) < p
        edges = [(int(u), int(v), 1.0) for u, v in zip(iu[mask], ju[mask])]
        network = build_network(n, edges)
        if len(network.walk(0)) == n:
            return network
    raise RuntimeError(
        f"gnp(n={n}, p={p}) failed to produce a connected graph in "
        f"{GNP_RETRY_CAP} attempts; increase n or p"
    )


def _random_tree(rng, n):
    """Uniform spanning tree on n labeled nodes via a decoded random
    code sequence of length n-2."""
    if n == 1:
        return build_network(n, [])
    if n == 2:
        return build_network(n, [(0, 1, 1.0)])
    seq = rng.integers(0, n, size=n - 2)
    degree = np.ones(n, dtype=int)
    for x in seq:
        degree[x] += 1
    leaves = [i for i in range(n) if degree[i] == 1]
    heapq.heapify(leaves)
    edges = []
    for x in seq:
        leaf = heapq.heappop(leaves)
        edges.append((int(leaf), int(x), 1.0))
        degree[x] -= 1
        if degree[x] == 1:
            heapq.heappush(leaves, int(x))
    u = heapq.heappop(leaves)
    v = heapq.heappop(leaves)
    edges.append((int(u), int(v), 1.0))
    return build_network(n, edges)


def _ba(rng, n, attach):
    """Preferential attachment: each new node links to `attach` distinct
    nodes drawn proportionally to current degree (via the repeated-node
    list), seeded by an initial batch of isolated nodes."""
    if n <= attach:
        raise ValueError(f"ba needs n > attach, got n={n}, attach={attach}")
    edges = []
    repeated = []
    targets = list(range(attach))
    for v in range(attach, n):
        for t in targets:
            edges.append((int(t), int(v), 1.0))
        repeated.extend(targets)
        repeated.extend([v] * len(targets))
        chosen = set()
        while len(chosen) < attach:
            chosen.add(repeated[int(rng.integers(0, len(repeated)))])
        targets = sorted(chosen)
    return build_network(n, edges)


def _communities(rng, sizes, inter, intra, swap):
    if swap:
        inter, intra = intra, inter
    n = int(np.sum(sizes))
    block = np.repeat(np.arange(len(sizes)), sizes)
    iu, ju = np.triu_indices(n, k=1)
    same = block[iu] == block[ju]
    prob = np.where(same, intra, inter)
    mask = rng.random(iu.size) < prob
    edges = [(int(u), int(v), 1.0) for u, v in zip(iu[mask], ju[mask])]
    return build_network(n, edges)


def _depth_tree(rng, n, window):
    """Sequential attachment to one of the last `window` nodes, giving
    depth at least n / window; arcs point parent to child."""
    edges = []
    for v in range(1, n):
        lo = max(0, v - window)
        parent = int(rng.integers(lo, v))
        edges.append((parent, v, 1.0))
    return build_network(n, edges, directed=True)


def _org_chart(rng, n, min_children, max_children):
    """Top-down tree where each node receives a uniform 2..5 children
    until the node budget runs out; arcs point parent to child."""
    if min_children > max_children:
        raise ValueError("min_children must not exceed max_children")
    edges = []
    queue = [0]
    next_id = 1
    while queue and next_id < n:
        u = queue.pop(0)
        want = int(rng.integers(min_children, max_children + 1))
        for _ in range(want):
            if next_id >= n:
                break
            edges.append((u, next_id, 1.0))
            queue.append(next_id)
            next_id += 1
    return build_network(n, edges, directed=True)


# topology -> (default params, builder(rng, **params) -> Network). Each
# parameter's kind is its default's: a bool, a float in (0, 1], a tuple
# of one or more counts, or an int count (an integral number >= 1).
GENERATORS = {
    "grid": ({"rows": 10, "cols": 10}, _grid),
    "star": ({"n": 100}, _star),
    "gnp": ({"n": 100, "p": 0.05}, _gnp),
    "random_tree": ({"n": 100}, _random_tree),
    "ba": ({"n": 100, "attach": 5}, _ba),
    "communities": ({"sizes": (50, 10, 10, 10, 10, 10), "inter": 0.3,
                     "intra": 0.5, "swap": False}, _communities),
    "depth_tree": ({"n": 100, "window": 5}, _depth_tree),
    "org_chart": ({"n": 100, "min_children": 2, "max_children": 5},
                  _org_chart),
}
TOPOLOGIES = tuple(GENERATORS)


def generate_network(topology, params, rng):
    """Build just the network part of a spec; directed for hierarchies."""
    if topology not in GENERATORS:
        raise ValueError(f"unknown topology {topology!r}")
    return GENERATORS[topology][1](rng, **params)


def _truncated(n, draw):
    """Sample with rejection until all values land in [0, 1]; avoids the
    boundary atoms that clamping would create."""
    x = draw(n)
    for _ in range(TRUNCATION_ROUNDS):
        bad = (x < 0.0) | (x > 1.0)
        if not bad.any():
            return x
        x[bad] = draw(int(bad.sum()))
    raise RuntimeError("rejection sampling failed to stay in [0, 1]")


def sample_opinions(dist, n, rng, opinion_file=None):
    """Opinion vector per distribution; normal / lognormal target mean
    0.45 and standard deviation 0.1 before truncation to [0, 1]."""
    if dist == "normal":
        return _truncated(n, lambda k: rng.normal(0.45, 0.1, k))
    if dist == "lognormal":
        sigma2 = np.log(1.0 + (0.1 / 0.45) ** 2)
        mu = np.log(0.45) - sigma2 / 2.0
        return _truncated(n, lambda k: rng.lognormal(mu, np.sqrt(sigma2), k))
    if dist == "bimodal":
        return np.where(rng.random(n) < 0.5, 0.35, 0.55)
    if dist == "file":
        vals = np.loadtxt(opinion_file, ndmin=1)
        if vals.size != n:
            raise ValueError(
                f"opinion file has {vals.size} values, expected {n}"
            )
        return vals.astype(float)
    raise ValueError(f"unknown distribution {dist!r}")


def generate(spec):
    """Instance from a GeneratorSpec: topology, opinions, alpha = 0.5."""
    rng = np.random.default_rng(spec.seed)
    network = generate_network(spec.topology, spec.params, rng)
    s = sample_opinions(spec.dist, network.node_count, rng,
                        spec.opinion_file)
    alpha = np.full(network.node_count, 0.5)
    return Instance(network, alpha, s)
