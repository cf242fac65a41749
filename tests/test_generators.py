import hashlib

import numpy as np
import pytest

from medianflip.generators import (
    TOPOLOGIES,
    GeneratorSpec,
    generate,
    generate_network,
    sample_opinions,
)
from medianflip.treedp import is_hierarchy


def degrees(network):
    deg = np.zeros(network.node_count, dtype=int)
    for u, v in zip(network.arc_src, network.arc_dst):
        deg[u] += 1
    return deg


class TestSpecValidation:
    def test_unknown_topology(self):
        with pytest.raises(ValueError, match="topology"):
            GeneratorSpec(topology="hypercube")

    def test_unknown_distribution(self):
        with pytest.raises(ValueError, match="distribution"):
            GeneratorSpec(topology="grid", dist="cauchy")

    def test_file_dist_needs_path(self):
        with pytest.raises(ValueError, match="opinion_file"):
            GeneratorSpec(topology="grid", dist="file")

    def test_nonpositive_param(self):
        with pytest.raises(ValueError, match="positive"):
            GeneratorSpec(topology="gnp", params={"p": 0.0})

    @pytest.mark.parametrize("topology,params", [
        ("grid", {"rows": 2.5}), ("grid", {"cols": True}),
        ("grid", {"rows": float("nan")}), ("grid", {"rows": float("inf")}),
        ("grid", {"rows": "3"}), ("ba", {"attach": 0}),
        ("org_chart", {"max_children": 2.5}), ("gnp", {"p": float("nan")}),
        ("gnp", {"p": 1.5}), ("gnp", {"p": True}),
        ("communities", {"inter": float("inf")}),
        ("communities", {"swap": 1}), ("communities", {"sizes": (5, 2.5)}),
        ("communities", {"sizes": ()}), ("communities", {"sizes": (5, 0)}),
        ("communities", {"sizes": (True, 5)})])
    def test_mistyped_param(self, topology, params):
        (key, val), = params.items()
        with pytest.raises(ValueError, match=f"param {key} must be"):
            GeneratorSpec(topology=topology, params=params)

    def test_integral_params_become_ints(self):
        spec = GeneratorSpec("grid", params={"rows": 3.0, "cols": np.int64(2)})
        assert spec.params == {"rows": 3, "cols": 2}
        assert all(type(v) is int for v in spec.params.values())
        sizes = GeneratorSpec("communities", params={"sizes": [4.0, 3]})
        assert sizes.params["sizes"] == (4, 3)
        net = generate_network("grid", spec.params, np.random.default_rng(0))
        assert net.node_count == 6

    def test_unknown_param(self):
        with pytest.raises(ValueError, match="unknown params"):
            GeneratorSpec(topology="star", params={"rows": 3})


class TestTopologies:
    def test_grid_10x10(self):
        net = generate_network("grid", {"rows": 10, "cols": 10},
                               np.random.default_rng(0))
        assert net.node_count == 100
        deg = degrees(net)
        interior = [i * 10 + j for i in range(1, 9) for j in range(1, 9)]
        assert all(deg[u] == 4 for u in interior)
        assert deg[0] == 2 and deg[99] == 2

    def test_star_100(self):
        net = generate_network("star", {"n": 100}, np.random.default_rng(0))
        deg = degrees(net)
        assert deg[0] == 99
        assert np.all(deg[1:] == 1)

    def test_gnp_connected(self):
        rng = np.random.default_rng(1)
        net = generate_network("gnp", {"n": 80, "p": 0.08}, rng)
        adj = [[] for _ in range(80)]
        for u, v in zip(net.arc_src, net.arc_dst):
            adj[u].append(v)
            adj[v].append(u)
        seen = {0}
        frontier = [0]
        while frontier:
            u = frontier.pop()
            for v in adj[u]:
                if v not in seen:
                    seen.add(v)
                    frontier.append(v)
        assert len(seen) == 80

    def test_random_tree_shape(self):
        net = generate_network("random_tree", {"n": 50},
                               np.random.default_rng(2))
        assert net.edge_count == 49
        assert degrees(net).sum() == 98

    def test_ba_edge_count(self):
        net = generate_network("ba", {"n": 60, "attach": 5},
                               np.random.default_rng(3))
        # every node past the seed batch brings exactly 5 distinct links
        assert net.edge_count == (60 - 5) * 5
        assert degrees(net)[5:].min() >= 5

    def test_communities_density_split(self):
        params = dict(sizes=(50, 10, 10, 10, 10, 10), inter=0.3, intra=0.5,
                      swap=False)
        net = generate_network("communities", params,
                               np.random.default_rng(4))
        assert net.node_count == 100
        block = np.repeat(np.arange(6), [50, 10, 10, 10, 10, 10])
        within = cross = 0
        for u, v in zip(net.arc_src, net.arc_dst):
            if block[u] == block[v]:
                within += 1
            else:
                cross += 1
        pairs_within = sum(s * (s - 1) // 2 for s in (50, 10, 10, 10, 10, 10))
        pairs_cross = 100 * 99 // 2 - pairs_within
        assert within / pairs_within > cross / pairs_cross

    def test_communities_swap_inverts_densities(self):
        params = dict(sizes=(50, 10, 10, 10, 10, 10), inter=0.3, intra=0.5,
                      swap=True)
        net = generate_network("communities", params,
                               np.random.default_rng(4))
        block = np.repeat(np.arange(6), [50, 10, 10, 10, 10, 10])
        within = cross = 0
        for u, v in zip(net.arc_src, net.arc_dst):
            if block[u] == block[v]:
                within += 1
            else:
                cross += 1
        pairs_within = sum(s * (s - 1) // 2 for s in (50, 10, 10, 10, 10, 10))
        pairs_cross = 100 * 99 // 2 - pairs_within
        assert within / pairs_within < cross / pairs_cross

    def test_depth_tree_is_deep_hierarchy(self):
        net = generate_network("depth_tree", {"n": 50, "window": 5},
                               np.random.default_rng(5))
        assert net.directed and is_hierarchy(net)
        parent = {}
        for u, v in zip(net.arc_src, net.arc_dst):
            parent[int(v)] = int(u)
        depth = 0
        for v in range(50):
            d, u = 0, v
            while u in parent:
                u = parent[u]
                d += 1
            depth = max(depth, d)
        assert depth >= 50 // 5

    def test_org_chart_children_counts(self):
        net = generate_network("org_chart",
                               {"n": 40, "min_children": 2,
                                "max_children": 5},
                               np.random.default_rng(6))
        assert net.directed and is_hierarchy(net)
        out = np.zeros(40, dtype=int)
        for u in net.arc_src:
            out[u] += 1
        internal = out[out > 0]
        assert internal.max() <= 5
        # only the last parent filled may fall short of the minimum
        assert (internal < 2).sum() <= 1


class TestOpinions:
    def test_normal_moments_and_range(self):
        rng = np.random.default_rng(7)
        x = sample_opinions("normal", 200_000, rng)
        assert x.min() >= 0.0 and x.max() <= 1.0
        assert abs(x.mean() - 0.45) < 0.005
        assert abs(x.std() - 0.1) < 0.005

    def test_lognormal_moments_and_range(self):
        rng = np.random.default_rng(8)
        x = sample_opinions("lognormal", 200_000, rng)
        assert x.min() >= 0.0 and x.max() <= 1.0
        assert abs(x.mean() - 0.45) < 0.005
        assert abs(x.std() - 0.1) < 0.005

    def test_bimodal_mean_monte_carlo(self):
        rng = np.random.default_rng(9)
        x = sample_opinions("bimodal", 1_000_000, rng)
        assert set(np.unique(x)) == {0.35, 0.55}
        assert abs(x.mean() - 0.45) < 0.001

    def test_file_distribution(self, tmp_path):
        path = tmp_path / "ops.txt"
        path.write_text("0.2\n0.5\n0.8\n")
        x = sample_opinions("file", 3, np.random.default_rng(0),
                            opinion_file=str(path))
        np.testing.assert_allclose(x, [0.2, 0.5, 0.8])

    def test_file_length_mismatch(self, tmp_path):
        path = tmp_path / "ops.txt"
        path.write_text("0.2\n0.5\n")
        with pytest.raises(ValueError, match="expected 3"):
            sample_opinions("file", 3, np.random.default_rng(0),
                            opinion_file=str(path))


class TestGenerate:
    def test_alpha_is_half_everywhere(self):
        inst = generate(GeneratorSpec("star", seed=0,
                                      params={"n": 20}))
        assert np.all(inst.alpha == 0.5)
        assert inst.s.shape == (20,)

    def test_seed_determinism(self):
        for topology in ("gnp", "random_tree", "ba", "communities",
                         "depth_tree", "org_chart"):
            spec = GeneratorSpec(topology, dist="lognormal", seed=42)
            a = generate(spec)
            b = generate(spec)
            np.testing.assert_array_equal(a.network.arc_src,
                                          b.network.arc_src)
            np.testing.assert_array_equal(a.network.arc_dst,
                                          b.network.arc_dst)
            np.testing.assert_array_equal(a.s, b.s)

    def test_different_seeds_differ(self):
        a = generate(GeneratorSpec("gnp", seed=1))
        b = generate(GeneratorSpec("gnp", seed=2))
        assert not np.array_equal(a.s, b.s)


# sha256 prefix over seeds 0 and 1 of each default instance's arc_src,
# arc_dst, arc_w (little-endian int64 / float64), directed and s; every
# benchmark input and seeded acceptance instance depends on these streams
GOLDEN_DISTS = ("normal", "lognormal", "bimodal")
GOLDEN = {
    "grid": ("cc6fd58ea22d", "655c0a355371", "a6a2bfe94b01"),
    "star": ("e2d6ec51811b", "784ed58a5a55", "0d5098fedd89"),
    "gnp": ("562984d9b850", "2b2a92794ee7", "8d858baa1e20"),
    "random_tree": ("d8fe57cad4d8", "5ce759b174d2", "c09cded73ef4"),
    "ba": ("11d8b3023c27", "c6d7df90556e", "55b60864545e"),
    "communities": ("24f960798084", "a381a443d05f", "4a09f26f203d"),
    "depth_tree": ("e397b661e7af", "eb34d6e1bdcd", "3b74e6461904"),
    "org_chart": ("28027a9fd7f0", "8a77912ba3b1", "64eccb1999f0"),
}


def instance_digest(topology, dist, seeds=(0, 1)):
    h = hashlib.sha256()
    for seed in seeds:
        inst = generate(GeneratorSpec(topology, dist=dist, seed=seed))
        net = inst.network
        for arr, dtype in ((net.arc_src, "<i8"), (net.arc_dst, "<i8"),
                           (net.arc_w, "<f8"), (inst.s, "<f8")):
            h.update(np.ascontiguousarray(arr, dtype=dtype).tobytes())
        h.update(bytes([net.directed]))
    return h.hexdigest()[:12]


def test_golden_table_covers_every_topology():
    assert tuple(GOLDEN) == TOPOLOGIES


@pytest.mark.parametrize("topology", TOPOLOGIES)
@pytest.mark.parametrize("dist", GOLDEN_DISTS)
def test_generated_instances_match_golden(topology, dist):
    expected = GOLDEN[topology][GOLDEN_DISTS.index(dist)]
    assert instance_digest(topology, dist) == expected
