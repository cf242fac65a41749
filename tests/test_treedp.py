import numpy as np
import pytest

from medianflip import Instance, build_network, equilibrium
from medianflip.greedy import lazy_greedy
from medianflip.network import NetworkError
from medianflip.stats import median
from medianflip.treedp import (
    TreeInstance,
    apply_assignment,
    brute_force_min_stooges,
    is_hierarchy,
    tree_dp_min_stooges,
    tree_equilibrium,
)


def tree_instance(edges, alpha, s, n=None, **kw):
    if n is None:
        n = max(max(e[0], e[1]) for e in edges) + 1 if edges else len(alpha)
    triples = [e if len(e) == 3 else (e[0], e[1], 1.0) for e in edges]
    loops = any(u == v for u, v, _ in triples)
    net = build_network(n, triples, directed=True, allow_self_loops=loops)
    inst = Instance(net, np.asarray(alpha, float), np.asarray(s, float))
    return TreeInstance(inst, **kw)


def random_tree_edges(rng, n):
    """Uniform random parent assignment under a fixed root 0."""
    return [(int(rng.integers(0, v)), v) for v in range(1, n)]


def weigh_with_loops(rng, edges):
    """Non-unit weights on every arc, plus a self-loop on about half of
    the internal nodes."""
    weighted = [(u, v, float(rng.uniform(0.25, 4.0))) for u, v in edges]
    loops = [(u, u, float(rng.uniform(0.25, 4.0)))
             for u in sorted({u for u, _ in edges}) if rng.random() < 0.5]
    return weighted + loops


class TestIsHierarchy:
    def test_single_node(self):
        net = build_network(1, [], directed=True)
        assert is_hierarchy(net)

    def test_path_is_hierarchy(self):
        net = build_network(3, [(0, 1, 1.0), (1, 2, 1.0)], directed=True)
        assert is_hierarchy(net)

    def test_undirected_rejected(self):
        net = build_network(2, [(0, 1, 1.0)], directed=False)
        assert not is_hierarchy(net)

    def test_two_roots_rejected(self):
        net = build_network(4, [(0, 2, 1.0), (1, 2, 1.0), (2, 3, 1.0)],
                            directed=True)
        assert not is_hierarchy(net)

    def test_cycle_rejected(self):
        net = build_network(3, [(0, 1, 1.0), (1, 2, 1.0), (2, 0, 1.0)],
                            directed=True)
        assert not is_hierarchy(net)

    def test_path_plus_disjoint_two_cycle_rejected(self):
        # n - 1 arcs, one root, in-degree <= 1: only reachability fails
        net = build_network(4, [(0, 1, 1.0), (2, 3, 1.0), (3, 2, 1.0)],
                            directed=True)
        assert not is_hierarchy(net)

    def test_self_loop_ignored(self):
        net = build_network(2, [(0, 1, 1.0), (0, 0, 0.5)], directed=True,
                            allow_self_loops=True)
        assert is_hierarchy(net)

    def test_non_tree_instance_raises(self):
        net = build_network(3, [(0, 1, 1.0), (1, 2, 1.0), (0, 2, 1.0)],
                            directed=True)
        inst = Instance(net, np.full(3, 0.5), np.full(3, 0.5))
        with pytest.raises(NetworkError):
            TreeInstance(inst)


class TestTreeEquilibrium:
    def test_leaf_keeps_innate_opinion(self):
        tree = tree_instance([(0, 1)], [0.5, 0.2], [0.3, 0.8])
        x = tree_equilibrium(tree)
        assert x[1] == pytest.approx(0.8)
        assert x[0] == pytest.approx(0.5 * 0.3 + 0.5 * 0.8)

    def test_three_level_chain_by_hand(self):
        # x2 = 0.9, x1 = 0.4*0.2 + 0.6*0.9 = 0.62,
        # x0 = 0.5*0.1 + 0.5*0.62 = 0.36
        tree = tree_instance([(0, 1), (1, 2)], [0.5, 0.4, 0.7],
                             [0.1, 0.2, 0.9])
        x = tree_equilibrium(tree)
        assert x[2] == pytest.approx(0.9)
        assert x[1] == pytest.approx(0.62)
        assert x[0] == pytest.approx(0.36)

    def test_self_loop_formula(self):
        # deg = 1 + 0.5; x1 = 0.7
        # x0 = (0.5*0.2 + 0.5*(0.7 + 0.5*x0)/1.5) solved in closed form
        tree = tree_instance([(0, 1, 1.0), (0, 0, 0.5)], [0.5, 0.5],
                             [0.2, 0.7])
        x = tree_equilibrium(tree)
        expected = (0.5 * 0.2 + 0.5 * 0.7 / 1.5) / (1.0 - 0.5 * 0.5 / 1.5)
        assert x[0] == pytest.approx(expected, abs=1e-12)

    def test_matches_graph_solver_when_leaves_anchored(self):
        # With alpha = 1 on leaves both conventions coincide, so the
        # bottom-up pass must agree with the sparse linear solver.
        # The last ten trees carry non-unit weights and self-loops.
        rng = np.random.default_rng(7)
        for trial in range(30):
            n = int(rng.integers(3, 12))
            edges = random_tree_edges(rng, n)
            alpha = rng.uniform(0.1, 0.9, n)
            kids = {u for u, _ in edges}
            for v in range(n):
                if v not in kids:
                    alpha[v] = 1.0
            if trial >= 20:
                edges = weigh_with_loops(rng, edges)
            s = rng.uniform(0, 1, n)
            tree = tree_instance(edges, alpha, s)
            x_tree = tree_equilibrium(tree)
            x_solver = equilibrium(tree.instance).x_star
            np.testing.assert_allclose(x_tree, x_solver, atol=1e-8)

    def test_batched_matches_loop(self):
        rng = np.random.default_rng(3)
        n = 8
        edges = random_tree_edges(rng, n)
        tree = tree_instance(edges, rng.uniform(0, 1, n), rng.uniform(0, 1, n))
        alphas = rng.uniform(0, 1, (n, 5))
        ss = rng.uniform(0, 1, (n, 5))
        batched = tree_equilibrium(tree, alpha=alphas, s=ss)
        for b in range(5):
            single = tree_equilibrium(tree, alpha=alphas[:, b], s=ss[:, b])
            np.testing.assert_allclose(batched[:, b], single, atol=1e-12)


class TestTreeDP:
    def test_single_node_already_majority(self):
        tree = tree_instance([], [0.5], [0.6], n=1)
        res = tree_dp_min_stooges(tree)
        assert res.feasible and res.cost == 0 and res.assignment == {}

    def test_single_node_resistance_infeasible(self):
        tree = tree_instance([], [0.5], [0.4], n=1)
        res = tree_dp_min_stooges(tree)
        assert not res.feasible

    def test_single_node_opinion_mode(self):
        tree = tree_instance([], [0.5], [0.4], n=1, mode="opinion")
        res = tree_dp_min_stooges(tree)
        assert res.feasible and res.cost == 1
        assert res.assignment == {0: "s1"}

    def test_two_node_chain_root_opens_to_leaf(self):
        # Majority needs 2 of 2 votes; leaf already at 0.6, root must
        # drop its resistance to adopt the leaf's opinion.
        tree = tree_instance([(0, 1)], [0.5, 0.5], [0.4, 0.6])
        res = tree_dp_min_stooges(tree)
        assert res.feasible and res.cost == 1
        assert res.assignment == {0: "alpha0"}
        alpha, s = apply_assignment(tree, res.assignment)
        x = tree_equilibrium(tree, alpha=alpha, s=s)
        assert (x > 0.5).sum() == 2

    def test_voting_mask_restricts_majority(self):
        # Only the two leaves vote; one is above theta already, so the
        # other must be the second vote, which resistance cannot give.
        tree = tree_instance([(0, 1), (0, 2)], [0.5] * 3, [0.1, 0.7, 0.3],
                             voting=[False, True, True])
        res = tree_dp_min_stooges(tree)
        assert not res.feasible

    def test_integer_costs_prefer_cheap_node(self):
        # Both subtree roots could supply the missing vote; the cheaper
        # one must be chosen.
        tree = tree_instance(
            [(0, 1), (0, 2), (1, 3), (2, 4)],
            [0.5] * 5, [0.1, 0.05, 0.05, 0.9, 0.9],
            costs=np.array([5, 4, 2, 1, 1]),
        )
        res = tree_dp_min_stooges(tree)
        assert res.feasible
        bf_cost, _ = brute_force_min_stooges(tree)
        assert res.cost == bf_cost == 2
        assert res.assignment == {2: "alpha0"}

    def test_assignment_realizes_reported_majority(self):
        rng = np.random.default_rng(11)
        for _ in range(25):
            n = int(rng.integers(2, 9))
            edges = random_tree_edges(rng, n)
            mode = ("resistance", "opinion", "both")[int(rng.integers(3))]
            tree = tree_instance(edges, rng.uniform(0, 1, n),
                                 rng.uniform(0, 1, n), mode=mode)
            res = tree_dp_min_stooges(tree)
            if not res.feasible:
                continue
            alpha, s = apply_assignment(tree, res.assignment)
            x = tree_equilibrium(tree, alpha=alpha, s=s)
            votes = int((x > 0.5).sum())
            assert votes >= n // 2 + 1
            paid = sum(int(tree.costs[u]) for u in res.assignment)
            assert paid == res.cost

    def test_matches_brute_force_all_modes(self):
        # The last thirty trees carry non-unit weights and self-loops.
        rng = np.random.default_rng(2024)
        checked = 0
        for trial in range(90):
            n = int(rng.integers(2, 9))
            edges = random_tree_edges(rng, n)
            if trial >= 60:
                edges = weigh_with_loops(rng, edges)
            alpha = rng.uniform(0, 1, n)
            s = rng.uniform(0, 1, n)
            mode = ("resistance", "opinion", "both")[trial % 3]
            voting = None
            if trial % 4 == 0 and n >= 3:
                voting = rng.uniform(size=n) < 0.7
                if not voting.any():
                    voting[0] = True
            tree = tree_instance(edges, alpha, s, mode=mode, voting=voting)
            res = tree_dp_min_stooges(tree)
            bf_cost, _ = brute_force_min_stooges(tree)
            if bf_cost is None:
                assert not res.feasible
            else:
                assert res.feasible and res.cost == bf_cost
                checked += 1
        assert checked >= 20

    def test_theta_parameter_respected(self):
        tree = tree_instance([(0, 1)], [0.5, 0.5], [0.1, 0.35])
        assert not tree_dp_min_stooges(tree, theta=0.5).feasible
        res = tree_dp_min_stooges(tree, theta=0.3)
        assert res.feasible and res.cost == 1


class TestHardInstance:
    """A hierarchy where myopic median gains dead-end: greedy commits a
    single node and stops, while the exact DP flips the majority with a
    coordinated three-stooge solution.

    Leaves carry alpha = 1 so the bottom-up pass and the sparse linear
    solver agree on every opinion, making the comparison exact.
    """

    def build(self):
        edges = [(0, 1), (1, 2), (1, 3), (2, 4), (1, 5), (5, 6)]
        alpha = [0.5, 0.5, 0.5, 1.0, 1.0, 0.5, 1.0]
        s = [0.95, 0.2, 0.45, 0.2, 0.1, 0.1, 0.95]
        return tree_instance(edges, alpha, s)

    def test_dp_finds_three_stooge_solution(self):
        tree = self.build()
        res = tree_dp_min_stooges(tree)
        assert res.feasible and res.cost == 3
        # Node 2 serves as a supporting stooge: its own opinion stays
        # below theta but it lifts its parent across.
        assert res.assignment[2] == "alpha1"
        realized = tree_equilibrium(tree, *apply_assignment(tree, res.assignment))
        assert (realized > 0.5).sum() >= 4
        assert median(realized) > 0.5

    def test_conventions_agree_after_intervention(self):
        tree = self.build()
        res = tree_dp_min_stooges(tree)
        alpha, s = apply_assignment(tree, res.assignment)
        x_tree = tree_equilibrium(tree, alpha=alpha, s=s)
        inst = tree.instance.with_alpha(alpha).with_s(s)
        np.testing.assert_allclose(x_tree, equilibrium(inst).x_star, atol=1e-8)

    def test_greedy_commits_one_node_then_stalls(self):
        tree = self.build()
        result = lazy_greedy(tree.instance, k=5, phi=0.0)
        assert not result.flipped
        assert result.l0_budget_used == 1
        assert result.final_median < 0.5
