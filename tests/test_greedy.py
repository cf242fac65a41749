import numpy as np
import pytest

import medianflip.greedy as greedy
from medianflip import Instance, SolverError, build_network, simulate
from medianflip.bench import method_runner
from medianflip.equilibrium import equilibrium
from medianflip.generators import GeneratorSpec, generate, generate_network
from medianflip.greedy import (
    baseline_select,
    betweenness,
    jaccard,
    lazy_greedy,
    min_budget_to_flip,
    round_to_stooges,
    score_total,
)
from medianflip.stats import median

from helpers import (
    betweenness_by_path_enumeration,
    exhaustive_greedy_oracle,
    random_connected_instance,
)


def single_node(s=0.8, alpha=0.5):
    return Instance(build_network(1, []), [alpha], [s])


def fig1_component():
    """Seven persuadable zero-opinion nodes all listening to one
    stubborn-friendly node just below the threshold."""
    edges = [(u, 7, 1.0) for u in range(7)]
    net = build_network(8, edges, directed=True)
    alpha = np.array([0.5] * 7 + [0.0])
    s = np.array([0.0] * 7 + [0.49])
    return Instance(net, alpha, s)


def test_score_total_branches():
    assert score_total(np.array([0.6, 0.5])) == 20000.0
    assert score_total(np.array([0.4])) == pytest.approx(500.0)
    assert score_total(np.array([0.4999999])) == 5000.0  # capped near the threshold


def test_greedy_zero_budget():
    rng = np.random.default_rng(51)
    inst = random_connected_instance(rng, 6)
    res = lazy_greedy(inst, k=0)
    assert res.stooges == {}
    assert np.array_equal(res.alpha_final, inst.alpha)


def test_greedy_rejects_bad_arguments():
    inst = single_node()
    with pytest.raises(ValueError):
        lazy_greedy(inst, k=2)
    with pytest.raises(ValueError):
        lazy_greedy(inst, k=1, phi=1.5)
    with pytest.raises(ValueError):
        lazy_greedy(inst, k=-1)


def test_baseline_select_rejects_bad_arguments():
    inst = single_node()
    for kind in ("random", "degree", "centrality"):
        for k in (-1, 2):
            with pytest.raises(ValueError, match="outside"):
                baseline_select(inst, k, kind, seed=0)
    # kinds are the method names; the old alias is gone
    with pytest.raises(ValueError, match="unknown baseline kind"):
        baseline_select(inst, 1, "max_degree")


def test_min_budget_rejects_ill_posed_searches():
    inst = single_node(s=0.6, alpha=0.5)

    def runner(instance, k):
        raise AssertionError("the search must not run")

    for max_budget in (-1, float("inf"), float("nan"), True):
        for continuous in (False, True):
            with pytest.raises(ValueError, match="max_budget"):
                min_budget_to_flip(inst, runner, max_budget=max_budget,
                                   continuous=continuous)
    # a discrete scan's cap is a stooge count
    with pytest.raises(ValueError, match="whole for a discrete scan"):
        min_budget_to_flip(inst, runner, max_budget=2.5)
    for resolution in (0.0, -0.5, float("nan"), True):
        with pytest.raises(ValueError, match="resolution"):
            min_budget_to_flip(inst, runner, continuous=True,
                               resolution=resolution)
    # a discrete scan has no resolution
    assert min_budget_to_flip(inst, lambda instance, k: lazy_greedy(
        instance, k), resolution=0.0) == 1


def test_lazy_zero_phi_matches_exhaustive_oracle():
    rng = np.random.default_rng(52)
    for _ in range(5):
        n = int(rng.integers(4, 10))
        inst = random_connected_instance(rng, n, alpha_range=(0.5, 0.5))
        k = min(3, n)
        res = lazy_greedy(inst, k=k, phi=0.0, theta=0.9)
        oracle = exhaustive_greedy_oracle(inst, k, theta=0.9)
        assert list(res.stooges.items()) == oracle


def test_lazy_phi_packs_fewer_or_equal_evaluations():
    rng = np.random.default_rng(53)
    inst = random_connected_instance(rng, 10, alpha_range=(0.5, 0.5))
    eager = lazy_greedy(inst, k=4, phi=0.0, theta=0.95)
    lazy = lazy_greedy(inst, k=4, phi=0.8, theta=0.95)
    for le, ee in zip(lazy.evals_per_iter, eager.evals_per_iter):
        assert le <= ee
    assert eager.evals_per_iter[0] == 2 * 10  # sentinel forces a full first scan


def test_lazy_greedy_commits_without_solving_again(monkeypatch):
    # one solve for the base and one per evaluated candidate: a commit
    # takes the winner's opinions as its evaluation solved them
    rng = np.random.default_rng(56)
    inst = random_connected_instance(rng, 10, alpha_range=(0.5, 0.5))
    real = greedy.equilibrium
    calls = []
    monkeypatch.setattr(greedy, "equilibrium",
                        lambda *a, **kw: calls.append(1) or real(*a, **kw))
    for phi in (0.0, 0.8):
        del calls[:]
        res = lazy_greedy(inst, k=4, phi=phi, theta=0.95)
        assert len(res.stooges) == 4
        assert len(calls) == 1 + sum(res.evals_per_iter)
        fresh = real(inst, alpha=res.alpha_final).x_star
        assert res.final_median == median(fresh)


def test_greedy_median_never_decreases():
    rng = np.random.default_rng(54)
    inst = random_connected_instance(rng, 9, alpha_range=(0.5, 0.5))
    base = median(equilibrium(inst).x_star)
    res = lazy_greedy(inst, k=4, theta=0.99)
    assert res.final_median >= base - 1e-12


def test_greedy_stops_at_threshold():
    rng = np.random.default_rng(55)
    inst = random_connected_instance(rng, 9, alpha_range=(0.5, 0.5))
    inst = inst.with_s(rng.uniform(0.55, 0.9, 9))  # already above 0.5
    res = lazy_greedy(inst, k=5, theta=0.5)
    assert res.stooges == {}
    assert res.flipped


def test_greedy_stalls_on_fig1_component():
    inst = fig1_component()
    res = lazy_greedy(inst, k=8, theta=0.5)
    assert not res.flipped
    assert res.final_median < 0.5


def test_greedy_reports_why_it_stopped():
    rng = np.random.default_rng(55)
    inst = random_connected_instance(rng, 9, alpha_range=(0.5, 0.5))
    flipped = inst.with_s(rng.uniform(0.55, 0.9, 9))
    assert lazy_greedy(flipped, k=5, theta=0.5).stop == "threshold"
    assert lazy_greedy(fig1_component(), k=8, theta=0.5).stop == "stalled"
    grid = generate(GeneratorSpec("grid", dist="normal", seed=1,
                                  params={"rows": 6, "cols": 6}))
    short = lazy_greedy(grid, k=3, theta=0.5)
    assert short.stop == "k" and len(short.stooges) == 3
    assert not short.flipped
    full = lazy_greedy(grid, k=grid.node_count, theta=0.5)
    assert full.stop == "threshold" and full.flipped
    # greedy reads k only to stop: the short run is the full run's prefix
    assert list(short.stooges.items()) == list(full.stooges.items())[:3]


def test_score_total_pivots_at_theta():
    x = np.array([0.6, 0.55, 0.5])
    assert score_total(x, theta=0.55) == pytest.approx(20000.0 + 50.0 / 0.05)
    assert score_total(x, theta=0.5) == score_total(x) == 30000.0


def test_greedy_score_climbs_toward_the_runners_theta():
    # 6x6 grid of seed 1 at theta 0.55: a score pivoted at 0.5 rewards
    # nodes that clear 0.5 but not theta, and greedy on it never flips
    inst = generate(GeneratorSpec("grid", dist="normal", seed=1,
                                  params={"rows": 6, "cols": 6}))
    n = inst.node_count
    at_half = lazy_greedy(inst, n, gain=score_total, theta=0.55)
    assert not at_half.flipped
    runner = method_runner("greedy-score", theta=0.55)
    assert min_budget_to_flip(inst, runner, theta=0.55) == 33
    assert runner(inst, 33).flipped and runner(inst, 33).stop == "threshold"


def test_betweenness_path_and_star():
    path = build_network(3, [(0, 1, 1.0), (1, 2, 1.0)])
    bc = betweenness(path)
    assert bc[0] == 0 and bc[2] == 0
    assert bc[1] == pytest.approx(1.0)
    star = build_network(5, [(0, v, 1.0) for v in range(1, 5)])
    bs = betweenness(star)
    assert np.argmax(bs) == 0
    assert np.all(bs[1:] == 0)


def test_betweenness_matches_path_enumeration():
    rng = np.random.default_rng(56)
    for directed in (False, True):
        for _ in range(5):
            n = int(rng.integers(3, 8))
            inst = random_connected_instance(rng, n, extra_edge_prob=0.3,
                                             directed=directed)
            ours = betweenness(inst.network)
            oracle = betweenness_by_path_enumeration(inst.network)
            assert np.allclose(ours, oracle, atol=1e-9)


def networkx_betweenness(nx, network):
    graph = nx.DiGraph() if network.directed else nx.Graph()
    graph.add_nodes_from(range(network.node_count))
    graph.add_edges_from((int(u), int(v)) for u, v in
                         zip(network.arc_src, network.arc_dst) if u != v)
    bc = nx.betweenness_centrality(graph, normalized=False)
    return np.array([bc[u] for u in range(network.node_count)])


def test_betweenness_matches_networkx():
    nx = pytest.importorskip("networkx")
    rng = np.random.default_rng(59)
    # a directed graph with cycles: a ring plus random chords both ways
    ring = [(u, (u + 1) % 40, 1.0) for u in range(40)]
    chords = {(int(u), int(v)) for u, v in rng.integers(0, 40, (80, 2))
              if u != v and (v - u) % 40 != 1}
    directed = build_network(40, ring + [(u, v, 1.0) for u, v in chords],
                             directed=True)
    for net in (generate_network("grid", {"rows": 6, "cols": 6}, rng),
                generate_network("ba", {"n": 60, "attach": 3}, rng),
                directed):
        assert np.allclose(betweenness(net), networkx_betweenness(nx, net),
                           rtol=1e-12, atol=1e-9)


def relabelled_grid(seed, draw):
    """6x6 grid of generator seed `draw`, its node ids permuted by a
    generator seeded with (seed, draw)."""
    inst = generate(GeneratorSpec("grid", dist="normal", seed=draw,
                                  params={"rows": 6, "cols": 6}))
    net = inst.network
    perm = np.random.default_rng([seed, draw]).permutation(36)
    edges = [(int(perm[u]), int(perm[v]), float(w))
             for u, v, w in zip(net.arc_src, net.arc_dst, net.arc_w) if u < v]
    alpha, s = np.empty(36), np.empty(36)
    alpha[perm], s[perm] = inst.alpha, inst.s
    return Instance(build_network(36, edges), alpha, s)


def count_brandes_passes(monkeypatch):
    """Networks of every Brandes pass from here on, in call order."""
    brandes = greedy._brandes
    passes = []

    def counted(network):
        passes.append(network)
        return brandes(network)

    monkeypatch.setattr(greedy, "_brandes", counted)
    return passes


def centrality_scan(instance):
    """Flip budget of the centrality baseline and its selection at each k."""
    runner = method_runner("centrality")
    selections = []

    def recording(inst, k):
        result = runner(inst, k)
        selections.append(list(result.stooges.items()))
        return result

    return min_budget_to_flip(instance, recording), selections


def test_centrality_flip_search_runs_brandes_once(monkeypatch):
    inst = relabelled_grid(7, 1)
    passes = count_brandes_passes(monkeypatch)
    found, selections = centrality_scan(inst)
    assert len(passes) == 1
    assert found is not None and found > 1
    assert len(selections) == found
    # the same scan with every ranking from a fresh, uncached pass
    monkeypatch.setattr(greedy, "betweenness", greedy._brandes)
    assert centrality_scan(inst) == (found, selections)
    assert len(passes) == 1 + found


def test_betweenness_cache_cannot_be_corrupted(monkeypatch):
    path = build_network(5, [(u, u + 1, 1.0) for u in range(4)])
    inst = Instance(path, np.full(5, 0.5), np.full(5, 0.3))
    passes = count_brandes_passes(monkeypatch)
    bc = betweenness(path)
    expected = bc.copy()
    bc[:] = 0.0
    bc[4] = 100.0
    assert np.array_equal(betweenness(path), expected)
    res = baseline_select(inst, k=1, kind="centrality")
    assert list(res.stooges) == [2]
    assert len(passes) == 1


def test_with_alpha_copies_share_one_brandes_pass(monkeypatch):
    inst = relabelled_grid(7, 2)
    passes = count_brandes_passes(monkeypatch)
    a = baseline_select(inst.with_alpha(np.full(36, 0.3)), 4, "centrality")
    b = baseline_select(inst.with_alpha(np.full(36, 0.7)), 4, "centrality")
    assert list(a.stooges) == list(b.stooges)
    assert len(passes) == 1


def test_baseline_select_random_covers_all_at_full_budget():
    rng = np.random.default_rng(57)
    inst = random_connected_instance(rng, 6, alpha_range=(0.5, 0.5))
    res = baseline_select(inst, k=6, kind="random", seed=0)
    assert set(res.stooges) == set(range(6))
    for u, r in res.stooges.items():
        assert r == (1.0 if inst.s[u] > 0.5 else 0.0)


def test_baseline_select_degree_picks_star_center():
    star = build_network(5, [(0, v, 1.0) for v in range(1, 5)])
    inst = Instance(star, np.full(5, 0.5), np.array([0.9, 0.1, 0.1, 0.1, 0.1]))
    res = baseline_select(inst, k=1, kind="degree")
    assert list(res.stooges) == [0]
    assert res.alpha_final[0] == 1.0  # s_0 > theta


def test_baseline_select_centrality_picks_path_middle():
    path = build_network(5, [(u, u + 1, 1.0) for u in range(4)])
    inst = Instance(path, np.full(5, 0.5), np.full(5, 0.3))
    res = baseline_select(inst, k=1, kind="centrality")
    assert list(res.stooges) == [2]


def test_baseline_seed_only_matters_for_random():
    rng = np.random.default_rng(58)
    inst = random_connected_instance(rng, 8, alpha_range=(0.5, 0.5))
    a = baseline_select(inst, 3, "degree", seed=1)
    b = baseline_select(inst, 3, "degree", seed=2)
    assert list(a.stooges) == list(b.stooges)
    r1 = baseline_select(inst, 3, "random", seed=1)
    r2 = baseline_select(inst, 3, "random", seed=1)
    assert list(r1.stooges) == list(r2.stooges)


def test_round_to_stooges():
    a0 = np.full(4, 0.5)
    assert round_to_stooges(a0, a0, 2) == {0, 1}
    bumped = a0.copy()
    bumped[3] = 0.9
    assert round_to_stooges(bumped, a0, 1) == {3}
    assert round_to_stooges(bumped, a0, 4) == {0, 1, 2, 3}


def test_jaccard_values():
    assert jaccard({1, 2}, {1, 2}) == 1.0
    assert jaccard({1}, {2}) == 0.0
    assert jaccard({1, 2}, {2, 3}) == pytest.approx(1 / 3)
    assert jaccard(set(), set()) == 1.0
    assert jaccard({1, 2}, {2, 3}) == jaccard({2, 3}, {1, 2})


def test_min_budget_zero_when_already_flipped():
    inst = single_node(s=0.8, alpha=1.0)

    def runner(instance, k):
        return lazy_greedy(instance, k)

    assert min_budget_to_flip(inst, runner) == 0


def test_min_budget_single_node_greedy():
    inst = single_node(s=0.6, alpha=0.5)

    def runner(instance, k):
        return lazy_greedy(instance, k)

    assert min_budget_to_flip(inst, runner) == 1


def test_min_budget_unflippable_component():
    inst = fig1_component()

    def runner(instance, k):
        return lazy_greedy(instance, k)

    assert min_budget_to_flip(inst, runner, max_budget=8) is None


def test_greedy_skips_candidates_that_make_the_system_singular():
    # {0, 1} is a closed class in which only node 1 resists, so pinning
    # node 1 to 0 leaves no equilibrium; nodes 2-4 listen to the class
    edges = [(0, 1, 1.0), (1, 0, 1.0), (2, 0, 1.0), (3, 1, 1.0), (4, 0, 1.0),
             (4, 3, 1.0)]
    net = build_network(5, edges, directed=True)
    inst = Instance(net, [0.0, 0.5, 0.5, 0.5, 0.5],
                    [0.9, 0.3, 0.2, 0.4, 0.1])
    with pytest.raises(SolverError):
        equilibrium(inst, alpha=np.array([0.0, 0.0, 0.5, 0.5, 0.5]))
    for phi in (0.0, 0.8):
        res = lazy_greedy(inst, k=5, phi=phi, theta=0.95)
        assert res.evals_per_iter[0] == 2 * 5 - 1  # (1, 0) skipped
        assert list(res.stooges.items())[0] != (1, 0.0)
        # every committed prefix has an equilibrium: once node 0 is
        # pinned to 1, pinning node 1 to 0 is allowed
        alpha = inst.alpha.copy()
        for u, r in res.stooges.items():
            alpha[u] = r
            equilibrium(inst, alpha=alpha)
        sim = simulate(inst, alpha=res.alpha_final, tol=1e-13)
        assert res.final_median == pytest.approx(median(sim.x_star),
                                                 abs=1e-9)
