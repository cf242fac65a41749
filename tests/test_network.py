import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from medianflip import Instance, NetworkError, build_network

from helpers import dict_loop_build_network, lexsort_build_network


def test_single_undirected_edge_degrees():
    net = build_network(2, [(0, 1, 1.0)], directed=False)
    assert np.allclose(net.deg, [1.0, 1.0])
    assert net.edge_count == 1


def test_empty_graph_has_zero_rows():
    net = build_network(3, [], directed=False)
    W = net.influence_matrix.toarray()
    assert W.shape == (3, 3)
    assert np.all(W == 0)


def test_directed_row_normalization():
    net = build_network(3, [(0, 1, 1.0), (0, 2, 1.0)], directed=True)
    W = net.influence_matrix.toarray()
    assert np.allclose(W[0], [0.0, 0.5, 0.5])
    assert np.all(W[1] == 0) and np.all(W[2] == 0)


def test_weighted_normalization():
    net = build_network(3, [(0, 1, 3.0), (0, 2, 1.0)], directed=True)
    W = net.influence_matrix.toarray()
    assert np.allclose(W[0], [0.0, 0.75, 0.25])


def test_undirected_stored_as_two_arcs():
    net = build_network(2, [(0, 1, 2.0)], directed=False)
    assert len(net.arc_src) == 2
    assert net.deg[0] == 2.0 and net.deg[1] == 2.0


def test_mirrored_undirected_listing_collapses():
    net = build_network(2, [(0, 1, 1.0), (1, 0, 1.0)], directed=False)
    assert net.edge_count == 1
    assert np.allclose(net.deg, [1.0, 1.0])


def test_out_of_range_id_rejected():
    with pytest.raises(NetworkError):
        build_network(2, [(0, 2, 1.0)])


def test_nonpositive_weight_rejected():
    with pytest.raises(NetworkError):
        build_network(2, [(0, 1, 0.0)])
    with pytest.raises(NetworkError):
        build_network(2, [(0, 1, -1.0)])


def test_non_finite_weight_rejected():
    for w in (np.nan, np.inf, -np.inf):
        with pytest.raises(NetworkError, match="weight"):
            build_network(3, [(0, 1, 1.0), (1, 2, w)])


def test_non_integral_node_id_rejected():
    with pytest.raises(NetworkError, match=r"\[0\.0, 1\.5, 1\.0\]"):
        build_network(3, [(0, 1.5, 1.0)])
    with pytest.raises(NetworkError):
        build_network(3, [(np.nan, 1, 1.0)])


def test_rows_that_are_not_triples_rejected():
    # three 2-field rows hold six numbers, but must not be read as two
    # (u, v, w) rows
    with pytest.raises(NetworkError, match="shape"):
        build_network(3, [(0, 1), (1, 2), (2, 0)])
    with pytest.raises(NetworkError):
        build_network(3, [(0, 1, 1.0), (1, 2)])
    with pytest.raises(NetworkError):
        build_network(3, [(0, 1, 1.0, 2.0)])
    with pytest.raises(NetworkError):
        build_network(3, [("a", 1, 1.0)])


def test_duplicate_arc_rejected():
    with pytest.raises(NetworkError):
        build_network(3, [(0, 1, 1.0), (0, 1, 1.0)], directed=True)
    with pytest.raises(NetworkError):
        build_network(3, [(0, 1, 1.0), (0, 1, 1.0)], directed=False)


def test_conflicting_mirror_weights_rejected():
    with pytest.raises(NetworkError):
        build_network(2, [(0, 1, 1.0), (1, 0, 2.0)], directed=False)


def test_self_loop_requires_flag():
    with pytest.raises(NetworkError):
        build_network(2, [(0, 0, 1.0)], directed=True)
    net = build_network(2, [(0, 0, 1.0)], directed=True, allow_self_loops=True)
    assert net.deg[0] == 1.0


def test_adjacency_sorted_by_target():
    net = build_network(4, [(0, 3, 1.0), (0, 1, 1.0), (0, 2, 1.0)], directed=True)
    targets, weights = net.out_neighbors(0)
    assert list(targets) == [1, 2, 3]
    assert np.allclose(weights, 1.0)


def test_walk_visits_each_reachable_node_once():
    # node 1 has no out-arcs, 2 -> 0 closes a cycle, 3 is unreachable
    net = build_network(5, [(0, 2, 1.0), (0, 1, 1.0), (2, 0, 1.0),
                            (2, 4, 1.0), (3, 0, 1.0)], directed=True)
    assert net.out_neighbors(1)[0].size == 0
    assert list(net.out_neighbors(2)[0]) == [0, 4]
    assert net.walk(0) == [0, 2, 4, 1]


def test_instance_validates_shapes_and_range():
    net = build_network(2, [(0, 1, 1.0)])
    with pytest.raises(NetworkError):
        Instance(net, [0.5], [0.5, 0.5])
    with pytest.raises(NetworkError):
        Instance(net, [0.5, 1.5], [0.5, 0.5])
    with pytest.raises(NetworkError):
        Instance(net, [0.5, 0.5], [-0.1, 0.5])


@pytest.mark.parametrize("bad,shown", [(float("nan"), "nan"),
                                       (float("inf"), "inf")])
def test_instance_rejects_non_finite_entries(bad, shown):
    net = build_network(2, [(0, 1, 1.0)])
    with pytest.raises(NetworkError, match=rf"alpha\[1\] = {shown} outside"):
        Instance(net, [0.5, bad], [0.5, 0.5])
    with pytest.raises(NetworkError, match=rf"s\[0\] = {shown} outside"):
        Instance(net, [0.5, 0.5], [bad, 0.5])


def test_with_alpha_leaves_original_untouched():
    net = build_network(2, [(0, 1, 1.0)])
    inst = Instance(net, [0.5, 0.5], [0.0, 1.0])
    other = inst.with_alpha([1.0, 1.0])
    assert np.allclose(inst.alpha, 0.5)
    assert np.allclose(other.alpha, 1.0)
    assert other.network is inst.network


@st.composite
def edge_lists(draw):
    """Small edge lists with mirrored, repeated, conflicting and
    self-loop edges, and now and then an out-of-range id or a
    nonpositive weight."""
    n = draw(st.integers(2, 8))
    node = st.integers(0, n - 1)
    edges = draw(st.lists(
        st.tuples(node, node, st.sampled_from([0.25, 1.0, 2.0])).filter(
            lambda e: e[0] != e[1]),
        max_size=10, unique_by=lambda e: (min(e[:2]), max(e[:2]))))
    edges += draw(st.lists(st.sampled_from(
        [(1, 1, 0.5), (0, n, 1.0), (-1, 0, 1.0), (0, 1, 0.0), (1, 0, -1.0)]),
        max_size=1))
    copies = draw(st.lists(st.tuples(
        st.integers(0, max(len(edges) - 1, 0)),
        st.sampled_from(["mirror", "repeat", "conflict"])), max_size=3))
    for i, how in copies if edges else ():
        u, v, w = edges[i]
        edges.append({"mirror": (v, u, w), "repeat": (u, v, w),
                      "conflict": (v, u, w + 1.0)}[how])
    return n, draw(st.permutations(edges))


@settings(max_examples=300, deadline=None)
@given(edge_lists(), st.booleans(), st.booleans())
def test_build_matches_dict_loop_reference(case, directed, loops):
    n, edges = case

    def outcome(make):
        try:
            return make(n, edges, directed=directed, allow_self_loops=loops)
        except NetworkError:
            return None

    ours, reference = (outcome(build_network),
                       outcome(dict_loop_build_network))
    assert (ours is None) == (reference is None)
    if ours is not None:
        assert ours.edge_count == reference.edge_count
        for name in ("arc_src", "arc_dst", "arc_w"):
            a, b = getattr(ours, name), getattr(reference, name)
            assert a.dtype == b.dtype
            np.testing.assert_array_equal(a, b)


def _outcome(make, n, edges, directed, loops):
    """The network's arcs and edge count, or the NetworkError message."""
    try:
        net = make(n, edges, directed=directed, allow_self_loops=loops)
    except NetworkError as exc:
        return str(exc)
    return (net.arc_src.tolist(), net.arc_dst.tolist(), net.arc_w.tolist(),
            [a.dtype for a in (net.arc_src, net.arc_dst, net.arc_w)],
            net.edge_count)


@settings(max_examples=300, deadline=None)
@given(edge_lists(), st.booleans(), st.booleans())
def test_build_matches_lexsort_reference(case, directed, loops):
    n, edges = case
    # tuples as generators give them, lists as a JSON document does
    for rows in (edges, [list(e) for e in edges]):
        assert (_outcome(build_network, n, rows, directed, loops)
                == _outcome(lexsort_build_network, n, rows, directed, loops))


def test_build_matches_lexsort_reference_on_larger_random_lists():
    rng = np.random.default_rng(0)
    for trial in range(200):
        n = int(rng.integers(2, 60))
        m = int(rng.integers(0, 4 * n))
        edges = [[int(u), int(v), float(w)] for u, v, w in zip(
            rng.integers(0, n, m), rng.integers(0, n, m),
            rng.choice([0.5, 1.0, 2.0], m))]
        if trial % 2:
            # mirrored and repeated listings of the same weight
            edges = [e for e in edges if e[0] != e[1]]
            edges += [[v, u, w] for u, v, w in edges[: m // 3]]
            edges += edges[: trial % 3]
            edges = [edges[i] for i in rng.permutation(len(edges))]
        for directed in (False, True):
            for loops in (False, True):
                assert (_outcome(build_network, n, edges, directed, loops)
                        == _outcome(lexsort_build_network, n, edges,
                                    directed, loops))


@pytest.mark.parametrize("edges", [
    [(0, 1), (1, 2), (2, 0)], [(0, 1, 1.0), (1, 2)], ["012"], [b"\x00\x01\x02"],
    [{0: 1, 1: 1, 2: 1}], [(0, [1], 1.0)], [(0, 1, "x")], [(0, 1, 10**400)],
    [(0, 1, None)], np.array([[0, 1, 1.0]]), ((0, 1, 1.0), [1, 2, 2.0])])
def test_rows_of_other_kinds_give_the_reference_outcome(edges):
    for directed in (False, True):
        assert (_outcome(build_network, 3, edges, directed, True)
                == _outcome(lexsort_build_network, 3, edges, directed, True))


def test_node_count_is_bounded_by_the_arc_key():
    with pytest.raises(NetworkError, match="node_count must be <="):
        build_network(3_037_000_500, [(0, 1, 1.0)])
