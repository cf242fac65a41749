import json

import numpy as np
import pytest

from medianflip import GeneratorSpec, Instance, build_network, generate
from medianflip.gadgets import SetCoverSpec, gen_set_cover_gadget
from medianflip.instance_io import (
    InstanceIOError,
    instance_stats,
    load_edge_list,
    load_instance,
    save_instance,
)

from helpers import gc_passes, random_connected_instance


def assert_saved_bytes_match_streamed_json(inst, tmp_path):
    """save_instance writes the bytes that json.dump streams for the
    document {n, directed, edges, alpha, s}, plus a newline."""
    net = inst.network
    rows = [(u, v, w)
            for u, v, w in zip(net.arc_src, net.arc_dst, net.arc_w)
            if net.directed or u <= v]
    reference = tmp_path / "reference.json"
    with open(reference, "w") as fh:
        json.dump({"n": int(net.node_count),
                   "directed": bool(net.directed),
                   "edges": [[int(u), int(v), float(w)] for u, v, w in rows],
                   "alpha": [float(a) for a in inst.alpha],
                   "s": [float(v) for v in inst.s]}, fh)
        fh.write("\n")
    path = tmp_path / "inst.json"
    save_instance(inst, path)
    assert path.read_bytes() == reference.read_bytes()


def _instance(n, edges, directed, seed=0):
    rng = np.random.default_rng(seed)
    net = build_network(n, edges, directed=directed, allow_self_loops=True)
    return Instance(net, rng.random(n), rng.random(n))


# node ids on both sides of each digit boundary
_BOUNDARY_IDS = (0, 9, 10, 99, 100, 999, 1000, 99999, 100000)
# weights whose repr has an exponent, integral floats, and others
_ODD_WEIGHTS = (1e-05, 2.5e-07, 1e+16, 1.7976931348623157e+308, 5e-324,
                1.0, 2.0, 100.0, 0.1, 1 / 3)

LAYOUT_CASES = {
    "one_node_undirected": lambda: _instance(1, [], False),
    "one_node_directed": lambda: _instance(1, [], True),
    "undirected_self_loops": lambda: _instance(
        4, [(0, 0, 1.0), (0, 1, 0.5), (2, 2, 3.0), (3, 1, 1.0)], False),
    "directed_self_loops": lambda: _instance(
        4, [(0, 0, 1.0), (1, 0, 0.5), (0, 1, 2.0), (3, 3, 0.25)], True),
    "digit_boundaries": lambda: _instance(100001, [
        (u, v, 1.0) for i, u in enumerate(_BOUNDARY_IDS)
        for v in _BOUNDARY_IDS[i:]], False),
    "digit_boundaries_directed": lambda: _instance(100001, [
        (u, v, 0.5) for u in _BOUNDARY_IDS for v in _BOUNDARY_IDS
        if u != v], True),
    "exponent_and_integral_weights": lambda: _instance(
        12, [(i, (i + 1 + j) % 12, _ODD_WEIGHTS[(i + j) % 10])
             for i in range(12) for j in range(2)], True),
    "many_distinct_weights": lambda: _instance(
        300, [(i, (i * 7 + 1) % 300, w) for i, w in enumerate(
            np.random.default_rng(57).random(300) + 1e-3)], False),
    "ba_10000": lambda: generate(GeneratorSpec("ba", seed=58,
                                               params={"n": 10000})),
}


class TestCanonicalRoundTrip:
    def test_fifty_random_instances_bit_exact(self, tmp_path):
        rng = np.random.default_rng(55)
        for i in range(50):
            inst = random_connected_instance(rng, int(rng.integers(2, 30)),
                                             directed=bool(i % 3 == 0))
            path = tmp_path / f"inst_{i}.json"
            save_instance(inst, path)
            back = load_instance(path)
            assert back.network.directed == inst.network.directed
            np.testing.assert_array_equal(back.network.arc_src,
                                          inst.network.arc_src)
            np.testing.assert_array_equal(back.network.arc_dst,
                                          inst.network.arc_dst)
            np.testing.assert_array_equal(back.network.arc_w,
                                          inst.network.arc_w)
            np.testing.assert_array_equal(back.alpha, inst.alpha)
            np.testing.assert_array_equal(back.s, inst.s)

    def test_directed_with_self_loop(self, tmp_path):
        net = build_network(2, [(0, 1, 0.25), (1, 1, 2.0)], directed=True,
                            allow_self_loops=True)
        inst = Instance(net, np.array([0.3, 0.7]), np.array([0.1, 0.9]))
        path = tmp_path / "loop.json"
        save_instance(inst, path)
        back = load_instance(path)
        np.testing.assert_array_equal(back.network.arc_w, net.arc_w)

    @pytest.mark.parametrize("directed", [True, False])
    def test_file_matches_streamed_json_document(self, tmp_path, directed):
        inst = random_connected_instance(np.random.default_rng(56), 40,
                                         directed=directed)
        assert_saved_bytes_match_streamed_json(inst, tmp_path)

    @pytest.mark.parametrize("case", sorted(LAYOUT_CASES))
    def test_layout_cases_match_streamed_json_document(self, tmp_path,
                                                       case):
        assert_saved_bytes_match_streamed_json(LAYOUT_CASES[case](),
                                               tmp_path)

    def test_save_runs_no_garbage_collection(self, tmp_path):
        inst = generate(GeneratorSpec("ba", seed=4, params={"n": 4100}))
        assert inst.network.edge_count >= 20000
        with gc_passes() as passes:
            save_instance(inst, tmp_path / "ba.json")
        assert passes == []

    def test_missing_field_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"n": 2, "edges": []}')
        with pytest.raises(InstanceIOError, match="missing fields"):
            load_instance(path)

    def test_integral_float_node_count_accepted(self, tmp_path):
        path = tmp_path / "inst.json"
        path.write_text('{"n": 2.0, "directed": false, "edges": [[0, 1, 1]],'
                        ' "alpha": [0.5, 0.5], "s": [0.2, 0.8]}')
        inst = load_instance(path)
        assert inst.node_count == 2 and not inst.network.directed

    def test_invalid_json_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("not json {")
        with pytest.raises(InstanceIOError, match="JSON"):
            load_instance(path)


class TestEdgeListPair:
    def write(self, tmp_path, edges, opinions):
        e = tmp_path / "graph.txt"
        o = tmp_path / "opinions.txt"
        e.write_text(edges)
        o.write_text(opinions)
        return e, o

    def test_defaults_alpha_half_weight_one(self, tmp_path):
        e, o = self.write(tmp_path, "1 2\n2 3\n", "1 0.2\n2 0.5\n3 0.8\n")
        inst = load_edge_list(e, o)
        assert inst.network.node_count == 3
        np.testing.assert_array_equal(inst.alpha, 0.5)
        np.testing.assert_array_equal(inst.network.arc_w, 1.0)
        np.testing.assert_array_equal(inst.s, [0.2, 0.5, 0.8])

    def test_id_remapping_sorted(self, tmp_path):
        e, o = self.write(tmp_path, "30 10\n", "30 0.9\n10 0.1\n")
        inst = load_edge_list(e, o)
        # id 10 -> 0, id 30 -> 1
        np.testing.assert_array_equal(inst.s, [0.1, 0.9])
        assert inst.network.edge_count == 1

    def test_explicit_weight_and_alpha(self, tmp_path):
        e, o = self.write(tmp_path, "0 1 2.5\n", "0 0.2 0.9\n1 0.8\n")
        inst = load_edge_list(e, o)
        np.testing.assert_array_equal(inst.network.arc_w, 2.5)
        np.testing.assert_array_equal(inst.alpha, [0.9, 0.5])

    def test_comments_and_blank_lines(self, tmp_path):
        e, o = self.write(tmp_path, "# header\n\n0 1\n",
                          "0 0.5 # zero\n1 0.5\n")
        inst = load_edge_list(e, o)
        assert inst.network.edge_count == 1

    def test_opinion_nodes_without_edges_are_isolated(self, tmp_path):
        e, o = self.write(tmp_path, "0 1\n", "0 0.1\n1 0.2\n5 0.3\n")
        inst = load_edge_list(e, o)
        assert inst.network.node_count == 3

    def test_malformed_line_reports_lineno(self, tmp_path):
        e, o = self.write(tmp_path, "0 1\n0 1 2 3\n", "0 0.1\n1 0.2\n")
        with pytest.raises(InstanceIOError, match=r"graph\.txt:2"):
            load_edge_list(e, o)

    def test_non_numeric_reports_lineno(self, tmp_path):
        e, o = self.write(tmp_path, "0 one\n", "0 0.1\n1 0.2\n")
        with pytest.raises(InstanceIOError, match=r"graph\.txt:1"):
            load_edge_list(e, o)

    def test_opinion_out_of_range_reports_lineno(self, tmp_path):
        e, o = self.write(tmp_path, "0 1\n", "0 0.1\n1 1.5\n")
        with pytest.raises(InstanceIOError, match=r"opinions\.txt:2"):
            load_edge_list(e, o)

    def test_dangling_endpoint_rejected(self, tmp_path):
        e, o = self.write(tmp_path, "0 7\n", "0 0.1\n")
        with pytest.raises(InstanceIOError, match="no opinion"):
            load_edge_list(e, o)

    def test_duplicate_opinion_rejected(self, tmp_path):
        e, o = self.write(tmp_path, "0 1\n", "0 0.1\n0 0.2\n1 0.3\n")
        with pytest.raises(InstanceIOError, match="duplicate"):
            load_edge_list(e, o)


class TestInstanceStats:
    def test_single_node(self):
        net = build_network(1, [])
        inst = Instance(net, np.array([1.0]), np.array([0.3]))
        stats = instance_stats(inst)
        assert stats == (1, 0, pytest.approx(0.3), pytest.approx(0.3))

    def test_gadget_median_zero_before_intervention(self):
        inst, _ = gen_set_cover_gadget(SetCoverSpec(3, ({0, 1, 2},), 1))
        stats = instance_stats(inst)
        assert abs(stats.median) < 1e-9
        assert stats.n == 2 * (3 + 1 + 1)

    def test_edge_count_undirected(self):
        net = build_network(3, [(0, 1, 1.0), (1, 2, 1.0)])
        inst = Instance(net, np.full(3, 0.5), np.full(3, 0.5))
        assert instance_stats(inst).m == 2
