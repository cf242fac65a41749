"""Command line behaviour: subcommands, file outputs, exit codes."""

import csv
import json
import os
import shutil
import subprocess
import sys
from contextlib import ExitStack
from pathlib import Path

import numpy as np
import pytest

from medianflip import (
    GeneratorSpec,
    Instance,
    build_network,
    generate,
    instance_stats,
    load_instance,
    method_runner,
    min_budget_to_flip,
    save_instance,
)
import medianflip.cli as cli
from medianflip.bench import flip_budget, stooge_runner
from medianflip.cli import EXIT_INVALID, EXIT_OK, EXIT_SOLVER, main, _parse_param
from medianflip.equilibrium import SolverError
from medianflip.optimize import InterventionResult

from helpers import gc_passes

ROOT = Path(__file__).resolve().parent.parent


def small_instance():
    edges = [(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0), (3, 0, 1.0), (0, 2, 1.0)]
    net = build_network(4, edges)
    return Instance(
        alpha=np.array([0.5, 0.4, 0.6, 0.5]),
        s=np.array([0.2, 0.8, 0.6, 0.4]),
        network=net,
    )


def hierarchy_instance():
    net = build_network(5, [(0, 1, 1.0), (0, 2, 1.0), (1, 3, 1.0),
                            (1, 4, 1.0)], directed=True)
    return Instance(
        alpha=np.array([0.5, 0.5, 1.0, 1.0, 1.0]),
        s=np.array([0.3, 0.6, 0.9, 0.55, 0.2]),
        network=net,
    )


def printed_budget(budget):
    """How flip and optimize print a budget: a whole one as an integer,
    any other as its repr, which reads back as the same float."""
    budget = float(budget)
    return str(int(budget)) if budget.is_integer() else repr(budget)


class TestParseParam:
    def test_int(self):
        assert _parse_param("rows=7") == ("rows", 7)

    def test_float(self):
        assert _parse_param("p=0.25") == ("p", 0.25)

    def test_bool(self):
        assert _parse_param("swap=true") == ("swap", True)
        assert _parse_param("swap=False") == ("swap", False)

    def test_tuple(self):
        assert _parse_param("sizes=10,5,5") == ("sizes", (10, 5, 5))

    def test_missing_equals(self):
        with pytest.raises(ValueError):
            _parse_param("rows")


class TestGen:
    def test_writes_loadable_instance(self, tmp_path, capsys):
        out = tmp_path / "inst.json"
        code = main(["gen", "--topology", "grid", "--dist", "normal",
                     "--seed", "3", "--out", str(out),
                     "--param", "rows=3", "--param", "cols=4"])
        assert code == EXIT_OK
        inst = load_instance(out)
        assert inst.network.node_count == 12
        assert np.all(inst.alpha == 0.5)
        assert "n=12" in capsys.readouterr().out

    def test_seed_reproducible(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        main(["gen", "--topology", "gnp", "--seed", "5", "--out", str(a),
              "--param", "n=20", "--param", "p=0.2"])
        main(["gen", "--topology", "gnp", "--seed", "5", "--out", str(b),
              "--param", "n=20", "--param", "p=0.2"])
        assert a.read_text() == b.read_text()

    def test_unknown_topology_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["gen", "--topology", "torus", "--out", "x.json"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("topology,param", [
        ("grid", "rows=2.5"), ("grid", "rows=true"), ("gnp", "p=nan")])
    def test_mistyped_param_exits_invalid(self, tmp_path, capsys, topology,
                                          param):
        out = tmp_path / "x.json"
        code = main(["gen", "--topology", topology, "--out", str(out),
                     "--param", param])
        assert code == EXIT_INVALID
        assert f"param {param.split('=')[0]} must be" in (
            capsys.readouterr().err)
        assert not out.exists()

    def test_bad_param_exits_invalid(self, tmp_path, capsys):
        code = main(["gen", "--topology", "grid", "--out",
                     str(tmp_path / "x.json"), "--param", "bogus=3"])
        assert code == EXIT_INVALID
        assert "error:" in capsys.readouterr().err


class TestSolve:
    def test_stats_match_library(self, tmp_path, capsys):
        inst = small_instance()
        path = tmp_path / "inst.json"
        save_instance(inst, path)
        code = main(["solve", "--instance", str(path)])
        assert code == EXIT_OK
        lines = dict(
            line.split(" ", 1)
            for line in capsys.readouterr().out.strip().splitlines()
        )
        stats = instance_stats(inst)
        assert int(lines["n"]) == stats.n
        assert int(lines["m"]) == stats.m
        assert float(lines["median"]) == pytest.approx(stats.median, abs=1e-6)
        assert float(lines["mean"]) == pytest.approx(stats.mean, abs=1e-6)

    def test_json_output(self, tmp_path, capsys):
        path = tmp_path / "inst.json"
        save_instance(small_instance(), path)
        code = main(["solve", "--instance", str(path), "--json"])
        assert code == EXIT_OK
        doc = json.loads(capsys.readouterr().out)
        assert doc["n"] == 4 and doc["m"] == 5

    def test_edge_pair_input(self, tmp_path, capsys):
        edges = tmp_path / "g.txt"
        ops = tmp_path / "s.txt"
        edges.write_text("0 1\n1 2\n")
        ops.write_text("0 0.1\n1 0.5\n2 0.9\n")
        code = main(["solve", "--edges", str(edges), "--opinions", str(ops)])
        assert code == EXIT_OK
        assert "n 3" in capsys.readouterr().out

    @pytest.mark.parametrize("edge_text,opinion_text,where", [
        ("1.5 2\n", "1 0.1\n2 0.9\n", "g.txt:1: node id 1.5"),
        ("0 1\n", "0 0.1\n1 0.5\n2.9 0.9\n", "s.txt:3: node id 2.9"),
        ("inf 2\n", "1 0.1\n2 0.9\n", "g.txt:1: node id inf"),
        ("nan 2\n", "1 0.1\n2 0.9\n", "g.txt:1: node id nan")])
    def test_node_id_that_is_not_an_integer_exits_invalid(
            self, tmp_path, capsys, edge_text, opinion_text, where):
        edges = tmp_path / "g.txt"
        ops = tmp_path / "s.txt"
        edges.write_text(edge_text)
        ops.write_text(opinion_text)
        code = main(["solve", "--edges", str(edges), "--opinions", str(ops)])
        assert code == EXIT_INVALID
        assert f"{where} is not an integer" in capsys.readouterr().err

    def test_missing_file_exits_invalid(self, tmp_path, capsys):
        code = main(["solve", "--instance", str(tmp_path / "absent.json")])
        assert code == EXIT_INVALID
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("key,value", [
        ("directed", "false"), ("directed", 0), ("n", 3.9), ("n", True),
        ("n", "4")])
    def test_mistyped_field_exits_invalid(self, tmp_path, capsys, key,
                                          value):
        path = tmp_path / "inst.json"
        save_instance(small_instance(), path)
        doc = json.loads(path.read_text())
        doc[key] = value
        path.write_text(json.dumps(doc))
        code = main(["solve", "--instance", str(path)])
        assert code == EXIT_INVALID
        assert f"'{key}'" in capsys.readouterr().err

    @pytest.mark.parametrize("doc", [
        5, ["n", "directed", "edges", "alpha", "s"]])
    def test_document_not_an_object_exits_invalid(self, tmp_path, capsys,
                                                  doc):
        path = tmp_path / "inst.json"
        path.write_text(json.dumps(doc))
        code = main(["solve", "--instance", str(path)])
        assert code == EXIT_INVALID
        assert "not a JSON object" in capsys.readouterr().err

    def test_nan_alpha_exits_invalid(self, tmp_path, capsys):
        path = tmp_path / "inst.json"
        save_instance(small_instance(), path)
        # json writes and reads a float NaN as the bare token NaN
        doc = json.loads(path.read_text())
        doc["alpha"][2] = float("nan")
        path.write_text(json.dumps(doc))
        code = main(["solve", "--instance", str(path)])
        assert code == EXIT_INVALID
        assert "alpha[2] = nan outside [0, 1]" in capsys.readouterr().err

    @pytest.mark.parametrize("key,value,message", [
        ("n", 10**15, "'alpha' must list n = 1000000000000000 entries, got 4"),
        ("s", [0.5, 0.5, 0.5], "'s' must list n = 4 entries, got 3"),
        ("alpha", 0.5, "'alpha' must list n = 4 entries, got no list")])
    def test_vectors_of_another_length_than_n_exit_invalid(
            self, tmp_path, capsys, key, value, message):
        # no network of 10**15 nodes fits in memory, so the lengths are
        # compared before one is built
        path = tmp_path / "inst.json"
        save_instance(small_instance(), path)
        doc = json.loads(path.read_text())
        doc[key] = value
        path.write_text(json.dumps(doc))
        code = main(["solve", "--instance", str(path)])
        assert code == EXIT_INVALID
        assert message in capsys.readouterr().err

    def test_no_input_exits_invalid(self, capsys):
        code = main(["solve"])
        assert code == EXIT_INVALID


class TestOptimize:
    def test_greedy_summary(self, tmp_path, capsys):
        path = tmp_path / "inst.json"
        save_instance(small_instance(), path)
        code = main(["optimize", "--instance", str(path),
                     "--method", "greedy", "--budget", "2"])
        assert code == EXIT_OK
        out = capsys.readouterr().out
        assert "method greedy" in out
        assert "budget 2\n" in out
        assert "final_median" in out

    @pytest.mark.parametrize("budget", ["0", "2"])
    def test_prints_one_line_per_field_and_stooge(self, tmp_path, capsys,
                                                  budget):
        path = tmp_path / "inst.json"
        save_instance(small_instance(), path)
        code = main(["optimize", "--instance", str(path), "--method",
                     "degree", "--budget", budget, "--seed", "0"])
        assert code == EXIT_OK
        res = stooge_runner("degree", theta=0.5, seed=0, params={})(
            small_instance(), float(budget))
        assert len(res.stooges) == int(budget)
        lines = ["method degree", f"budget {budget}",
                 f"flipped {'true' if res.flipped else 'false'}",
                 f"final_median {res.final_median:.6f}",
                 f"l0_used {res.l0_budget_used}",
                 f"l1_used {res.l1_budget_used:.6f}"]
        lines += [f"stooge {u} {r}" for u, r in res.stooges.items()]
        assert capsys.readouterr().out == "".join(f"{ln}\n" for ln in lines)

    @pytest.mark.parametrize("method, budget", [
        ("sigmoid", "4"), ("greedy", "3"), ("tree-dp", "40")])
    def test_stooge_lines_match_formatted_items(self, tmp_path, capsys,
                                                method, budget):
        topology = "org_chart" if method == "tree-dp" else "grid"
        inst = generate(GeneratorSpec(topology, dist="normal", seed=5,
                                      params={"n": 40} if method == "tree-dp"
                                      else {"rows": 6, "cols": 6}))
        path = tmp_path / "inst.json"
        save_instance(inst, path)
        params, options = {
            "sigmoid": ({"max_iters": 30}, ["--max-iters", "30"]),
            "greedy": ({}, []),
            "tree-dp": ({"mode": "both"}, ["--mode", "both"])}[method]
        code = main(["optimize", "--instance", str(path), "--method", method,
                     "--budget", budget, "--seed", "0", *options])
        assert code == EXIT_OK
        res = stooge_runner(method, theta=0.5, seed=0, params=params)(
            inst, float(budget))
        assert res.stooges
        stooge_lines = [ln for ln in capsys.readouterr().out.splitlines()
                        if ln.startswith("stooge ")]
        assert stooge_lines == [f"stooge {u} {r}"
                                for u, r in res.stooges.items()]

    def test_stooge_lines_of_numpy_scalars_and_exponents(self, tmp_path,
                                                         capsys,
                                                         monkeypatch):
        stooges = {np.int64(3): np.float64(2.5e-07), 7: 1e-05,
                   np.int64(12): 5e-324, 100000: np.float64(0.1),
                   2: 1.0, np.int64(0): 0}
        self._report(tmp_path, monkeypatch, stooges)
        lines = capsys.readouterr().out.splitlines()
        assert lines[6:] == [f"stooge {u} {r}" for u, r in stooges.items()]
        assert lines[6:] == ["stooge 3 2.5e-07", "stooge 7 1e-05",
                             "stooge 12 5e-324", "stooge 100000 0.1",
                             "stooge 2 1.0", "stooge 0 0"]

    def test_stooge_report_runs_no_garbage_collection(self, tmp_path,
                                                      capsys, monkeypatch):
        stooges = dict(enumerate(np.linspace(0.0, 1e-3, 10000).tolist()))
        passes = self._report(tmp_path, monkeypatch, stooges)
        assert len(capsys.readouterr().out.splitlines()) == 6 + 10000
        assert passes == []

    @staticmethod
    def _report(tmp_path, monkeypatch, stooges):
        """Run optimize with a runner that answers with these stooges;
        the garbage-collector passes from its answer to the exit."""
        path = tmp_path / "inst.json"
        save_instance(small_instance(), path)
        result = InterventionResult(
            alpha_final=small_instance().alpha, stooges=stooges,
            l0_budget_used=len(stooges), l1_budget_used=0.5,
            final_median=0.5, flipped=False)
        with ExitStack() as stack:
            passes = []

            def runner(instance, budget):
                passes.append(stack.enter_context(gc_passes()))
                return result

            monkeypatch.setattr(cli, "stooge_runner",
                                lambda *args, **kwargs: runner)
            code = main(["optimize", "--instance", str(path), "--method",
                         "sigmoid", "--budget", "1"])
        assert code == EXIT_OK and len(passes) == 1
        return passes[0]

    @pytest.mark.parametrize("budget, shown", [
        ("2", "2"), ("2.0", "2"), ("1234567", "1234567"),
        ("49.8046875", "49.8046875"),
        ("0.30000000000000004", "0.30000000000000004")])
    def test_budget_echo_reads_back_as_the_same_float(self, tmp_path,
                                                      capsys, budget, shown):
        path = tmp_path / "inst.json"
        save_instance(small_instance(), path)
        code = main(["optimize", "--instance", str(path), "--method",
                     "sigmoid", "--budget", budget, "--max-iters", "3"])
        assert code == EXIT_OK
        assert f"\nbudget {shown}\n" in capsys.readouterr().out
        assert float(shown) == float(budget)

    def test_trace_csv_columns(self, tmp_path, capsys):
        path = tmp_path / "inst.json"
        trace = tmp_path / "trace.csv"
        # opinions lowered so that the base median, 0.444, does not flip:
        # an ascent that starts flipped stops before its first step
        inst = small_instance()
        save_instance(inst.with_s(inst.s - 0.1), path)
        code = main(["optimize", "--instance", str(path),
                     "--method", "sigmoid", "--budget", "2",
                     "--max-iters", "10", "--trace", str(trace)])
        assert code == EXIT_OK
        with open(trace, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["iteration", "surrogate", "true_median", "l1_used"]
        assert len(rows) > 1
        assert [int(r[0]) for r in rows[1:]] == list(range(1, len(rows)))

    def test_out_writes_modified_instance(self, tmp_path, capsys):
        path = tmp_path / "inst.json"
        out = tmp_path / "mod.json"
        inst = small_instance()
        save_instance(inst, path)
        code = main(["optimize", "--instance", str(path),
                     "--method", "degree", "--budget", "2",
                     "--seed", "0", "--out", str(out)])
        assert code == EXIT_OK
        modified = load_instance(out)
        assert np.any(modified.alpha != inst.alpha)
        assert np.array_equal(modified.s, inst.s)

    def test_matches_library_runner(self, tmp_path, capsys):
        path = tmp_path / "inst.json"
        save_instance(small_instance(), path)
        main(["optimize", "--instance", str(path), "--method", "greedy",
              "--budget", "2", "--theta", "0.4"])
        out = capsys.readouterr().out
        cli_median = float(
            [ln for ln in out.splitlines()
             if ln.startswith("final_median")][0].split()[1]
        )
        res = method_runner("greedy", theta=0.4)(small_instance(), 2)
        assert cli_median == pytest.approx(res.final_median, abs=1e-6)

    def test_tree_dp_rejects_non_hierarchy(self, tmp_path, capsys):
        path = tmp_path / "inst.json"
        save_instance(small_instance(), path)
        code = main(["optimize", "--instance", str(path),
                     "--method", "tree-dp", "--budget", "3"])
        assert code == EXIT_INVALID
        assert "hierarchy" in capsys.readouterr().err

    def test_out_keeps_the_opinions_tree_dp_pins(self, tmp_path, capsys):
        path = tmp_path / "org.json"
        out = tmp_path / "after.json"
        inst = generate(GeneratorSpec("org_chart", dist="normal", seed=0,
                                      params={"n": 60}))
        save_instance(inst, path)
        code = main(["optimize", "--instance", str(path),
                     "--method", "tree-dp", "--mode", "opinion",
                     "--budget", "60", "--out", str(out)])
        assert code == EXIT_OK
        stooges = [int(ln.split()[1])
                   for ln in capsys.readouterr().out.splitlines()
                   if ln.startswith("stooge ")]
        assert stooges
        after = load_instance(out)
        assert np.all(after.s[stooges] == 1.0)
        assert np.array_equal(after.alpha, inst.alpha)

    def test_tree_dp_emits_resistance_listing(self, tmp_path, capsys):
        path = tmp_path / "inst.json"
        save_instance(hierarchy_instance(), path)
        code = main(["optimize", "--instance", str(path),
                     "--method", "tree-dp", "--budget", "5"])
        assert code == EXIT_OK
        stooge_lines = [
            ln.split() for ln in capsys.readouterr().out.splitlines()
            if ln.startswith("stooge ")
        ]
        assert stooge_lines
        for _, node, resistance in stooge_lines:
            assert 0 <= int(node) < 5
            assert float(resistance) in (0.0, 1.0)


class TestFlip:
    def test_matches_library_search(self, tmp_path, capsys):
        path = tmp_path / "inst.json"
        inst = small_instance()
        save_instance(inst, path)
        code = main(["flip", "--instance", str(path),
                     "--method", "random", "--seed", "1"])
        assert code == EXIT_OK
        out = capsys.readouterr().out
        reported = float(
            [ln for ln in out.splitlines()
             if ln.startswith("budget_to_flip")][0].split()[1]
        )
        runner = method_runner("random", theta=0.5, seed=1)
        expected = min_budget_to_flip(inst, runner, theta=0.5)
        assert reported == float(expected)
        percent = float(
            [ln for ln in out.splitlines()
             if ln.startswith("percent_of_n")][0].split()[1]
        )
        assert percent == pytest.approx(100.0 * expected / 4, abs=0.01)

    def test_max_budget_counts_stooges(self, tmp_path, capsys):
        path = tmp_path / "grid.json"
        save_instance(generate(GeneratorSpec(
            "grid", dist="normal", seed=3, params={"rows": 6, "cols": 6})),
            path)
        for method in ("greedy", "sigmoid"):
            code = main(["flip", "--instance", str(path), "--method", method,
                         "--max-budget", "6"])
            assert code == EXIT_OK
            out = capsys.readouterr().out
            found = [float(ln.split()[1]) for ln in out.splitlines()
                     if ln.startswith("budget_to_flip")]
            assert found == [] or found[0] <= 6, (method, out)

    def test_tree_dp_mode_reaches_the_search(self, tmp_path, capsys):
        inst = generate(GeneratorSpec("org_chart", dist="normal", seed=0,
                                      params={"n": 30}))
        path = tmp_path / "org.json"
        save_instance(inst, path)
        runner = stooge_runner("tree-dp", theta=0.5, seed=None,
                               params={"mode": "both"})
        expected = flip_budget(inst, "tree-dp", runner, theta=0.5,
                               max_budget=None, resolution=0.5)
        assert expected is not None
        code = main(["flip", "--instance", str(path), "--method", "tree-dp",
                     "--mode", "both"])
        assert code == EXIT_OK
        assert f"budget_to_flip {printed_budget(expected)}\n" in (
            capsys.readouterr().out)
        # resistance mode cannot flip this chart, so the mode was honoured
        main(["flip", "--instance", str(path), "--method", "tree-dp"])
        assert "no flipping budget" in capsys.readouterr().out

    def test_fractional_budget_reads_back_as_the_same_float(self, tmp_path,
                                                            capsys):
        inst = generate(GeneratorSpec("grid", dist="normal", seed=3,
                                      params={"rows": 6, "cols": 6}))
        path = tmp_path / "grid.json"
        save_instance(inst, path)
        runner = stooge_runner("sigmoid", theta=0.5, seed=None,
                               params={"max_iters": 30})
        expected = flip_budget(inst, "sigmoid", runner, theta=0.5,
                               max_budget=None, resolution=0.001)
        # a bisected budget carries more than the six digits of :g
        assert f"{expected:g}" != repr(expected)
        code = main(["flip", "--instance", str(path), "--method", "sigmoid",
                     "--max-iters", "30", "--resolution", "0.001"])
        assert code == EXIT_OK
        out = capsys.readouterr().out
        assert f"budget_to_flip {expected!r}\n" in out
        printed = out.split("budget_to_flip ", 1)[1].split()[0]
        assert float(printed) == expected

    def test_unflippable_reports_none(self, tmp_path, capsys):
        net = build_network(2, [(0, 1, 1.0)])
        inst = Instance(alpha=np.array([1.0, 1.0]),
                        s=np.array([0.1, 0.2]), network=net)
        path = tmp_path / "inst.json"
        save_instance(inst, path)
        code = main(["flip", "--instance", str(path), "--method", "greedy"])
        assert code == EXIT_OK
        assert "no flipping budget" in capsys.readouterr().out


class TestIllPosedInput:
    @pytest.fixture
    def grid_path(self, tmp_path):
        path = tmp_path / "grid.json"
        save_instance(generate(GeneratorSpec(
            "grid", dist="normal", seed=0, params={"rows": 3, "cols": 3})),
            path)
        return str(path)

    @pytest.mark.parametrize("method", ["random", "degree", "centrality",
                                        "greedy"])
    def test_negative_budget_exits_invalid(self, grid_path, method, capsys):
        code = main(["optimize", "--instance", grid_path, "--method", method,
                     "--budget", "-2", "--seed", "0"])
        assert code == EXIT_INVALID
        assert "flipped" not in capsys.readouterr().out

    @pytest.mark.parametrize("resolution", ["0", "-1"])
    def test_nonpositive_resolution_exits_invalid(self, grid_path,
                                                  resolution, capsys):
        code = main(["flip", "--instance", grid_path, "--method", "sigmoid",
                     "--max-iters", "30", "--resolution", resolution])
        assert code == EXIT_INVALID
        assert "resolution" in capsys.readouterr().err

    def test_negative_max_budget_exits_invalid(self, grid_path, capsys):
        code = main(["flip", "--instance", grid_path, "--method", "greedy",
                     "--max-budget", "-1"])
        assert code == EXIT_INVALID
        assert "max_budget" in capsys.readouterr().err

    def test_fractional_max_budget_of_a_discrete_method_exits_invalid(
            self, grid_path, capsys):
        code = main(["flip", "--instance", grid_path, "--method", "greedy",
                     "--max-budget", "2.5"])
        assert code == EXIT_INVALID
        assert "whole for a discrete scan" in capsys.readouterr().err

    def test_unread_option_exits_invalid(self, grid_path, capsys):
        code = main(["optimize", "--instance", grid_path, "--method", "huber",
                     "--budget", "1", "--phi", "0.5"])
        assert code == EXIT_INVALID
        assert "phi" in capsys.readouterr().err

    @pytest.mark.parametrize("method,flag", [
        ("huber", "--c"), ("sigmoid", "--tau"), ("huber", "--eta")])
    def test_nan_tuning_constant_exits_invalid(self, grid_path, method, flag,
                                               capsys):
        # theta 0 is met with no stooges, so no run ever reads the value
        # and only a check made when the runner is built can reject it
        code = main(["flip", "--instance", grid_path, "--method", method,
                     "--theta", "0", flag, "nan"])
        assert code == EXIT_INVALID
        assert "must be positive, got nan" in capsys.readouterr().err

    @pytest.mark.parametrize("args", [
        ["optimize", "--method", "greedy", "--budget", "2.7"],
        ["optimize", "--method", "greedy", "--budget", "-0.5"],
        ["optimize", "--method", "greedy", "--budget", "inf"],
        ["optimize", "--method", "sigmoid", "--budget", "nan"],
        ["flip", "--method", "greedy", "--max-budget", "inf"],
        ["flip", "--method", "sigmoid", "--max-budget", "nan"],
        ["flip", "--method", "greedy", "--theta", "nan"],
        ["optimize", "--method", "sigmoid", "--budget", "4",
         "--max-iters", "0"],
        ["optimize", "--method", "sigmoid", "--budget", "4",
         "--max-iters", "-3"]])
    def test_ill_posed_budget_theta_or_iters_exits_invalid(self, grid_path,
                                                            args, capsys):
        code = main([*args, "--instance", grid_path])
        assert code == EXIT_INVALID
        captured = capsys.readouterr()
        assert captured.err.startswith("error:")
        assert captured.out == ""


class TestBench:
    def write_config(self, tmp_path, **overrides):
        doc = {
            "instance": {"topology": "star", "params": {"n": 10},
                         "seed": 2, "dist": "bimodal"},
            "name": "star10",
            "methods": ["random", "degree"],
            "seeds": [0, 1],
            "budget": 4,
        }
        doc.update(overrides)
        path = tmp_path / "config.json"
        path.write_text(json.dumps(doc))
        return path

    def test_csv_and_json_reports(self, tmp_path, capsys):
        cfg = self.write_config(tmp_path)
        out_csv = tmp_path / "report.csv"
        out_json = tmp_path / "report.json"
        code = main(["bench", "--config", str(cfg), "--out", str(out_csv),
                     "--json", str(out_json)])
        assert code == EXIT_OK
        with open(out_csv, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["instance", "method", "seed", "n", "m", "theta",
                           "budget", "l1_used", "l0_used", "flipped",
                           "final_median", "runtime_ms"]
        assert len(rows) == 1 + 4
        doc = json.loads(out_json.read_text())
        assert {r["method"] for r in doc["records"]} == {"random", "degree"}
        out = capsys.readouterr().out
        assert "random:" in out and "degree:" in out

    def test_instance_path_source(self, tmp_path, capsys):
        inst_path = tmp_path / "inst.json"
        save_instance(small_instance(), inst_path)
        cfg = self.write_config(tmp_path, instance=str(inst_path),
                                methods=["random"], seeds=[0])
        code = main(["bench", "--config", str(cfg),
                     "--out", str(tmp_path / "r.csv")])
        assert code == EXIT_OK

    def test_invalid_config_exits_invalid(self, tmp_path, capsys):
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({"instance": 7}))
        code = main(["bench", "--config", str(cfg),
                     "--out", str(tmp_path / "r.csv")])
        assert code == EXIT_INVALID

    def test_malformed_config_exits_invalid(self, tmp_path, capsys):
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps([{"instance": "x.json"}]))
        code = main(["bench", "--config", str(cfg),
                     "--out", str(tmp_path / "r.csv")])
        assert code == EXIT_INVALID
        assert "not a JSON object" in capsys.readouterr().err
        cfg = self.write_config(tmp_path, instance={
            "topology": "grid", "params": {"rows": 2.5, "cols": 3}})
        code = main(["bench", "--config", str(cfg),
                     "--out", str(tmp_path / "r.csv")])
        assert code == EXIT_INVALID
        assert "param rows must be" in capsys.readouterr().err

    def test_unknown_keys_exit_invalid(self, tmp_path, capsys):
        # "seed" for "seeds", "budgets" for "budget", and "n" outside
        # the generator's "params"
        cfg = self.write_config(tmp_path, seed=[0], budgets=3)
        code = main(["bench", "--config", str(cfg),
                     "--out", str(tmp_path / "r.csv")])
        assert code == EXIT_INVALID
        err = capsys.readouterr().err
        assert "'budgets'" in err and "'seed'" in err
        cfg = self.write_config(tmp_path, instance={
            "topology": "star", "n": 10, "seed": 2})
        code = main(["bench", "--config", str(cfg),
                     "--out", str(tmp_path / "r.csv")])
        assert code == EXIT_INVALID
        assert "'n'" in capsys.readouterr().err
        assert not (tmp_path / "r.csv").exists()

    def test_unread_method_params_exit_invalid(self, tmp_path, capsys):
        for params in ({"huber": {"max_iter": 3}},
                       {"hubr": {"max_iters": 3}}):
            cfg = self.write_config(tmp_path, method_params=params)
            code = main(["bench", "--config", str(cfg),
                         "--out", str(tmp_path / "r.csv")])
            assert code == EXIT_INVALID
            assert not (tmp_path / "r.csv").exists()

    def test_out_of_range_method_params_exit_before_generation(
            self, tmp_path, capsys, monkeypatch):
        def generate(spec):
            raise AssertionError("a bad config must fail before generation")

        monkeypatch.setattr(cli, "generate", generate)
        for params in ({"huber": {"c": 0}, "greedy": {"phi": 2}},
                       {"sigmoid": {"eta": 0}}, {"huber": {"max_iters": 2.5}},
                       {"tree-dp": {"mode": "all"}}):
            cfg = self.write_config(tmp_path, method_params=params)
            code = main(["bench", "--config", str(cfg),
                         "--out", str(tmp_path / "r.csv")])
            assert code == EXIT_INVALID
            assert "error:" in capsys.readouterr().err
            assert not (tmp_path / "r.csv").exists()

    @pytest.mark.parametrize("theta", ["x", None, True])
    def test_theta_that_is_not_a_real_number_exits_invalid(
            self, tmp_path, capsys, theta):
        path = tmp_path / "grid.json"
        save_instance(generate(GeneratorSpec(
            "grid", dist="normal", seed=0, params={"rows": 3, "cols": 3})),
            path)
        cfg = self.write_config(tmp_path, instance=str(path), theta=theta,
                                methods=["greedy"], seeds=[0], budget=None)
        code = main(["bench", "--config", str(cfg),
                     "--out", str(tmp_path / "r.csv")])
        assert code == EXIT_INVALID
        assert "theta must be finite and real" in capsys.readouterr().err
        assert not (tmp_path / "r.csv").exists()

    def test_malformed_json_exits_invalid(self, tmp_path, capsys):
        cfg = tmp_path / "config.json"
        cfg.write_text("{not json")
        code = main(["bench", "--config", str(cfg),
                     "--out", str(tmp_path / "r.csv")])
        assert code == EXIT_INVALID


class TestJaccard:
    def test_matrix_from_report(self, tmp_path, capsys):
        cfg_doc = {
            "instance": {"topology": "star", "params": {"n": 10}, "seed": 2},
            "methods": ["random", "degree"],
            "seeds": [0, 1],
            "budget": 4,
        }
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps(cfg_doc))
        report = tmp_path / "report.json"
        main(["bench", "--config", str(cfg), "--out", str(tmp_path / "r.csv"),
              "--json", str(report)])
        capsys.readouterr()
        code = main(["jaccard", "--report", str(report)])
        assert code == EXIT_OK
        lines = capsys.readouterr().out.strip().splitlines()
        methods = lines[0].split()
        assert set(methods) == {"random", "degree"}
        matrix = [[float(v) for v in ln.split()] for ln in lines[1:]]
        for i in range(len(methods)):
            assert matrix[i][i] == pytest.approx(1.0)
            for j in range(len(methods)):
                assert matrix[i][j] == pytest.approx(matrix[j][i])

    @pytest.mark.parametrize("doc,problem", [
        ([1], "not a JSON object"),
        ({"records": [5]}, "report record is not a JSON object"),
        ({"records": 5}, "'records' is not a list"),
        ({"records": [{"method": "greedy"}]}, "report record"),
        ({"records": [{"stooge": [1]}]}, "unknown keys ['stooge']")])
    def test_malformed_report_exits_invalid(self, tmp_path, capsys, doc,
                                            problem):
        report = tmp_path / "report.json"
        report.write_text(json.dumps(doc))
        code = main(["jaccard", "--report", str(report)])
        assert code == EXIT_INVALID
        assert problem in capsys.readouterr().err

    def test_missing_report_exits_invalid(self, tmp_path, capsys):
        code = main(["jaccard", "--report", str(tmp_path / "nope.json")])
        assert code == EXIT_INVALID


class TestExitCodes:
    def test_solver_failure_maps_to_three(self, tmp_path, capsys,
                                          monkeypatch):
        path = tmp_path / "inst.json"
        save_instance(small_instance(), path)

        def boom(*args, **kwargs):
            raise SolverError("did not converge")

        monkeypatch.setattr("medianflip.cli.instance_stats", boom)
        code = main(["solve", "--instance", str(path)])
        assert code == EXIT_SOLVER
        assert "solver error" in capsys.readouterr().err

    def test_console_entry_point(self):
        # Start the [project.scripts] target in a child process the way
        # pip's generated wrapper does, so a checkout needs no install.
        if sys.version_info >= (3, 11):
            import tomllib
        else:
            tomllib = pytest.importorskip("tomli")
        with open(ROOT / "pyproject.toml", "rb") as fh:
            target = tomllib.load(fh)["project"]["scripts"]["medianflip"]
        module, func = target.split(":")
        wrapper = (f"import sys; sys.argv[0] = 'medianflip'; "
                   f"from {module} import {func}; sys.exit({func}())")
        path = os.pathsep.join(
            p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p)
        commands = [([sys.executable, "-c", wrapper, "--help"],
                     dict(os.environ, PYTHONPATH=path))]
        installed = shutil.which("medianflip")
        if installed is not None:
            commands.append(([installed, "--help"], None))
        for command, env in commands:
            proc = subprocess.run(command, env=env, capture_output=True,
                                  text=True, timeout=120)
            assert proc.returncode == 0, proc.stderr
            assert "optimize" in proc.stdout, proc.stderr

    def test_import_leaves_sparse_linalg_unloaded(self):
        # scipy.sparse is imported by the first sparse W and scipy.linalg
        # by the first dense solve; no solve loads scipy.sparse.linalg,
        # since sparse systems run the package's own GMRES. So importing
        # the package or the CLI loads none of them, and a tree-DP solve,
        # which reads neither W, loads none
        check = (
            "import sys, medianflip, medianflip.cli\n"
            "names = ('scipy.sparse', 'scipy.linalg', 'scipy.sparse.linalg')\n"
            "print([m for m in names if m in sys.modules])\n"
            "from medianflip import (GeneratorSpec, TreeInstance, generate,\n"
            "                        tree_dp_min_stooges)\n"
            "inst = generate(GeneratorSpec('org_chart', seed=0,\n"
            "                              params={'n': 40}))\n"
            "dp = tree_dp_min_stooges(TreeInstance(inst, mode='both'))\n"
            "print(dp.cost > 0, [m for m in names if m in sys.modules])\n")
        path = os.pathsep.join(
            p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p)
        proc = subprocess.run([sys.executable, "-c", check],
                              env=dict(os.environ, PYTHONPATH=path),
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines() == ["[]", "True []"]
