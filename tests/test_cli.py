"""Command line behaviour: subcommands, file outputs, exit codes."""

import csv
import json
import os
import shutil
import subprocess
import sys
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
from medianflip.bench import flip_budget, stooge_runner
from medianflip.cli import EXIT_INVALID, EXIT_OK, EXIT_SOLVER, main, _parse_param
from medianflip.equilibrium import SolverError

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

    def test_trace_csv_columns(self, tmp_path, capsys):
        path = tmp_path / "inst.json"
        trace = tmp_path / "trace.csv"
        save_instance(small_instance(), path)
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
        assert f"budget_to_flip {float(expected):g}\n" in (
            capsys.readouterr().out)
        # resistance mode cannot flip this chart, so the mode was honoured
        main(["flip", "--instance", str(path), "--method", "tree-dp"])
        assert "no flipping budget" in capsys.readouterr().out

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

    def test_unread_option_exits_invalid(self, grid_path, capsys):
        code = main(["optimize", "--instance", grid_path, "--method", "huber",
                     "--budget", "1", "--phi", "0.5"])
        assert code == EXIT_INVALID
        assert "phi" in capsys.readouterr().err


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
        # scipy.sparse.linalg is imported by the first sparse solve only,
        # so importing the package or the CLI costs no more than that
        check = ("import sys, medianflip, medianflip.cli; "
                 "print('scipy.sparse.linalg' in sys.modules)")
        path = os.pathsep.join(
            p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p)
        proc = subprocess.run([sys.executable, "-c", check],
                              env=dict(os.environ, PYTHONPATH=path),
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "False"
